"""Scaling ladders and per-layer microbenchmarks for the traced run.

Ladders find the largest size that finishes within a fixed budget. Each rung
runs in its own child process, one at a time, and is killed when the budget
runs out; the ladder stops at the first rung that fails. Run a single rung by
hand with

    python3 perfbench/probes.py kernel 16 1    # kernel_basis on a seeded 16x32 matrix
    python3 perfbench/probes.py mass 5000 1    # realize + homog_dim at unit mass 5000
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNG_BUDGET_S = 4.0
RUNG_MEMORY_BYTES = 2 << 30
KERNEL_RUNGS = list(range(8, 65, 4))
MASS_RUNGS = [m * 10**e for e in range(3, 9) for m in (1, 2, 5)][:-2]  # 1e3 .. 1e8


def kernel_matrix(n: int, seed: int) -> list[list[int]]:
    """Seeded n x 2n matrix with entries in [-2, 2]."""
    rng = random.Random(f"ladder:{n}:{seed}")
    return [[rng.randint(-2, 2) for _ in range(2 * n)] for _ in range(n)]


def _rung_kernel(n: int, seed: int) -> float:
    from gammak0 import intlinalg

    m = kernel_matrix(n, seed)
    t0 = time.perf_counter()
    basis = intlinalg.kernel_basis(m, 2 * n)
    elapsed = time.perf_counter() - t0
    if len(basis) < n:  # an n x 2n matrix has a kernel of rank at least n
        raise SystemExit(f"kernel rank {len(basis)} < {n}")
    return elapsed


def _z2_unit_ring(mass: int):
    from gammak0 import SimplicialGroup, coset_space, cyclic_group, realize_simplicial
    from gammak0 import trivial_subgroup

    z2 = cyclic_group(2)
    group = SimplicialGroup(coset_space(z2, trivial_subgroup(z2)), 1)
    return z2, group, group.element([[mass - 1, 1]])


def _rung_mass(mass: int) -> float:
    from gammak0 import homog_dim, k0_of_matricial, realize_simplicial

    z2, group, unit = _z2_unit_ring(mass)
    t0 = time.perf_counter()
    ring = realize_simplicial(group, unit).ring
    dim = homog_dim(ring, z2.identity)
    k0_of_matricial(ring)
    elapsed = time.perf_counter() - t0
    if dim != (mass - 1) ** 2 + 1:
        raise SystemExit(f"homog_dim {dim} at mass {mass}")
    return elapsed


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (RUNG_MEMORY_BYTES, RUNG_MEMORY_BYTES))


def _climb(kind: str, rungs: list[int], seed: int, src: Path) -> int:
    best = 0
    for size in rungs:
        try:
            subprocess.run(
                [sys.executable, __file__, kind, str(size), str(seed), str(src)],
                capture_output=True, timeout=RUNG_BUDGET_S, check=True,
                preexec_fn=_limit_memory,
            )
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError):
            break
        best = size
    return best


def ladders(seed: int, src: Path) -> dict[str, int]:
    return {
        "intlinalg.ladder_max_n": _climb("kernel", KERNEL_RUNGS, seed, src),
        "graded_matricial.ladder_max_mass": _climb("mass", MASS_RUNGS, seed, src),
    }


def _per_call_us(fn, min_total_s: float = 0.2) -> float:
    """Median over batches of the time per call, in microseconds."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 > min_total_s / 10:
            break
        reps *= 2
    batches = []
    for _ in range(10):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        batches.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(batches)


def _median_s(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def microbenchmarks(seed: int) -> dict[str, float]:
    """map_apply and vector addition at fixed flat dimensions, homog_dim and realize."""
    from gammak0 import (
        SimplicialGroup, coset_space, cyclic_group, dihedral_group, homog_dim, map_apply,
        map_new, realize_simplicial, trivial_subgroup,
    )

    rng = random.Random(f"micro:{seed}")
    out: dict[str, float] = {}
    spaces = {"d18": (cyclic_group(6), 3), "d32": (dihedral_group(4), 4), "d64": (cyclic_group(16), 4)}
    for label, (G, rank) in spaces.items():
        group = SimplicialGroup(coset_space(G, trivial_subgroup(G)), rank)
        nc = group.space.num_cosets
        cols = [group.element([[rng.randint(0, 2) for _ in range(nc)] for _ in range(rank)])
                for _ in range(rank)]
        f = map_new(group, group, cols)
        v = group.element([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rank)])
        out[f"gamma_maps.map_apply_us.{label}"] = _per_call_us(lambda: map_apply(f, v))
        if label == "d18":
            w = group.element([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rank)])
            out["ordered_simplicial.add_us.d18"] = _per_call_us(lambda: v + w)
    z2, group, unit = _z2_unit_ring(1000)
    ring = realize_simplicial(group, unit).ring
    out["graded_matricial.homog_dim_s.m1000"] = _median_s(lambda: homog_dim(ring, z2.identity))
    z2, group, unit = _z2_unit_ring(1_000_000)
    out["hom_realization.realize_s.m1000000"] = _median_s(lambda: realize_simplicial(group, unit))
    return out


if __name__ == "__main__":
    kind, size, seed, src = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
    sys.path.insert(0, src[0] if src else str(Path(__file__).resolve().parent.parent / "src"))
    seconds = _rung_kernel(size, seed) if kind == "kernel" else _rung_mass(size)
    print(f"{kind} {size}: {seconds:.3f} s")
