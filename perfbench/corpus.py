"""Seeded problem corpora for the three workloads, with answers known by construction.

``generate(workload, seed)`` returns a list of ``Problem``s. Each one holds
the problem files to write, the ``gamma-k0`` subcommand and its arguments,
and an ``expect`` record that ``oracle.check`` compares the engine's
output against. Every expected answer comes from the planted structure or
from the plain-integer arithmetic in ``algebra``, never from ``gammak0``.

The mix of problem kinds and of sizes is fixed per workload. The seed
chooses only the entries, so corpora for different seeds cost about the
same to solve.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

import algebra as A

WORKLOADS = ("kernels", "certify", "classdata")


@dataclass
class Problem:
    pid: str
    cmd: str
    files: dict[str, dict]  # file name -> {"kind": ..., "payload": ...}
    args: list[str] = field(default_factory=list)  # after the file names
    flags: list[str] = field(default_factory=list)  # global flags besides --json/--cert
    expect: dict = field(default_factory=dict)


def corpus_bytes(problems: list[Problem]) -> bytes:
    """Canonical serialization, used to compare corpora byte for byte."""
    return json.dumps([asdict(p) for p in problems], sort_keys=True).encode()


# -- groups ----------------------------------------------------------------------


def _group_table() -> dict:
    return {
        "C2": lambda: A.cyclic(2),
        "C3": lambda: A.cyclic(3),
        "C4": lambda: A.cyclic(4),
        "C2xC2": lambda: A.product(A.cyclic(2), A.cyclic(2)),
        "C6": lambda: A.cyclic(6),
        "D3": lambda: A.dihedral(3),
        "C8": lambda: A.cyclic(8),
        "D4": lambda: A.dihedral(4),
        "Q8": lambda: A.quaternion(),
        "C2xC4": lambda: A.product(A.cyclic(2), A.cyclic(4)),
        "C10": lambda: A.cyclic(10),
        "A4": lambda: A.alternating4(),
        "C12": lambda: A.cyclic(12),
        "D6": lambda: A.dihedral(6),
        "D8": lambda: A.dihedral(8),
        "C4xC4": lambda: A.product(A.cyclic(4), A.cyclic(4)),
        "S4": lambda: A.symmetric(4),
        "D12": lambda: A.dihedral(12),
        "C2xA4": lambda: A.product(A.cyclic(2), A.alternating4()),
        "C2xS4": lambda: A.product(A.cyclic(2), A.symmetric(4)),
        "D24": lambda: A.dihedral(24),
        "C4xC12": lambda: A.product(A.cyclic(4), A.cyclic(12)),
    }


class Groups:
    """Lazily built groups and their subgroups, shared by one corpus."""

    def __init__(self):
        self._make = _group_table()
        self._groups: dict[str, A.Group] = {}
        self._normal: dict[str, list[list[int]]] = {}
        self._subgroups: dict[str, list[list[int]]] = {}

    def get(self, name: str) -> A.Group:
        if name not in self._groups:
            self._groups[name] = self._make[name]()
        return self._groups[name]

    def normal_of_size(self, name: str, size: int) -> list[int]:
        if name not in self._normal:
            self._normal[name] = A.normal_subgroups(self.get(name))
        return next(s for s in self._normal[name] if len(s) == size)

    def normal_at_least(self, name: str, size: int) -> list[int]:
        """The smallest normal subgroup with at least ``size`` elements."""
        self.normal_of_size(name, 1)
        return min((s for s in self._normal[name] if len(s) >= size), key=len)

    def any_of_size(self, name: str, size: int, rng: random.Random) -> list[int]:
        """A subgroup of this size, normal or not, chosen by the seed."""
        G = self.get(name)
        if name not in self._subgroups:
            subs = {tuple(A.closure(G, [g])) for g in range(G.order)}
            if name not in self._normal:
                self._normal[name] = A.normal_subgroups(G)
            subs.update(tuple(s) for s in self._normal[name])
            self._subgroups[name] = [list(s) for s in sorted(subs)]
        options = [s for s in self._subgroups[name] if len(s) == size]
        return rng.choice(options)


def _doc(kind: str, payload: dict) -> dict:
    return {"kind": kind, "payload": payload}


def _simplicial(G: A.Group, sub: list[int], rank: int) -> dict:
    return {"group": G.table_json(), "delta_gens": list(sub), "rank": rank}


def _basis(rank: int, n: int, i: int, coset: int = 0) -> list[list[int]]:
    v = A.zero_vec(rank, n)
    v[i][coset] = 1
    return v


def _rand_positive_column(rng, C: A.Cosets, rank: int, max_terms: int, max_coeff: int):
    col = A.zero_vec(rank, C.n)
    for _ in range(rng.randint(1, max_terms)):
        col[rng.randrange(rank)][rng.randrange(C.n)] += rng.randint(1, max_coeff)
    return col


def _rand_nonneg(rng, rank: int, n: int, hi: int) -> list[list[int]]:
    return [[rng.randint(0, hi) for _ in range(n)] for _ in range(rank)]


def _rand_ring_elt(rng, G: A.Group, support: int, lo: int, hi: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for g in rng.sample(range(G.order), min(support, G.order)):
        k = rng.randint(lo, hi)
        if k:
            out[g] = k
    return out


def _ring_json(a: dict[int, int]) -> dict:
    return {"coeffs": {str(g): k for g, k in sorted(a.items())}}


def _apply(C: A.Cosets, columns, v):
    """Image of v under the map with these columns (plain integers)."""
    out = A.zero_vec(len(columns[0]), C.n) if columns else []
    for coord, col in zip(v, columns):
        if any(coord):
            out = A.vec_add(out, A.ring_act_vec(C, A.lift(C, coord), col))
    return out


# -- kernels ---------------------------------------------------------------------

# (group, |D| of a normal stabilizer, source rank, target rank, most terms per
# column); source flat dims 8..20. Denser maps make the integer kernels
# costlier. Larger cases are left out on purpose: at source dimension 24
# about one map in two thousand hits a Hermite-form blow-up that runs for
# minutes, which the intlinalg ladder of the traced run measures instead.
SHEN_CONFIGS = [
    ("C10", 1, 2, 2, 5), ("C10", 1, 2, 2, 4), ("C6", 1, 3, 2, 4), ("D3", 1, 3, 2, 4),
    ("C10", 1, 2, 2, 5), ("C6", 1, 3, 3, 4), ("C4", 1, 3, 1, 4), ("C2xC2", 1, 2, 2, 4),
    ("C10", 1, 2, 2, 5), ("D4", 2, 4, 3, 4), ("C8", 2, 4, 2, 4), ("A4", 4, 4, 3, 4),
    ("C10", 1, 2, 2, 4), ("C12", 2, 3, 2, 3), ("D3", 1, 3, 3, 5), ("C10", 2, 4, 2, 4),
]

# (group, |D|, rank, most terms per column); columns have coefficient 1.
# With one term per column every composite is a 0/1 matrix; two terms make
# entries grow like 2^level, which stays safe only at flat dimension 8.
COLIMIT_CONFIGS = [
    ("C4", 1, 2, 2), ("C2xC2", 1, 2, 2), ("C6", 1, 2, 1), ("C6", 1, 3, 1),
    ("D4", 1, 2, 1), ("D4", 1, 3, 1), ("Q8", 1, 2, 1), ("C8", 2, 3, 1),
    ("D4", 2, 4, 1), ("A4", 1, 2, 1), ("A4", 1, 3, 1), ("C12", 1, 2, 1),
    ("C12", 1, 3, 1), ("D6", 2, 3, 1), ("C10", 1, 2, 1), ("C10", 1, 3, 1),
]
HORIZONS = [4, 6, 8, 10, 12]
PAIR_KINDS = ["equal_early", "unequal", "equal_late", "unequal"]


def _shen_problem(rng, groups: Groups, pid: str, cfg) -> Problem:
    name, dsize, rs, rt, max_terms = cfg
    G = groups.get(name)
    sub = groups.normal_of_size(name, dsize)
    C = A.Cosets(G, sub)
    cols = [_rand_positive_column(rng, C, rt, max_terms, 2) for _ in range(rs)]
    payload = {
        "source": _simplicial(G, sub, rs),
        "target": _simplicial(G, sub, rt),
        "columns": cols,
    }
    rank = A.rank_q(A.map_matrix(C, cols, rt))
    return Problem(
        pid, "shen", {"hom.json": _doc("hom", payload)},
        expect={"exit": 0, "image_rank": rank, "source_dim": rs * C.n},
    )


def _first_equal_level(C, maps, repeat, p_level, p, q, h_max):
    """Plain-integer push of both elements; the first level where they agree."""
    d = A.vec_sub(p, q)
    for level in range(p_level, h_max + 1):
        if not any(A.flatten(d)):
            return level
        if level < h_max:
            idx = min(level, len(maps) - 1) if repeat else level
            d = _apply(C, maps[idx], d)
    return None


def _colimit_problem(rng, groups: Groups, pid: str, cfg, horizon: int, pair: str, repeat: bool) -> Problem:
    name, dsize, r, max_terms = cfg
    G = groups.get(name)
    sub = groups.normal_of_size(name, dsize)
    C = A.Cosets(G, sub)
    if repeat:
        L = rng.randint(2, 4)
        ranks = [r] * L
    else:
        L = rng.randint(3, 5)
        ranks = [max(2, r + rng.randint(-1, 1)) for _ in range(L)]
    M = L - 1
    maps = [
        [_rand_positive_column(rng, C, ranks[n + 1], max_terms, 1) for _ in range(ranks[n])]
        for n in range(M)
    ]
    h_max = horizon if repeat else min(horizon, M)
    l0 = rng.randint(0, 1) if M >= 2 else 0

    def index(level: int) -> int:
        return min(level, M - 1) if repeat else level

    base = _rand_nonneg(rng, ranks[l0], C.n, 2)
    if pair == "unequal":
        d = _rand_nonneg(rng, ranks[l0], C.n, 1)
        if not any(A.flatten(d)):
            d[0][0] = 1
        p, q = A.vec_add(base, d), base
        expect = {"truth": "not_equal", "level": h_max}
    else:
        if pair == "equal_early":
            k = l0
        else:
            top = M - 1 if repeat else min(M - 1, h_max - 1)
            k = rng.randint(l0 + 1, top) if top >= l0 + 1 else l0
        for level in range(l0, k):  # carry e_0 and e_1 unchanged up to level k
            cols = maps[index(level)]
            cols[0] = _basis(ranks[level + 1], C.n, 0)
            cols[1] = _basis(ranks[level + 1], C.n, 1)
        collide = maps[index(k)]
        collide[1] = [row[:] for row in collide[0]]
        p = A.vec_add(base, _basis(ranks[l0], C.n, 0))
        q = A.vec_add(base, _basis(ranks[l0], C.n, 1))
        expect = {"truth": "equal", "level": k + 1}
    found = _first_equal_level(C, maps, repeat, l0, p, q, h_max)
    want = expect["level"] if expect["truth"] == "equal" else None
    if found != want:
        raise AssertionError(f"{pid}: planted answer {want} but plain push gives {found}")
    payload = {
        "group": G.table_json(),
        "delta_gens": sub,
        "ranks": ranks,
        "maps": [{"columns": cols} for cols in maps],
        "repeat_last": repeat,
        "p": {"level": l0, "value": p},
        "q": {"level": l0, "value": q},
    }
    return Problem(
        pid, "colimit-eq", {"tower.json": _doc("tower", payload)},
        flags=["--horizon", str(horizon)], expect=expect,
    )


def roadmap_colimit_anchor(pid: str) -> Problem:
    """S2 -> S1 over Z/2 with e1, e2 |-> b; p = e1, q = x.e2 differ at level 1.

    The colimit is the last level, so the true answer is "not equal"; the
    engine's kernel heuristic reports it as undecided.
    """
    G = A.cyclic(2)
    payload = {
        "group": G.table_json(),
        "delta_gens": [],
        "ranks": [2, 1],
        "maps": [{"columns": [[[1, 0]], [[1, 0]]]}],
        "p": {"level": 0, "value": [[1, 0], [0, 0]]},
        "q": {"level": 0, "value": [[0, 0], [0, 1]]},
    }
    return Problem(
        pid, "colimit-eq", {"tower.json": _doc("tower", payload)},
        flags=["--horizon", "10"], expect={"truth": "not_equal", "level": 1},
    )


def _kernels(rng, groups: Groups, per_kind: int | None) -> list[Problem]:
    n_shen = 192 if per_kind is None else per_kind
    n_col = 64 if per_kind is None else per_kind
    out = [
        _shen_problem(rng, groups, f"kernels/shen-{i:03d}", SHEN_CONFIGS[i % len(SHEN_CONFIGS)])
        for i in range(n_shen)
    ]
    for i in range(n_col):  # every config meets every pair kind; 4 towers in 7 repeat
        cfg = COLIMIT_CONFIGS[i % len(COLIMIT_CONFIGS)]
        horizon = HORIZONS[i % len(HORIZONS)]
        pair = PAIR_KINDS[i // len(COLIMIT_CONFIGS) % len(PAIR_KINDS)]
        repeat = i % 7 < 4
        out.append(_colimit_problem(rng, groups, f"kernels/colimit-{i:03d}", cfg, horizon, pair, repeat))
    out.append(roadmap_colimit_anchor("kernels/anchor-roadmap-colimit"))
    return out


# -- certify ---------------------------------------------------------------------

# (group, |D|, normal stabilizer required); orders 6..48
CERTIFY_SPACES = [
    ("D3", 1, True), ("C6", 2, False), ("D4", 2, True), ("Q8", 1, True),
    ("C2xC4", 2, False), ("A4", 4, True), ("D6", 2, False), ("D8", 4, True),
    ("C4xC4", 2, True), ("S4", 4, True), ("D12", 4, False), ("C2xA4", 4, True),
    ("C2xS4", 8, True), ("D24", 8, False), ("C4xC12", 4, True), ("D6", 3, False),
]
BITS = [2, 4, 8, 16, 32, 64]


class _Space:
    def __init__(self, groups: Groups, rng, cfg, normal: bool | None = None):
        name, dsize, needs_normal = cfg
        self.G = groups.get(name)
        if needs_normal or normal:
            self.sub = groups.normal_of_size(name, dsize)
        else:
            self.sub = groups.any_of_size(name, dsize, rng)
        self.C = A.Cosets(self.G, self.sub)


def _sdp_problem(rng, groups, pid, cfg, rank, bits) -> Problem:
    S = _Space(groups, rng, cfg)
    C, G = S.C, S.G
    hi = (1 << bits) - 1
    k = rng.randint(2, 3)
    xs = [_rand_nonneg(rng, rank, C.n, hi) for _ in range(k)]
    cs = [_rand_ring_elt(rng, G, rng.randint(1, 3), 0, 3) or {0: 1} for _ in range(k)]
    last = A.zero_vec(rank, C.n)
    for c, x in zip(cs, xs):
        last = A.vec_add(last, A.ring_act_vec(C, c, x))
    xs.append(last)
    coeffs = cs + [{0: -1}]
    order = list(range(len(xs)))
    rng.shuffle(order)
    payload = {
        "simplicial": _simplicial(G, S.sub, rank),
        "coeffs": [_ring_json(coeffs[i]) for i in order],
        "vectors": [xs[i] for i in order],
    }
    return Problem(pid, "sdp-witness", {"rel.json": _doc("relation", payload)}, expect={"exit": 0})


def _unperf_problem(rng, groups, pid, cfg, rank, bits) -> Problem:
    S = _Space(groups, rng, cfg)
    C, G = S.C, S.G
    a = {g: rng.randint(1, 3) for g in range(G.order)}
    lo_a, hi_a = min(a.values()), max(a.values())
    hi = (1 << bits) - 1
    x = []
    for _ in range(rank):
        top = rng.randrange(C.n)
        z = [0 if c == top else rng.randint(0, hi) for c in range(C.n)]
        if not any(z):
            z[(top + 1) % C.n] = 1
        y = [0] * C.n
        y[top] = -(-hi_a * sum(z) // lo_a) + rng.randint(0, hi)
        x.append([yc - zc for yc, zc in zip(y, z)])
    ax = A.ring_act_vec(C, a, x)
    if not A.is_nonneg(ax) or A.is_nonneg(x):
        raise AssertionError(f"{pid}: a*x must be positive while x is not")
    payload = {"simplicial": _simplicial(G, S.sub, rank), "a": _ring_json(a), "x": x}
    return Problem(pid, "unperf-witness", {"rel.json": _doc("relation", payload)}, expect={"exit": 0})


def perforated_pair(pid: str, m1: bool) -> Problem:
    """The paper's perforated pair over Z/2: a = 1 + x, u = (1 - x, 2 - x).

    a*u = (0, 1 + x) is positive and a two-term witness exists, but no single
    term b*y can produce one coordinate of mass 0 and one of mass 1.
    """
    payload = {
        "simplicial": _simplicial(A.cyclic(2), [], 2),
        "a": {"coeffs": {"0": 1, "1": 1}},
        "x": [[1, -1], [2, -1]],
    }
    if m1:
        return Problem(pid, "unperf-witness", {"rel.json": _doc("relation", payload)},
                       args=["--m1"], expect={"exit": 1})
    return Problem(pid, "unperf-witness", {"rel.json": _doc("relation", payload)}, expect={"exit": 0})


def planted_m1_anchor(pid: str) -> Problem:
    """x = (1 - x)(2 + x) = (1, -1) over Z/2 with a = 1 + x: a single term exists."""
    payload = {
        "simplicial": _simplicial(A.cyclic(2), [], 1),
        "a": {"coeffs": {"0": 1, "1": 1}},
        "x": [[1, -1]],
    }
    return Problem(pid, "unperf-witness", {"rel.json": _doc("relation", payload)},
                   args=["--m1"], expect={"exit": 0})


def _m1_problem(rng, groups, pid, i: int) -> Problem:
    """Single-term searches in small boxes over Z/2 and Z/3 (trivial stabilizer).

    With a = the sum of all group elements, a*x >= 0 exactly when every
    coordinate of x has nonnegative mass. A planted x = b*y with mass(b) >= 0
    has a witness; an x with one nonzero coordinate of mass 0 and one of
    positive mass has none, since mass(b*y) = mass(b) * mass(y). Even i
    plant a witness over Z/2; odd i alternate refutations over Z/2 and Z/3,
    each with a fixed largest entry, so the searched box has a fixed size.
    """
    planted = i % 2 == 0
    name = "C2" if planted or i % 4 == 1 else "C3"
    G = groups.get(name)
    C = A.Cosets(G, [0])
    a = {g: 1 for g in range(G.order)}
    if planted:
        rank = 1 + i // 2 % 2
        while True:
            b = {g: rng.randint(-1, 1) for g in range(G.order)}
            b = {g: k for g, k in b.items() if k}
            if not b or sum(b.values()) < 0:
                continue
            x = [A.ring_act(C, b, [rng.randint(0, 1) for _ in range(C.n)]) for _ in range(rank)]
            if any(A.flatten(x)) and max(abs(v) for v in A.flatten(x)) <= 2 and not A.is_nonneg(x):
                break
        expect = {"exit": 0}
    else:
        rank = 2
        top = 2 if name == "C2" else 1
        zero_mass = [top, -top] + [0] * (C.n - 2)
        rng.shuffle(zero_mass)
        while True:
            pos = [rng.randint(-1, top) for _ in range(C.n)]
            if sum(pos) > 0:
                break
        x = [zero_mass, pos]
        rng.shuffle(x)
        expect = {"exit": 1}
    payload = {"simplicial": _simplicial(G, [0], rank), "a": _ring_json(a), "x": x}
    return Problem(pid, "unperf-witness", {"rel.json": _doc("relation", payload)},
                   args=["--m1"], expect=expect)


def _ext_problem(rng, groups, pid, cfg, rank, bits) -> Problem:
    S = _Space(groups, rng, cfg, normal=True)
    C, G = S.C, S.G
    hi = (1 << bits) - 1
    unit = _rand_nonneg(rng, rank, C.n, 3)
    for row in unit:
        if not any(row):
            row[rng.randrange(C.n)] = 1
    k = rng.randint(2, 3)
    pairs = []
    for _ in range(k):
        t = [rng.randint(0, 3) for _ in range(C.n)]
        s = _rand_nonneg(rng, rank, C.n, hi)
        x = A.vec_sub(s, A.ring_act_vec(C, A.lift(C, t), unit))
        pairs.append((x, t))
    cs = [_rand_ring_elt(rng, G, rng.randint(1, 3), 0, 3) or {0: 1} for _ in range(k)]
    sx, st = A.zero_vec(rank, C.n), [0] * C.n
    for c, (x, t) in zip(cs, pairs):
        sx = A.vec_add(sx, A.ring_act_vec(C, c, x))
        st = [u + v for u, v in zip(st, A.ring_act(C, c, t))]
    pairs.append((sx, st))
    coeffs = cs + [{0: -1}]
    order = list(range(len(pairs)))
    rng.shuffle(order)
    payload = {
        "simplicial": _simplicial(G, S.sub, rank),
        "unit": unit,
        "coeffs": [_ring_json(coeffs[i]) for i in order],
        "pairs": [{"x": pairs[i][0], "t": pairs[i][1]} for i in order],
    }
    return Problem(pid, "ext-sdp-witness", {"ext.json": _doc("extension", payload)}, expect={"exit": 0})


def _unit_tower(rng, C: A.Cosets, ranks, mode: str, unit_hi: int, max_terms: int, extra_hi: int):
    """Positive maps and units with f(u_n) = u_{n+1} (unit) or <= u_{n+1} (interval).

    Column i of map n puts its first term in coordinate i mod rank_{n+1}, and
    coordinates beyond the source rank get a term from some column, so every
    target coordinate receives mass and the units stay order-units.
    """
    units = [_rand_nonneg(rng, ranks[0], C.n, unit_hi)]
    for row in units[0]:
        if not any(row):
            row[rng.randrange(C.n)] = 1
    maps = []
    for n in range(len(ranks) - 1):
        rt = ranks[n + 1]
        cols = []
        for i in range(ranks[n]):
            col = A.zero_vec(rt, C.n)
            col[i % rt][rng.randrange(C.n)] += 1
            for _ in range(rng.randint(0, max_terms - 1)):
                col[rng.randrange(rt)][rng.randrange(C.n)] += 1
            cols.append(col)
        for j in range(ranks[n], rt):
            cols[j % ranks[n]][j][rng.randrange(C.n)] += 1
        maps.append(cols)
        nxt = _apply(C, cols, units[n])
        if mode == "interval":
            nxt = A.vec_add(nxt, _rand_nonneg(rng, rt, C.n, extra_hi))
        units.append(nxt)
    return maps, units


def _extend_problem(rng, groups, pid, cfg, rank, bits) -> Problem:
    S = _Space(groups, rng, cfg, normal=True)
    C, G = S.C, S.G
    L = rng.randint(2, 4)
    ranks = [max(1, rank + rng.randint(-1, 0)) for _ in range(L)]
    maps, units = _unit_tower(rng, C, ranks, "interval", (1 << min(bits, 16)) - 1, 2, 3)
    payload = {
        "group": G.table_json(), "delta_gens": S.sub, "ranks": ranks,
        "maps": [{"columns": cols} for cols in maps], "units": units, "mode": "interval",
    }
    unit = {"x": A.zero_vec(ranks[0], C.n), "t": [1] + [0] * (C.n - 1)}
    return Problem(pid, "extend", {"tower.json": _doc("tower", payload)},
                   expect={"exit": 0, "levels": L, "unit": unit})


def _realize_tower_problem(rng, groups, pid, G, sub, ranks, mode, unit_hi, max_terms) -> Problem:
    C = A.Cosets(G, sub)
    maps, units = _unit_tower(rng, C, ranks, mode, unit_hi, max_terms, 2)
    payload = {
        "group": G.table_json(), "delta_gens": sub, "ranks": ranks,
        "maps": [{"columns": cols} for cols in maps], "units": units, "mode": mode,
    }
    return Problem(pid, "realize-tower", {"tower.json": _doc("tower", payload)},
                   expect={"exit": 0, "units": units, "unital": mode == "unit"})


def _check_simplicial_problem(rng, groups, pid, cfg, rank, bits) -> Problem:
    name = cfg[0]
    G = groups.get(name)
    gens = [rng.randrange(G.order) for _ in range(rng.randint(0, 2))]
    sub = A.closure(G, gens)
    C = A.Cosets(G, sub)
    payload = {"group": G.table_json(), "delta_gens": gens, "rank": rank}
    core = [g for g in range(G.order) if all(C.act[g][c] == c for c in range(C.n))]
    expect = {
        "exit": 0,
        "data": {
            "rank": rank, "order": G.order, "delta": sub, "normal": A.is_normal(G, sub),
            "cosets": C.n, "module_stabilizer": core,
        },
    }
    style = rng.randrange(3)  # 0: no unit, 1: an order-unit, 2: a unit with a zero coordinate
    if style:
        unit = _rand_nonneg(rng, rank, C.n, (1 << bits) - 1)
        if style == 2:
            unit[rng.randrange(rank)] = [0] * C.n
        else:
            for row in unit:
                if not any(row):
                    row[0] = 1
        payload["unit"] = unit
        expect["data"]["unit_is_order_unit"] = style == 1
    return Problem(pid, "check-simplicial", {"s.json": _doc("simplicial", payload)}, expect=expect)


def _certify(rng, groups: Groups, per_kind: int | None) -> list[Problem]:
    counts = {"sdp": 72, "unperf": 48, "m1": 18, "ext": 60, "extend": 48, "rtower": 48,
              "check": 60}
    if per_kind is not None:
        counts = {k: per_kind for k in counts}
    out: list[Problem] = []

    def cfg_rank_bits(i):
        return CERTIFY_SPACES[i % len(CERTIFY_SPACES)], 3 + i % 4, BITS[i % len(BITS)]

    for i in range(counts["sdp"]):
        out.append(_sdp_problem(rng, groups, f"certify/sdp-{i:03d}", *cfg_rank_bits(i)))
    for i in range(counts["unperf"]):
        out.append(_unperf_problem(rng, groups, f"certify/unperf-{i:03d}", *cfg_rank_bits(i)))
    for i in range(counts["m1"]):
        out.append(_m1_problem(rng, groups, f"certify/m1-{i:03d}", i))
    for i in range(counts["ext"]):
        out.append(_ext_problem(rng, groups, f"certify/ext-sdp-{i:03d}", *cfg_rank_bits(i)))
    for i in range(counts["extend"]):
        out.append(_extend_problem(rng, groups, f"certify/extend-{i:03d}", *cfg_rank_bits(i)))
    for i in range(counts["rtower"]):
        cfg, rank, _ = cfg_rank_bits(i)
        S = _Space(groups, rng, cfg, normal=True)
        L = rng.randint(2, 3)
        ranks = [max(1, rank - n) for n in range(L)]
        mode = "unit" if i % 2 == 0 else "interval"
        out.append(_realize_tower_problem(
            rng, groups, f"certify/realize-tower-{i:03d}", S.G, S.sub, ranks, mode, 2, 2))
    for i in range(counts["check"]):
        out.append(_check_simplicial_problem(rng, groups, f"certify/check-{i:03d}", *cfg_rank_bits(i)))
    out.append(perforated_pair("certify/anchor-perforated-m1", m1=True))
    out.append(perforated_pair("certify/anchor-perforated-witness", m1=False))
    out.append(planted_m1_anchor("certify/anchor-planted-m1"))
    return out


# -- classdata -------------------------------------------------------------------

CLASS_GROUPS = [("C2", 1), ("C4", 2), ("D3", 2), ("C6", 3), ("D4", 2), ("Q8", 4),
                ("A4", 3), ("C12", 2), ("D6", 2), ("S4", 4), ("C8", 1), ("C2xC4", 2)]


def log_sizes(count: int, lo: int = 100, hi: int = 3000) -> list[int]:
    """``count`` sizes spread evenly on a log scale from lo to hi."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def _split_mass(rng, mass: int, n: int) -> list[int]:
    """A coset vector of total ``mass`` spread over a few random cosets."""
    row = [0] * n
    parts = rng.randint(1, min(3, n))
    cosets = rng.sample(range(n), parts)
    cuts = sorted(rng.randint(0, mass) for _ in range(parts - 1))
    bounds = [0] + cuts + [mass]
    for c, lo, hi in zip(cosets, bounds, bounds[1:]):
        row[c] += hi - lo
    if not any(row):
        row[cosets[0]] = mass
    return row


def _class_space(rng, groups, i):
    name, dsize = CLASS_GROUPS[i % len(CLASS_GROUPS)]
    G = groups.get(name)
    return G, groups.any_of_size(name, dsize, rng)


def _realize_problem(rng, groups, pid, i, sizes) -> Problem:
    G, sub = _class_space(rng, groups, i)
    C = A.Cosets(G, sub)
    rank = 1 + i % 2
    unit = [_split_mass(rng, sizes[(i + 7 * k) % len(sizes)], C.n) for k in range(rank)]
    payload = _simplicial(G, sub, rank)
    args: list[str] = []
    if i % 3 == 0:
        args = ["--unit", json.dumps(unit)]
    else:
        payload["unit"] = unit
    return Problem(pid, "realize", {"s.json": _doc("simplicial", payload)}, args=args,
                   expect={"exit": 0, "unit": unit})


def _ring(rng, G, sub, sizes_for_ring) -> list[dict]:
    return [
        {"size": p, "shifts": [rng.randrange(G.order) for _ in range(p)]}
        for p in sizes_for_ring
    ]


def _k0_problem(rng, groups, pid, i, sizes) -> Problem:
    G, sub = _class_space(rng, groups, i)
    C = A.Cosets(G, sub)
    ncomp = 1 + i % 2
    # the second component comes from the lower half of the size scale
    comps = _ring(rng, G, sub, [sizes[i]] + [sizes[(i + 11) % len(sizes) // 2]] * (ncomp - 1))
    unit_class, homog = [], 0
    for comp in comps:
        row = [0] * C.n
        for s in comp["shifts"]:
            row[C.of[G.inv[s]]] += 1
        unit_class.append(row)
        homog += sum(m * m for m in row)  # g_k g_l^-1 in D iff D g_k = D g_l
    payload = {"group": G.table_json(), "delta_gens": sub, "components": comps}
    expect = {"exit": 0, "data": {"rank": ncomp, "delta": sub, "unit_class": unit_class,
                                  "homog_dim_identity": homog}}
    return Problem(pid, "k0", {"ring.json": _doc("ring", payload)}, expect=expect)


def _graded_iso_problem(rng, groups, pid, i, sizes) -> Problem:
    G, sub = _class_space(rng, groups, i)
    C = A.Cosets(G, sub)
    ncomp = 1 + i % 3
    comps = _ring(rng, G, sub, [sizes[(i + 5 * k) % len(sizes)] for k in range(ncomp)])
    other = []
    for comp in comps:  # same sizes and right cosets D*s: a graded isomorphism
        shifts = [G.mul[rng.choice(sub)][s] for s in comp["shifts"]]
        rng.shuffle(shifts)
        other.append({"size": comp["size"], "shifts": shifts})
    rng.shuffle(other)
    iso = i % 2 == 0 or C.n == 1
    if not iso:  # move one slot into a different right coset
        comp = rng.choice(other)
        k = rng.randrange(comp["size"])
        s = comp["shifts"][k]
        comp["shifts"][k] = next(g for g in range(G.order) if C.of[G.inv[g]] != C.of[G.inv[s]])
    files = {
        "a.json": _doc("ring", {"group": G.table_json(), "delta_gens": sub, "components": comps}),
        "b.json": _doc("ring", {"group": G.table_json(), "delta_gens": sub, "components": other}),
    }
    return Problem(pid, "graded-iso", files, expect={"exit": 0 if iso else 1, "isomorphic": iso})


def _classdata(rng, groups: Groups, per_kind: int | None) -> list[Problem]:
    counts = {"realize": 36, "k0": 24, "iso": 24, "rtower": 24}
    if per_kind is not None:
        counts = {k: per_kind for k in counts}
    out: list[Problem] = []
    for kind, n in counts.items():
        sizes = log_sizes(n)
        for i in range(n):
            pid = f"classdata/{kind}-{i:03d}"
            if kind == "realize":
                out.append(_realize_problem(rng, groups, pid, i, sizes))
            elif kind == "k0":
                out.append(_k0_problem(rng, groups, pid, i, sizes))
            elif kind == "iso":
                out.append(_graded_iso_problem(rng, groups, pid, i, sizes))
            else:
                name, dsize = CLASS_GROUPS[i % len(CLASS_GROUPS)]
                G = groups.get(name)
                sub = groups.normal_at_least(name, dsize)
                C = A.Cosets(G, sub)
                rank = 1 + i % 2
                u0 = [_split_mass(rng, sizes[(i + 3 * k) % len(sizes)], C.n) for k in range(rank)]
                out.append(_realize_tower_from_unit(rng, pid, G, sub, C, u0))
    return out


def _realize_tower_from_unit(rng, pid, G, sub, C, u0) -> Problem:
    """Unit-mode tower whose maps send each basis vector to one basis translate.

    Such maps preserve total mass, so the component sizes stay on the
    workload's scale at every level.
    """
    ranks = [len(u0)]
    L = rng.randint(2, 3)
    for _ in range(L - 1):
        ranks.append(max(1, ranks[-1] - rng.randint(0, 1)))
    units = [u0]
    maps = []
    for n in range(L - 1):
        rt = ranks[n + 1]
        cols = []
        for i in range(ranks[n]):
            col = A.zero_vec(rt, C.n)
            col[i % rt][rng.randrange(C.n)] = 1
            cols.append(col)
        maps.append(cols)
        units.append(_apply(C, cols, units[n]))
    payload = {
        "group": G.table_json(), "delta_gens": sub, "ranks": ranks,
        "maps": [{"columns": cols} for cols in maps], "units": units, "mode": "unit",
    }
    return Problem(pid, "realize-tower", {"tower.json": _doc("tower", payload)},
                   expect={"exit": 0, "units": units, "unital": True})


def generate(workload: str, seed: int, per_kind: int | None = None) -> list[Problem]:
    """The workload's corpus for this seed, in a seeded interleaved order.

    ``per_kind`` caps every problem kind at that many generated problems
    (anchors are always included); it exists for smoke tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    groups = Groups()
    problems = {"kernels": _kernels, "certify": _certify, "classdata": _classdata}[workload](
        rng, groups, per_kind)
    rng.shuffle(problems)
    return problems
