"""Independent checks of ``gamma-k0`` outputs against the answers known by construction.

``check`` returns an ``Outcome``: whether the output is correct, whether the
answer was definitive (exit 0 or 1), and a reason when it is wrong. The
certificate checks recompute everything with ``algebra``'s plain integers:
the decomposition sums of witnesses, ``g2 * g12 = g1`` and the kernel rank
of a Shen factorization, the unit classes recomputed from ring shifts, and
the slot matching of block-embedding certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import algebra as A
from corpus import Problem


@dataclass(frozen=True)
class Outcome:
    ok: bool
    decided: bool
    reason: str = ""


class Mismatch(Exception):
    """The output disagrees with the expected answer."""


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def _space(payload: dict) -> tuple[A.Group, A.Cosets]:
    G = A.Group("input", payload["group"]["mul"])
    return G, A.Cosets(G, A.closure(G, payload["delta_gens"]))


def _ring(data: dict) -> dict[int, int]:
    return {int(g): k for g, k in data["coeffs"].items()}


# -- witnesses ---------------------------------------------------------------------


def _add(u, v):
    """Entrywise sum of equally nested lists of ints."""
    return [_add(a, b) for a, b in zip(u, v)] if isinstance(u, list) else u + v


def _check_decomposition(n_rows, m, b, y, targets, in_cone, act) -> None:
    _need(len(b) == n_rows and len(y) == m, "witness shape")
    for row in b:
        _need(len(row) == m, "witness shape")
        for entry in row:
            _need(all(k >= 0 for k in entry.values()), "witness coefficient not positive")
    for yj in y:
        _need(in_cone(yj), "witness target outside the cone")
    for i, target in enumerate(targets):
        total = None
        for j in range(m):
            term = act(b[i][j], y[j])
            total = term if total is None else _add(total, term)
        _need(total == target, f"decomposition sum of row {i} differs")


def _check_column_sums(G, C, a, b, m) -> None:
    for j in range(m):
        col: dict[int, int] = {}
        for ai, row in zip(a, b):
            for g, k in A.ring_mul(G, ai, row[j]).items():
                col[g] = col.get(g, 0) + k
        _need(not any(A.project(C, col)), f"projected column sum {j} nonzero")


def _sdp(problem: Problem, cert: dict) -> None:
    payload = problem.files["rel.json"]["payload"]
    G, C = _space(payload["simplicial"])
    a = [_ring(c) for c in payload["coeffs"]]
    xs = payload["vectors"]
    m = cert["m"]
    b = [[_ring(e) for e in row] for row in cert["b"]]

    def act(r, v):
        return [A.ring_act_vec(C, r, v)]

    _check_decomposition(len(xs), m, b, cert["y"], [[x] for x in xs], A.is_nonneg, act)
    _check_column_sums(G, C, a, b, m)


def _unperf(problem: Problem, cert: dict) -> None:
    payload = problem.files["rel.json"]["payload"]
    G, C = _space(payload["simplicial"])
    a = _ring(payload["a"])
    m = cert["m"]
    b = [_ring(e) for e in cert["b"]]
    _need(len(b) == m and len(cert["y"]) == m, "witness shape")
    total = A.zero_vec(len(payload["x"]), C.n)
    for bj, yj in zip(b, cert["y"]):
        _need(A.is_nonneg(yj), "witness target outside the cone")
        total = A.vec_add(total, A.ring_act_vec(C, bj, yj))
    _need(total == payload["x"], "decomposition sum differs from x")
    for j, bj in enumerate(b):
        _need(min(A.project(C, A.ring_mul(G, a, bj)), default=0) >= 0,
              f"projected product a*b_{j} not positive")


def _ext_sdp(problem: Problem, cert: dict) -> None:
    payload = problem.files["ext.json"]["payload"]
    G, C = _space(payload["simplicial"])
    unit = payload["unit"]
    a = [_ring(c) for c in payload["coeffs"]]
    pairs = payload["pairs"]
    m = cert["m"]
    b = [[_ring(e) for e in row] for row in cert["b"]]

    def in_cone(e):
        if min(e["t"]) < 0:
            return False
        shifted = A.vec_add(e["x"], A.ring_act_vec(C, A.lift(C, e["t"]), unit))
        return A.is_nonneg(shifted)

    def act(r, e):
        return [A.ring_act_vec(C, r, e["x"]), A.ring_act(C, r, e["t"])]

    targets = [[p["x"], p["t"]] for p in pairs]
    _check_decomposition(len(pairs), m, b, cert["y"], targets, in_cone, act)
    _check_column_sums(G, C, a, b, m)


# -- Shen factorization --------------------------------------------------------------


def _shen(problem: Problem, cert: dict) -> None:
    payload = problem.files["hom.json"]["payload"]
    G, C = _space(payload["source"])
    rs = payload["source"]["rank"]
    rt = payload["target"]["rank"]
    mid = cert["middle_rank"]
    g12 = cert["g12"]["columns"]
    g2 = cert["g2"]["columns"]
    _need(len(g12) == rs and len(g2) == mid, "factor shapes")
    for col in g12 + g2:
        _need(A.is_nonneg(col), "factor not positive")
    m1 = A.map_matrix(C, payload["columns"], rt)
    m12 = A.map_matrix(C, g12, mid)
    m2 = A.map_matrix(C, g2, rt)
    _need(A.mat_mul(m2, m12) == m1, "g2 * g12 != g1")
    # ker g12 is inside ker g1; both are saturated lattices, so they are equal
    # exactly when the ranks agree.
    _need(A.rank_q(m12) == problem.expect["image_rank"], "kernel of g12 differs from ker g1")


# -- ring data -------------------------------------------------------------------------


def _unit_class(G, C, comp: dict) -> list[int]:
    row = [0] * C.n
    for s in comp["shifts"]:
        row[C.of[G.inv[s]]] += 1
    return row


def _check_ring(G, C, ring: dict, unit) -> None:
    _need(ring["delta_gens"] == C.sub, "ring stabilizer differs")
    comps = ring["components"]
    _need(len(comps) == len(unit), "one component per coordinate")
    for comp, row in zip(comps, unit):
        _need(comp["size"] == len(comp["shifts"]) == sum(row), "component size differs from mass")
        _need(_unit_class(G, C, comp) == row, "unit class recomputed from shifts differs")


def _check_spec(G, C, spec: dict, src: dict, tgt: dict, columns, unital: bool) -> None:
    _need(spec["matrix"]["columns"] == columns, "spec matrix differs from the tower map")
    _need(spec["unital"] == unital, "spec unital flag")
    used: dict[int, set[int]] = {}
    demanded: dict[tuple[int, int], list[int]] = {}
    for copy in spec["certificate"]:
        i, j = copy["source_component"], copy["target_component"]
        shifts = src["components"][i]["shifts"]
        slot_map = copy["slot_map"]
        _need(len(slot_map) == len(shifts), "copy size")
        taken = used.setdefault(j, set())
        rep = C.reps[copy["twist_coset"]]
        target_shifts = tgt["components"][j]["shifts"]
        for gk, slot in zip(shifts, slot_map):
            _need(slot not in taken, "slot used twice")
            taken.add(slot)
            slot_class = C.of[G.inv[target_shifts[slot]]]
            _need(slot_class == C.of[G.mul[G.inv[gk]][rep]], "slot class mismatch")
        demanded.setdefault((i, j), []).append(copy["twist_coset"])
    for i, col in enumerate(columns):
        for j, row in enumerate(col):
            want = [c for c, mult in enumerate(row) for _ in range(mult)]
            _need(sorted(demanded.get((i, j), [])) == want, "copies differ from the matrix")
    if unital:
        for j, comp in enumerate(tgt["components"]):
            _need(len(used.get(j, ())) == comp["size"], "unital spec leaves slots free")


def _realize_tower(problem: Problem, cert: dict) -> None:
    payload = problem.files["tower.json"]["payload"]
    G, C = _space(payload)
    units = problem.expect["units"]
    rings, specs = cert["rings"], cert["specs"]
    _need(len(rings) == len(units) and len(specs) == len(units) - 1, "tower length")
    for ring, unit in zip(rings, units):
        _check_ring(G, C, ring, unit)
    for n, spec in enumerate(specs):
        _check_spec(G, C, spec, rings[n], rings[n + 1], payload["maps"][n]["columns"],
                    problem.expect["unital"])


def _realize(problem: Problem, cert: dict) -> None:
    G, C = _space(problem.files["s.json"]["payload"])
    _check_ring(G, C, cert, problem.expect["unit"])


# -- dispatch ---------------------------------------------------------------------------


def _colimit(problem: Problem, code: int, report: dict) -> bool:
    exp = problem.expect
    if exp["truth"] == "equal":
        _need(code == 0 and report["kind"] == "equal", "planted-equal pair not found equal")
        _need(report["level"] == exp["level"], "equality found at the wrong level")
        return True
    _need(code != 0 and report["kind"] != "equal", "unequal pair reported equal")
    _need(report["level"] == exp["level"], "undecided at the wrong level")
    if code == 1:
        _need(report["kind"] == "not_equal_up_to", "exit 1 without a negative answer")
        return True
    _need(code == 2 and report["kind"] == "unknown", "unexpected exit code")
    return False


def check(problem: Problem, code: int, stdout: str, cert_text: str | None) -> Outcome:
    """Compare one run of ``gamma-k0 --json --cert PATH ...`` with the expected answer."""
    try:
        _need(bool(stdout), f"exit code {code} without a report")
        report = json.loads(stdout)
        cert = json.loads(cert_text) if cert_text is not None else None
        decided = code in (0, 1)
        if problem.cmd == "colimit-eq":
            decided = _colimit(problem, code, report)
            _need(cert == report, "certificate differs from the report")
            return Outcome(True, decided)
        _need(code == problem.expect["exit"], f"exit code {code}, expected {problem.expect['exit']}")
        if problem.cmd == "unperf-witness" and problem.args == ["--m1"]:
            if code == 1:
                _need(report == {"m1_witness": None} and cert is None, "refutation report")
                return Outcome(True, True)
            _need(report == {"m1_witness": cert} and cert["m"] == 1, "single-term report")
        else:
            _need(cert == report, "certificate differs from the report")
        if problem.cmd == "graded-iso":
            _need(cert == {"isomorphic": problem.expect["isomorphic"]}, "graded-iso verdict")
        elif problem.cmd in ("check-simplicial", "k0"):
            _need(cert == problem.expect["data"], f"{problem.cmd} report differs")
        elif problem.cmd == "extend":
            _need(cert == {"levels": problem.expect["levels"], "unit": problem.expect["unit"],
                           "squares_verified": True}, "extend report differs")
        else:
            {
                "sdp-witness": _sdp,
                "unperf-witness": _unperf,
                "ext-sdp-witness": _ext_sdp,
                "shen": _shen,
                "realize": _realize,
                "realize-tower": _realize_tower,
            }[problem.cmd](problem, cert)
        return Outcome(True, decided)
    except Mismatch as exc:
        return Outcome(False, False, str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(False, False, f"malformed output: {exc!r}")
