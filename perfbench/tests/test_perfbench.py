"""Tests of the benchmark itself: corpus determinism, oracle, metric names, smoke runs."""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import algebra as A  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- corpus -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = corpus.corpus_bytes(corpus.generate(workload, 7, per_kind=3))
    again = corpus.corpus_bytes(corpus.generate(workload, 7, per_kind=3))
    other = corpus.corpus_bytes(corpus.generate(workload, 8, per_kind=3))
    assert first == again
    assert first != other


def test_full_corpora_have_at_least_100_problems():
    for workload in corpus.WORKLOADS:
        assert len(corpus.generate(workload, 1)) >= 100


def test_log_sizes_span_the_classdata_scale():
    sizes = corpus.log_sizes(6)
    assert sizes[0] == 100 and sizes[-1] == 3000
    assert all(b / a == pytest.approx(sizes[1] / sizes[0], rel=0.02) for a, b in zip(sizes, sizes[1:]))


# -- plain-integer algebra --------------------------------------------------------------


def _rank_fraction(m):
    rows = [[Fraction(x) for x in r] for r in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_bareiss_rank_matches_rational_elimination():
    rng = random.Random(5)
    for _ in range(200):
        h, w = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(w)] for _ in range(h)]
        if rng.random() < 0.3:
            m.append([a + b for a, b in zip(m[0], m[-1])])
        assert A.rank_q(m) == _rank_fraction(m)


def test_cosets_follow_the_engine_convention():
    from gammak0 import coset_space, dihedral_group, subgroup_closure

    G = A.dihedral(3)
    C = A.Cosets(G, A.closure(G, [3]))
    space = coset_space(dihedral_group(3), subgroup_closure(dihedral_group(3), [3]))
    assert C.reps == list(space.reps) and C.of == list(space.elt_to_coset)


def test_homog_dim_closed_form_matches_pair_count():
    G = A.dihedral(3)
    sub = A.closure(G, [3])
    C = A.Cosets(G, sub)
    rng = random.Random(1)
    shifts = [rng.randrange(6) for _ in range(40)]
    pairs = sum(1 for gk in shifts for gl in shifts if G.mul[gk][G.inv[gl]] in sub)
    row = [0] * C.n
    for s in shifts:
        row[C.of[G.inv[s]]] += 1
    assert pairs == sum(m * m for m in row)


# -- oracle on hand-checked cases ----------------------------------------------------------


def test_perforated_pair_refutation_and_witness():
    m1 = corpus.perforated_pair("t/m1", m1=True)
    assert oracle.check(m1, 1, json.dumps({"m1_witness": None}), None) == oracle.Outcome(True, True)
    assert not oracle.check(m1, 0, json.dumps({"m1_witness": None}), None).ok
    plain = corpus.perforated_pair("t/plain", m1=False)
    # x = (1 - x) e1 + (2 - x) e2 with targets the basis: b = lifts of the coordinates
    cert = {"m": 2, "b": [{"coeffs": {"0": 1, "1": -1}}, {"coeffs": {"0": 2, "1": -1}}],
            "y": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    text = json.dumps(cert)
    assert oracle.check(plain, 0, text, text).ok
    bad = dict(cert, y=[[[1, 0], [0, 0]], [[0, 0], [2, 0]]])
    assert not oracle.check(plain, 0, json.dumps(bad), json.dumps(bad)).ok


def test_planted_single_term_witness():
    problem = corpus.planted_m1_anchor("t/planted")
    w = {"m": 1, "b": [{"coeffs": {"0": 1, "1": -1}}], "y": [[[2, 1]]]}
    assert oracle.check(problem, 0, json.dumps({"m1_witness": w}), json.dumps(w)).ok
    w_bad = {"m": 1, "b": [{"coeffs": {"0": 1, "1": -1}}], "y": [[[1, 1]]]}
    assert not oracle.check(problem, 0, json.dumps({"m1_witness": w_bad}), json.dumps(w_bad)).ok


def test_colimit_anchor_unknown_is_undecided_not_wrong():
    problem = corpus.roadmap_colimit_anchor("t/anchor")
    unknown = json.dumps({"kind": "unknown", "level": 1, "reason": "undecided_at_horizon"})
    assert oracle.check(problem, 2, unknown, unknown) == oracle.Outcome(True, False)
    negative = json.dumps({"kind": "not_equal_up_to", "level": 1, "reason": ""})
    assert oracle.check(problem, 1, negative, negative) == oracle.Outcome(True, True)
    equal = json.dumps({"kind": "equal", "level": 1, "reason": ""})
    assert not oracle.check(problem, 0, equal, equal).ok


def test_shen_oracle_checks_product_and_kernel():
    z2 = A.cyclic(2)
    s = {"group": z2.table_json(), "delta_gens": [], "rank": 2}
    t = {"group": z2.table_json(), "delta_gens": [], "rank": 1}
    cols = [[[1, 0]], [[1, 0]]]  # e1, e2 -> b: a rank-2 kernel in dimension 4
    C = A.Cosets(z2, [0])
    problem = corpus.Problem("t/shen", "shen", {"hom.json": {"kind": "hom", "payload": {
        "source": s, "target": t, "columns": cols}}},
        expect={"exit": 0, "image_rank": A.rank_q(A.map_matrix(C, cols, 1)), "source_dim": 4})
    good = {"middle_rank": 1, "g12": {"columns": cols}, "g2": {"columns": [[[1, 0]]]}}
    assert oracle.check(problem, 0, json.dumps(good), json.dumps(good)).ok
    # identity then g1 also composes to g1, but ker g12 = 0 differs from ker g1
    ident = {"middle_rank": 2, "g12": {"columns": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
             "g2": {"columns": cols}}
    assert oracle.check(problem, 0, json.dumps(ident), json.dumps(ident)).reason.startswith("kernel")


# -- metric names and BENCHMARK.json -------------------------------------------------------


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    for layer in LAYERS:
        assert f"{layer}.self_s" in run.PER_LAYER


# -- tracing --------------------------------------------------------------------------------


def test_tracer_restores_the_engine_and_nests_spans(tmp_path):
    from gammak0 import cli, gamma_maps, intlinalg, limits

    originals = (limits.kernel_lattice, gamma_maps.kernel_lattice, intlinalg.hnf, cli.main)
    problem = corpus.roadmap_colimit_anchor("t/anchor")
    paths = run._write_corpus([problem], tmp_path / "p")
    runner = run.Runner([problem], paths, tmp_path / "cert.json")
    tracer = Tracer()
    tracer.install()
    try:
        assert limits.kernel_lattice is gamma_maps.kernel_lattice is not originals[0]
        assert runner.run_one(0)[1]
    finally:
        tracer.uninstall()
    assert (limits.kernel_lattice, gamma_maps.kernel_lattice, intlinalg.hnf, cli.main) == originals
    metrics = tracer.layer_metrics()
    main_id = tracer.names.index("cli.main")
    assert list(tracer.span_name).count(main_id) == 1 and metrics["intlinalg.calls"] >= 2
    assert metrics["limits.unknown"] == 1
    assert sum(metrics[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    selfs = tracer.self_times()
    root = list(tracer.span_parent).index(-1)
    assert sum(selfs) == pytest.approx(tracer.span_end[root] - tracer.span_start[root])


# -- runs -----------------------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--per-kind", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_planted_wrong_answer_counts_as_error(tmp_path):
    problems = corpus.generate("classdata", 4, per_kind=1)
    wrong = next(p for p in problems if p.cmd == "graded-iso")
    wrong.expect = dict(wrong.expect, isomorphic=not wrong.expect["isomorphic"],
                        exit=1 - wrong.expect["exit"])
    paths = run._write_corpus(problems, tmp_path / "p")
    runner = run.Runner(problems, paths, tmp_path / "cert.json")
    result = run.run_passes(runner, 0)
    metrics = run.end_to_end(result, 0.1)
    assert result["failed"] == 1
    assert metrics["ok_ratio"] == pytest.approx(1 - 1 / len(problems))
    assert list(runner.failures) == [wrong.pid]


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
