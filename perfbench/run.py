"""Seeded benchmark of the gamma-k0 engine: certified problems per second.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 35 --trace 0

One client drives ``gammak0.cli.main`` in this process as a closed loop:
each problem runs as ``gamma-k0 --json --cert PATH ...`` and the next starts
when it returns. Every output is checked against the answer known by
construction (see ``oracle.py``). With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
traced pass, the scaling ladders and the microbenchmarks. The last line of
standard output is one JSON object; the exit code is 1 when any output check
failed and 2 when the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402

SETUP_REPEATS = 7
PROBLEM_BUDGET_S = 10.0
# name -> (unit, which direction is better); BENCHMARK.json lists the same
END_TO_END = {
    "problems_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "decided_ratio": ("ratio", "higher"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    from tracing import LAYERS

    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.share"] = ("ratio", "lower")
        out[f"{layer}.errors"] = ("count", "lower")
    out.update({
        "intlinalg.out_bits_max": ("bits", "lower"),
        "intlinalg.max_cols": ("count", "lower"),
        "intlinalg.ladder_max_n": ("rows", "higher"),
        "gamma_maps.map_apply_us.d18": ("us", "lower"),
        "gamma_maps.map_apply_us.d32": ("us", "lower"),
        "gamma_maps.map_apply_us.d64": ("us", "lower"),
        "ordered_simplicial.add_us.d18": ("us", "lower"),
        "limits.levels_pushed": ("count", "lower"),
        "limits.unknown": ("count", "lower"),
        "graded_matricial.slots": ("count", "lower"),
        "graded_matricial.ladder_max_mass": ("mass", "higher"),
        "graded_matricial.homog_dim_s.m1000": ("s", "lower"),
        "hom_realization.copies": ("count", "lower"),
        "hom_realization.realize_s.m1000000": ("s", "lower"),
        "serialize.bytes_out": ("bytes", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    return out


PER_LAYER = _per_layer()


class BudgetExceeded(BaseException):
    """Raised inside a problem that ran past its budget.

    A BaseException, so no handler inside the engine can swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _import_seconds() -> float:
    """Import time of gammak0 in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import gammak0.cli; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def _write_corpus(problems, base: Path) -> list[dict[str, Path]]:
    """Write every problem file into ``base``, overwriting earlier copies."""
    base.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, problem in enumerate(problems):
        files = {}
        for name, doc in problem.files.items():
            files[name] = base / f"{idx:04d}-{name}"
            files[name].write_text(json.dumps(doc), encoding="utf-8")
        paths.append(files)
    return paths


def setup(workload: str, seed: int, base: Path, repeats: int, per_kind: int | None):
    """Fresh-interpreter import plus corpus generation, ``repeats`` times.

    Returns the corpus, its file paths and the median set-up time.
    """
    times = []
    for _ in range(repeats):
        t_import = _import_seconds()
        t0 = time.perf_counter()
        problems = corpus.generate(workload, seed, per_kind)
        paths = _write_corpus(problems, base)
        times.append(t_import + time.perf_counter() - t0)
    return problems, paths, statistics.median(times)


class Runner:
    """Runs problems through ``gammak0.cli.main`` and checks each output."""

    def __init__(self, problems, paths, cert_path: Path):
        from gammak0 import cli

        self.cli = cli
        self.problems = problems
        self.paths = paths
        self.cert_path = cert_path
        self.verified: dict[int, tuple] = {}  # index -> output already checked
        self.failures: dict[str, str] = {}

    def argv(self, idx: int) -> list[str]:
        p = self.problems[idx]
        files = [str(path) for path in self.paths[idx].values()]
        return ["--json", "--cert", str(self.cert_path), *p.flags, p.cmd, *files, *p.args]

    def run_one(self, idx: int) -> tuple[float, bool, bool]:
        """Time one problem; returns (seconds, ok, decided)."""
        argv = self.argv(idx)
        self.cert_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        error = None
        signal.setitimer(signal.ITIMER_REAL, PROBLEM_BUDGET_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except BudgetExceeded:
            error = f"exceeded the {PROBLEM_BUDGET_S:g} s budget"
        except Exception as exc:  # an engine crash is a counted failure, not a benchmark crash
            error = f"raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is None:
            cert = self.cert_path.read_text(encoding="utf-8") if self.cert_path.exists() else None
            key = (code, out.getvalue(), cert)
            if self.verified.get(idx) == key:
                return elapsed, True, code in (0, 1)
            outcome = oracle.check(self.problems[idx], code, out.getvalue(), cert)
            if outcome.ok:
                self.verified[idx] = key
                return elapsed, True, outcome.decided
            error = " ".join([outcome.reason, err.getvalue().strip()]).strip()
        self.failures.setdefault(self.problems[idx].pid, error)
        return elapsed, False, False


def run_passes(runner: Runner, seconds: float) -> dict:
    """Closed loop over the corpus until ``seconds`` pass, at least one full pass."""
    n = len(runner.problems)
    samples: list[list[float]] = [[] for _ in range(n)]
    attempted = failed = decided = 0
    start = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - start < seconds:
        idx = i % n
        elapsed, ok, dec = runner.run_one(idx)
        samples[idx].append(elapsed)
        attempted += 1
        failed += not ok
        decided += dec
        i += 1
    return {"samples": samples, "attempted": attempted, "failed": failed, "decided": decided,
            "wall_s": time.perf_counter() - start}


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    per_problem = [statistics.median(s) for s in result["samples"]]
    deciles = statistics.quantiles(per_problem, n=10)
    attempted = result["attempted"]
    return {
        "problems_per_s": len(per_problem) / sum(per_problem),
        "latency_p50_ms": 1000 * statistics.median(per_problem),
        "latency_p90_ms": 1000 * deciles[8],
        "decided_ratio": result["decided"] / attempted,
        "ok_ratio": 1 - result["failed"] / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_run(runner: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced and one traced pass, then microbenchmarks and ladders."""
    import probes
    from tracing import Tracer

    untraced = run_passes(runner, 0)
    cost = Tracer.calibrate()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(runner, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(cost)
    metrics["trace.overhead_ratio"] = (
        sum(map(sum, traced["samples"])) / sum(map(sum, untraced["samples"]))
    )
    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"spans-{workload}-{seed}.jsonl")
    print(f"spans: {len(tracer.span_name)}; wrapper cost {1e6 * cost[0]:.2f} us inside a span, "
          f"{1e6 * cost[1]:.2f} us in its parent")
    metrics.update(probes.microbenchmarks(seed))
    metrics.update(probes.ladders(seed, SRC))
    totals = {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
    }
    return metrics, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--per-kind", type=int, default=None,
                        help="cap each problem kind at this many problems (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "gammak0" / "cli.py").is_file():
        sys.stderr.write(f"error: engine sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        problems, paths, setup_s = setup(args.workload, args.seed, work / "problems", repeats,
                                         args.per_kind)
        runner = Runner(problems, paths, work / "cert.json")
        if args.trace:
            metrics, totals = traced_run(runner, args.workload, args.seed)
            table = PER_LAYER
        else:
            result = run_passes(runner, args.seconds)
            metrics = end_to_end(result, setup_s)
            totals = {"attempted": result["attempted"], "failed": result["failed"]}
            table = END_TO_END
            print(f"problems: {len(problems)} per pass, {result['attempted']} timed calls "
                  f"in {result['wall_s']:.1f} s")
            print(f"error_ratio: {result['failed'] / result['attempted']:.6f} ratio")
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(table):
        raise AssertionError(f"metrics differ from the table: {sorted(set(metrics) ^ set(table))}")
    for pid, reason in sorted(runner.failures.items()):
        print(f"FAILED {pid}: {reason}")
    report = {}
    for name, (unit, _) in table.items():
        report[name] = {"value": metrics[name], "unit": unit}
        print(f"{name}: {metrics[name]} {unit}")
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": report,
    }))
    return 0 if totals["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
