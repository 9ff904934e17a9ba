"""Byte-for-byte output contract on the frozen golden problems.

``tests/golden/problems.jsonl.gz`` holds the problems of the contract, one
JSON object a line with ``workload``, ``pid``, ``cmd``, ``flags``, ``args``
and ``files`` (file name -> problem document).  They were frozen from the
seed-1 benchmark corpora, and the benchmark's generator may now change
without moving them.  ``tests/golden/digests.json`` holds one SHA-256 per
problem, run once with ``--json`` and once without.  Each digest covers the
exit code, stdout, stderr and the ``--cert`` bytes of one in-process
``gammak0.cli.main`` call.  A refactor must reproduce every one of them; a
change that means to alter output regenerates the digests on purpose and
names the problems that moved.

To change the contract itself, edit the problems file (gzip it with
``mtime=0`` so that the same lines give the same bytes), run ``--write``,
and name the problems that moved.

Run as a script to check the digests under any interpreter (no pytest
needed), or with ``--write`` to regenerate them from the frozen problems:

    PYTHONPATH=src python tests/test_golden.py [--write]
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
PROBLEMS = GOLDEN / "problems.jsonl.gz"
MODES = ("json", "text")

sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from gammak0 import cli  # noqa: E402


@functools.cache
def _frozen() -> tuple[dict, ...]:
    return tuple(map(json.loads, gzip.decompress(PROBLEMS.read_bytes()).decode("utf-8").splitlines()))


def frozen_problems(workload: str) -> list[dict]:
    """The frozen problems of one workload, in their order in the file."""
    return [p for p in _frozen() if p["workload"] == workload]


def workloads() -> list[str]:
    """The workloads the problems file names, in their order in the file."""
    return list(dict.fromkeys(p["workload"] for p in _frozen()))


def _digest(code: int, out: str, err: str, cert: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode()):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    h.update(b"-" if cert is None else b"+" + cert)
    return h.hexdigest()


def workload_digests(workload: str) -> dict[str, str]:
    """``"<mode>/<pid>" -> digest`` for every frozen problem of one workload.

    Files are written into a fresh directory under relative names, so no
    path of this machine reaches the output.
    """
    problems = frozen_problems(workload)
    digests = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for idx, p in enumerate(problems):
                files = []
                for name, doc in p["files"].items():
                    path = f"{idx:04d}-{name}"
                    Path(path).write_text(json.dumps(doc), encoding="utf-8")
                    files.append(path)
                for mode in MODES:
                    cert = Path("cert.json")
                    cert.unlink(missing_ok=True)
                    argv = ["--cert", cert.name, *p["flags"], p["cmd"], *files, *p["args"]]
                    if mode == "json":
                        argv.insert(0, "--json")
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    body = cert.read_bytes() if cert.exists() else None
                    digests[f"{mode}/{p['pid']}"] = _digest(code, out.getvalue(), err.getvalue(), body)
        finally:
            os.chdir(here)
    return digests


def _expected() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _mismatches(workload: str) -> list[str]:
    want = _expected()[workload]
    got = workload_digests(workload)
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


try:
    import pytest
except ImportError:  # script mode under an interpreter without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("workload", workloads())
    def test_cli_bytes_match_golden_digests(workload):
        assert _mismatches(workload) == []


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        table = {w: workload_digests(w) for w in workloads()}
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, table.values()))} digests to {DIGESTS.name}")
        return 0
    bad = {w: _mismatches(w) for w in workloads()}
    for w, keys in bad.items():
        print(f"{w}: {len(keys)} mismatched" + "".join(f"\n  {k}" for k in keys))
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
