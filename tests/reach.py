"""List the statements in ``src/gammak0`` that no Tier-1 test runs.

Runs ``pytest.main`` in this process over the Tier-1 scope (the repository
root) under a ``sys.settrace`` line collector, then prints each statement of
``src/gammak0/*.py`` that never ran, and the total.  A statement is the
first line of an ``ast`` statement node; docstrings, imports, ``def`` and
``class`` statements are left out, since importing a module runs them.
Code run in child processes (the console-script and benchmark smoke tests)
is not seen.  Extra arguments go to pytest in place of the default scope.

Tracing makes the suite about 2.5 times slower, so this is a tool to run by
hand, not a test (pytest does not collect this file):

    PYTHONPATH=src python tests/reach.py [PYTEST_ARGS...]
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gammak0"


def statements(path: Path) -> dict[int, str]:
    """Line -> source text of each statement in one module that counts."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    skip = (ast.Import, ast.ImportFrom, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, skip) and id(node) not in docstrings
    }


def main(argv: list[str]) -> int:
    modules = {str(p): p for p in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in modules}
    owner: dict[str, set[int] | None] = {}  # co_filename -> the line set it feeds, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        lines = owner.get(name, ...)
        if lines is ...:
            lines = owner[name] = ran.get(os.path.abspath(name))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
    total = missed = 0
    for name, path in modules.items():
        for line, text in sorted(statements(path).items()):
            total += 1
            if line not in ran[name]:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} of {total} statements in src/gammak0 never ran")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
