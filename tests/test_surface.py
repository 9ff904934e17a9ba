"""Every public definition in ``src/gammak0`` has a caller that matters.

A public module-level function or class, or a public method of such a class,
must be named somewhere in the package outside ``__init__.py``, in the
acceptance suite, or in the benchmark harness.  A method must be reached as an
attribute (``x.name``), so a local variable of the same name does not count.
A definition that only its own unit test reaches is surface that no
subcommand, acceptance criterion or benchmark runs.  The check is by name, so it can miss an orphan that shares
its name with something used; it never flags a definition that is used.

Every name that a module of the package (outside ``__init__.py``, which
re-exports) or of the test suite imports must also be used in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gammak0"


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_used(path: Path) -> tuple[set[str], set[str]]:
    """(every name, attribute names only) that the module mentions."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names | attrs, attrs


def _public_definitions(path: Path) -> list[tuple[str, str, bool]]:
    """(qualified name, bare name, is a method) of public top-level definitions
    and their methods."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((f"{path.stem}.{node.name}", node.name, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return out


def test_every_public_definition_is_reached():
    readers = _modules() + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    seen = [_names_used(p) for p in readers]
    used = set().union(*(names for names, _ in seen))
    used_as_attr = set().union(*(attrs for _, attrs in seen))
    orphans = [
        q
        for p in _modules()
        for q, name, is_method in _public_definitions(p)
        if name not in (used_as_attr if is_method else used)
    ]
    assert orphans == [], f"public definitions with no caller: {orphans}"


def test_every_import_is_used():
    unused = []
    for path in _modules() + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unused.extend(
                    f"{path.relative_to(ROOT)}:{node.lineno} {bound}"
                    for alias in node.names
                    if (bound := (alias.asname or alias.name).split(".")[0]) not in used
                )
    assert unused == [], f"imported names never used: {unused}"
