"""Source hygiene checks over the relcd package, with the stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relcd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the files that may call the package: its modules, the scripts, the benchmark
CALLERS = [
    *MODULES,
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _imported_names(tree: ast.Module) -> list[str]:
    """The names a module's imports bind (``from __future__`` aside)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads, annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare, as an attribute, or imported."""
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def _exports() -> list[str]:
    """The names ``relcd/__init__.py`` imports from its submodules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_hygiene_sees_the_package():
    assert {"agg.py", "ci.py", "model.py", "rcd.py"} <= {p.name for p in MODULES}


def test_every_export_has_a_caller():
    read = set().union(*(_read_names(ast.parse(p.read_text())) for p in CALLERS))
    uncalled = [name for name in _exports() if name not in read]
    assert not uncalled, f"exports that only the tests read: {uncalled}"
