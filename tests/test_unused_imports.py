"""Every imported name is read by the module that imports it."""

import ast
from pathlib import Path

import chemowave

PACKAGE = Path(chemowave.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# (module, name) imported for another reader: perfbench's tracer patches
# the cauchy.tridiag probe through this binding
EXEMPT = {("cauchy", "solve_banded")}


def _exported(tree) -> set[str]:
    """The names a module's __all__ lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(path: Path) -> list[str]:
    """'file:line name' for each name an import binds and the file never
    loads; `from __future__` and the names __all__ lists are exempt."""
    tree = ast.parse(path.read_text())
    bound, read = {}, _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                read.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in bound.items()
            if name not in read and (path.stem, name) not in EXEMPT]


def test_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [entry for path in files for entry in _unused(path)] == []
