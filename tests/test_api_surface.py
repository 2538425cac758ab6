"""No test-only API: the package reads every public name it defines."""

import ast
from pathlib import Path

import chemowave
from test_tracer_probes import _load_tracer

PACKAGE = Path(chemowave.__file__).resolve().parent

# public names that no package code reads, each with its reason
ALLOWED = {
    "apriori_checks": "the paper's a-priori profile estimates",
    "uniqueness_check": "the paper's uniqueness distance of two profiles",
    "weighted_elliptic_check": "the paper's weighted elliptic bounds",
    "residual_A": "the paper's barrier residual A(W; u)",
    "solve_fd": "the finite-difference reference of the elliptic solve",
}


def _defined(node) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _read(node) -> set[str]:
    """Names a statement reads: loaded, imported or taken as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def _unread_public_names() -> dict[str, str]:
    """Public top-level names that no package statement outside their own
    definition reads; the re-exports of __init__ do not count as a read."""
    public, reads = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            for name in names:
                if not name.startswith("_"):
                    public[name] = path.stem
            reads.append((names, _read(node)))
    return {name: module for name, module in public.items()
            if not any(name in read and name not in own
                       for own, read in reads)}


def test_every_public_name_is_read_by_the_package_or_allowed():
    # the benchmark's tracer patches its probes by name
    probes = {attr for _, _, attr, _, _ in _load_tracer().PROBES}
    unread = _unread_public_names()
    assert {name: module for name, module in unread.items()
            if name not in probes and name not in ALLOWED} == {}
    # an allowlisted name that the package now reads is stale
    assert sorted(set(ALLOWED) - set(unread)) == []
