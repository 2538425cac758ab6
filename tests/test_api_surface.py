"""No test-only API: the package reads every public name it defines."""

import ast
from pathlib import Path

import chemowave
from test_tracer_probes import _load_tracer

PACKAGE = Path(chemowave.__file__).resolve().parent

# public names that no package code reads, each with its reason
ALLOWED = {
    "apriori_checks": "the paper's a-priori profile estimates",
}
# tracer probes that no package code calls, each with its reason; every
# other probe must be a name the package reads, so that a probe the
# package stops running fails here instead of reading 0 in the tracer
PROBE_ONLY = {
    "solve_psi": "perfbench's elliptic.solve_psi probe",
    "psi_derivative": "perfbench's elliptic.psi_derivative probe",
    "front_position": "perfbench's speed.front_position probe",
    "random_envelope": "perfbench's barriers.random_envelope probe, and "
                       "the tests' random admissible densities",
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
    unread = _unread_public_names()
    assert {name: module for name, module in unread.items()
            if name not in PROBE_ONLY and name not in ALLOWED} == {}
    # an allowlisted name that the package now reads is stale
    assert sorted((set(ALLOWED) | set(PROBE_ONLY)) - set(unread)) == []
    # the benchmark's tracer patches its probes by name
    probes = {attr for _, _, attr, _, _ in _load_tracer().PROBES}
    assert sorted(set(PROBE_ONLY) - probes) == []


def _called(n) -> str | None:
    """The name a Call node calls, plain or as an attribute."""
    if isinstance(n, ast.Call):
        f = n.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def test_require_speed_above_is_the_one_admissibility_gate():
    # default_barrier_spec alone decides whether (params, c) has the
    # paper's wave, for wave, stability and certify alike: a second call
    # of the gate would be a second place to decide it
    sites = [(path.stem, getattr(node, "name", None))
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(path.read_text()).body
             for n in ast.walk(node) if _called(n) == "require_speed_above"]
    assert sites == [("barriers", "default_barrier_spec")]
