"""The package's layering, read with ``ast`` from every ``src/fcs/*.py``:
the import graph has no cycle, no *fcs* module is imported inside a
function, the only imports inside a function are the deferred scipy
packages, only ``grid`` reads the transform engine's symbol and matrices,
and only ``solvers._certify`` builds a report."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fcs"
MODULES = {path.stem for path in SRC.glob("*.py")}  # "__init__" is the package


def _targets(node: ast.stmt) -> list[str]:
    """The modules of the package an import statement names."""
    if isinstance(node, ast.Import):
        parts = [a.name.split(".") for a in node.names]
        return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "fcs"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        rel = node.module
    elif node.level == 0 and (node.module or "").split(".")[0] == "fcs":
        rel = node.module.partition(".")[2]
    else:
        return []
    if rel:
        return [rel.split(".")[0]]
    # from . import x: a module of the package, or a name from __init__
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _imports(stem: str) -> list[tuple[str, bool]]:
    """(module of the package imported, inside a function?) for every
    import statement of ``stem``."""
    tree = ast.parse((SRC / f"{stem}.py").read_text())
    local = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    return [(t, id(node) in local) for node in ast.walk(tree) for t in _targets(node)]


def _graph() -> dict[str, set[str]]:
    return {stem: {t for t, _ in _imports(stem) if t != stem} for stem in MODULES}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a path that ends where it starts, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 done

    def visit(node: str, path: list[str]) -> list[str] | None:
        state[node] = 1
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = 2
        return None

    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return None


def test_import_graph_has_no_cycle():
    graph = _graph()
    assert {"solvers", "diagnostics", "operators", "cli"} <= set(graph)
    assert "solvers" in graph["diagnostics"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_no_module_imports_inside_a_function():
    # fcs/__init__ caps the threads before numpy loads, so no import needs
    # to wait for it; perfbench/worker.py loads _entry.py as a file of its own
    local = {(stem, t) for stem in MODULES for t, inside in _imports(stem) if inside}
    assert local == set()


# scipy packages that only some paths execute, imported where they are
# used so that a run which never reaches them does not pay their start-up;
# scipy.special serves N != 3 and the closed-form Gaussian potential only
DEFERRED_IMPORTS = {
    ("solvers", "_nehari_amplitude", "from scipy.optimize import brentq"),
    ("scaling", "project_to_M", "from scipy.optimize import brentq"),
    ("scaling", "_Fiber.__init__", "from scipy.interpolate import PchipInterpolator"),
    ("grid", "_bessel_j", "from scipy.special import j0, j1, jv"),
    ("grid", "_BesselEngine.__init__", "from scipy.special import jv"),
    ("operators", "_angular_kernel_generic", "from scipy.special import beta as sp_beta"),
    ("operators", "gaussian_riesz_profile", "from scipy.special import gamma as sp_gamma, hyp1f1"),
}


def _local_imports(source: str) -> set[tuple[str, str]]:
    """(qualified name of the function, statement) of every import
    statement inside a function of ``source``."""
    found = set()

    def visit(node: ast.AST, scope: list[str], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.add((".".join(scope), ast.unparse(child)))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_only_the_deferred_scipy_packages_are_imported_inside_a_function():
    local = {
        (stem, fn, stmt) for stem in MODULES for fn, stmt in _local_imports((SRC / f"{stem}.py").read_text())
    }
    assert local == DEFERRED_IMPORTS


def test_local_import_walk_sees_a_planted_import():
    planted = (
        "import math\n"
        "def f():\n    if 1:\n        import os\n    def g():\n        from a import b\n"
        "class C:\n    import sys\n    def m(self):\n        from . import x\n"
    )
    assert _local_imports(planted) == {("f", "import os"), ("f.g", "from a import b"), ("C.m", "from . import x")}


# the engine's symbol, its metric array and the Fourier-Bessel matrices
ENGINE_ATTRS = {"k2s", "_k_den", "_Q", "_sqrt_w"}


def _engine_reads(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of every read of an ``ENGINE_ATTRS`` attribute."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ENGINE_ATTRS
    ]


def test_only_grid_reads_the_k_space_calculus():
    # the symbol, the dual metric and the dense matrix of (-Delta)^s live in
    # the transform engines; every other module calls their methods
    reads = {stem: _engine_reads((SRC / f"{stem}.py").read_text()) for stem in MODULES - {"grid"}}
    assert {stem: r for stem, r in reads.items() if r} == {}
    assert _engine_reads((SRC / "grid.py").read_text())
    # and operators' Laplacian wrappers do not branch on the dimension
    tree = ast.parse((SRC / "operators.py").read_text())
    wrappers = {"frac_seminorm_sq", "dual_norm", "apply_A", "dense_fractional_matrix"}
    fns = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in wrappers]
    assert len(fns) == len(wrappers)
    assert not [n for fn in fns for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == "N"]


def test_engine_read_walk_sees_a_planted_read():
    planted = "def f(grid, eng):\n    return grid.k2s + eng._k_den, eng.lap(eng._Q)\n"
    assert sorted(_engine_reads(planted)) == [(2, "_Q"), (2, "_k_den"), (2, "k2s")]
    assert _engine_reads("def f(eng, b):\n    return eng.metric(b)\n") == []


# the report's constructor and the sign normalization of its field
REPORT_CALLS = {"SolveReport", "_normalize_sign"}


def _report_calls(source: str) -> list[tuple[str, str]]:
    """(top-level definition, callee) of every call of a ``REPORT_CALLS`` name."""
    return [
        (getattr(top, "name", "<module>"), name)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in REPORT_CALLS
    ]


def test_only_certify_builds_a_report():
    # every SolveReport is built from the one evaluation of the solver's
    # sign-normalized final field that _certify makes
    calls = {stem: sorted(_report_calls((SRC / f"{stem}.py").read_text())) for stem in MODULES}
    assert {stem: c for stem, c in calls.items() if c} == {
        "solvers": [("_certify", "SolveReport"), ("_certify", "_normalize_sign")]
    }


def test_report_call_walk_sees_a_planted_call():
    planted = (
        "def f(u):\n    return SolveReport(_normalize_sign(u))\n"
        "class C:\n    def g(self, m):\n        return m.SolveReport()\n"
        "x = _normalize_sign(1)\n"
    )
    assert sorted(_report_calls(planted)) == [
        ("<module>", "_normalize_sign"), ("C", "SolveReport"), ("f", "SolveReport"), ("f", "_normalize_sign")
    ]
    assert _report_calls("def f(rep):\n    return rep.SolveReport, normalize_sign(rep)\n") == []
