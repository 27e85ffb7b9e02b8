"""The import graph inside the package: read with ``ast`` from every
``src/fcs/*.py``, imports inside functions included, it has no cycle."""

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


def test_only_the_console_entry_imports_inside_a_function():
    # _entry sets the thread variables before the CLI, and numpy, come in;
    # perfbench/worker.py also loads _entry.py as a file of its own, where a
    # module-level relative import would fail
    local = {(stem, t) for stem in MODULES for t, inside in _imports(stem) if inside}
    assert local == {("_entry", "cli")}
