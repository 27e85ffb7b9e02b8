"""Span tracer wrapped around fcs's public entry points, from outside.

fcs modules bind names at import time (``from .operators import apply_A``),
so a wrapper replaces every binding of the original function object in every
loaded ``fcs`` module, not only the defining module's.  Transform calls are
counted on the engine that ``RadialGrid.transform()`` returns: the first
call on a grid builds the engine (the ``grid.build`` span) and its
``forward``/``inverse`` are wrapped on that instance.  ``numpy.linalg.solve``
is counted as called from ``fcs.solvers`` only, through a copy of the numpy
namespace installed in that module.

Spans are recorded only inside a ``cli_main`` call, kept in memory for the
current solve, and reduced to per-solve numbers by ``reduce`` after the solve
returns, outside its timed region.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

import stats

# (defining module, attribute, span name, layer); a missing attribute is
# skipped, so the tracer survives refactors that remove a function
TARGETS = (
    ("fcs.params", "compute_exponents", "params.compute_exponents", "params"),
    ("fcs.params", "classify_nonlinearity", "params.classify_nonlinearity", "params"),
    ("fcs.operators", "coulomb_energy", "operators.riesz_matvec", "operators"),
    ("fcs.operators", "hartree_potential_sym", "operators.riesz_matvec", "operators"),
    ("fcs.operators", "quadrilinear_T", "operators.riesz_matvec", "operators"),
    ("fcs.operators", "riesz_potential", "operators.riesz_matvec", "operators"),
    ("fcs.operators", "apply_A", "operators.apply_A", "operators"),
    ("fcs.operators", "apply_B", "operators.apply_B", "operators"),
    ("fcs.operators", "apply_fractional_laplacian", "operators.frac_lap", "operators"),
    ("fcs.operators", "frac_seminorm_sq", "operators.frac_seminorm_sq", "operators"),
    ("fcs.operators", "dual_norm", "operators.dual_norm", "operators"),
    ("fcs.operators", "precondition", "operators.precondition", "operators"),
    ("fcs.operators", "hartree_jacobian", "operators.hartree_jacobian", "operators"),
    ("fcs.operators", "dense_fractional_matrix", "operators.dense_lap", "operators"),
    ("fcs.energy", "I_functional", "energy.I", "energy"),
    ("fcs.energy", "J_functional", "energy.J", "energy"),
    ("fcs.energy", "F_integral", "energy.F_integral", "energy"),
    ("fcs.energy", "Phi", "energy.Phi", "energy"),
    ("fcs.energy", "Phi_lambda", "energy.Phi_lambda", "energy"),
    ("fcs.energy", "grad_Phi", "energy.grad_Phi", "energy"),
    ("fcs.scaling", "scale", "scaling.scale", "scaling"),
    ("fcs.scaling", "project_to_M", "scaling.project_to_M", "scaling"),
    ("fcs.scaling", "fiber_profile", "scaling.fiber_profile", "scaling"),
    ("fcs.diagnostics", "pohozaev_residual", "diagnostics.pohozaev_residual", "diagnostics"),
    ("fcs.diagnostics", "nehari_residual", "diagnostics.nehari_residual", "diagnostics"),
    ("fcs.diagnostics", "eigen_identity_residual", "diagnostics.eigen_identity_residual", "diagnostics"),
    ("fcs.diagnostics", "estimate_sobolev_constant", "diagnostics.estimate_sobolev_constant", "diagnostics"),
    ("fcs.diagnostics", "ps_threshold", "diagnostics.ps_threshold", "diagnostics"),
    ("fcs.io", "save_field", "io.save_field", "io"),
    ("fcs.io", "make_envelope", "io.make_envelope", "io"),
    ("fcs.io", "envelope_to_json", "io.envelope_to_json", "io"),
    ("fcs.io", "emit_branch_csv", "io.emit_branch_csv", "io"),
    ("fcs.config", "load_config", "config.parse", "config"),
)

# solver entry points; the outermost one's report carries the iteration counts
SOLVER_ENTRIES = (
    "eigen1",
    "eigen_deflated",
    "minimize_subscaled",
    "mountain_pass",
    "find_negative_energy_point",
    "sweep",
)

# per-layer metrics, in output order; all are per solve
METRICS = (
    "params.compute_exponents.calls",
    "grid.build_s",
    "grid.grids_per_solve",
    "grid.transform.calls",
    "grid.transform.self_s",
    "operators.riesz_build_s",
    "operators.riesz_matvec.calls",
    "operators.riesz_matvec.self_s",
    "operators.riesz_matvec.bytes_computed",
    "operators.dense_lap_build_s",
    "operators.apply_A.calls",
    "operators.self_s",
    "energy.Phi.calls",
    "energy.grad_Phi.calls",
    "energy.I.calls",
    "energy.self_s",
    "scaling.scale.calls",
    "scaling.project_to_M.calls",
    "scaling.self_s",
    "solvers.iterations",
    "solvers.iterations_ascent",
    "solvers.iterations_newton",
    "solvers.dense_solve.calls",
    "solvers.dense_solve_s",
    "solvers.apply_A_per_iteration",
    "solvers.self_s",
    "diagnostics.self_s",
    "io.bytes_written",
    "io.write_s",
    "config.parse_s",
    "cli.self_s",
)


def _fcs_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "fcs" or name.startswith("fcs."))]


class Tracer:
    """Records spans ``(name, layer, start, end, parent)`` for one solve at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iterations = Counter()
        self._stack: list[int] = []
        self._solver_depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self._built = weakref.WeakSet()

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, root: bool = False):
        """``fn`` recorded as a span; outside a solve only a root span records."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack and not root:
                return fn(*args, **kwargs)
            idx = tracer._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_solver(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            outermost = tracer._solver_depth == 0
            tracer._solver_depth += 1
            idx = tracer._open(name, "solvers")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._solver_depth -= 1
            if outermost:
                tracer._count_iterations(result)
            return result

        return traced

    def _count_iterations(self, result) -> None:
        for rep in result if isinstance(result, list) else [result]:
            its = getattr(rep, "iterations", None)
            if its is None:
                continue
            extras = getattr(rep, "extras", None) or {}
            self.iterations["total"] += its
            self.iterations["ascent"] += extras.get("iterations_ascent", 0)
            self.iterations["newton"] += extras.get("iterations_newton", 0)

    def _wrap_transform(self, fn):
        tracer = self

        @functools.wraps(fn)
        def transform(grid):
            if not tracer._stack or grid in tracer._built:
                return fn(grid)
            tracer._built.add(grid)
            idx = tracer._open("grid.build", "grid")
            try:
                eng = fn(grid)
            finally:
                tracer._close(idx)
            eng.forward = tracer.wrap(eng.forward, "grid.transform", "grid")
            eng.inverse = tracer.wrap(eng.inverse, "grid.transform", "grid")
            return eng

        return transform

    # -- installation --------------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        for mod in _fcs_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import numpy as np

        import fcs.cli
        import fcs.grid
        import fcs.solvers

        for mod_name, attr, name, layer in TARGETS:
            orig = getattr(sys.modules[mod_name], attr, None)
            if orig is not None:
                self._rebind(orig, self.wrap(orig, name, layer))
        for attr in SOLVER_ENTRIES:
            orig = getattr(fcs.solvers, attr, None)
            if orig is not None:
                self._rebind(orig, self._wrap_solver(orig, f"solvers.{attr}"))
        self._rebind(fcs.cli.cli_main, self.wrap(fcs.cli.cli_main, "cli.cli_main", "cli", root=True))
        grid_cls = fcs.grid.RadialGrid
        self._patch(grid_cls, "__post_init__", self.wrap(grid_cls.__post_init__, "grid.new", "grid"))
        self._patch(grid_cls, "transform", self._wrap_transform(grid_cls.transform))
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.solve = self.wrap(np.linalg.solve, "solvers.dense_solve", "solvers")
        np_view = types.ModuleType("numpy")
        np_view.__dict__.update(np.__dict__)
        np_view.linalg = linalg
        self._patch(fcs.solvers, "np", np_view)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- per-solve reduction -------------------------------------------------

    def begin_solve(self) -> None:
        self.spans = []
        self.iterations = Counter()

    def reduce(self, N: int, M: int) -> dict:
        """Per-layer numbers of the solve just traced (``io.bytes_written`` excluded)."""
        spans = [tuple(s) for s in self.spans]
        selfs = stats.self_times(spans)
        calls = Counter(s[0] for s in spans)
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        riesz = []
        for (name, layer, *_), st in zip(spans, selfs):
            by_name[name] += st
            by_layer[layer] += st
            if name == "operators.riesz_matvec":
                riesz.append(st)
        # first call on the fresh grid pays the kernel assembly; the later
        # calls' median is the plain matvec it also contains
        riesz_build = riesz[0] - stats.median(riesz[1:]) if len(riesz) > 1 else sum(riesz)
        # the N = 3 kernel is symmetric in the quadrature inner product; other
        # N apply the kernel and its adjoint, two dense products per call
        products = 1 if N == 3 else 2
        return {
            "params.compute_exponents.calls": calls["params.compute_exponents"],
            "grid.build_s": by_name["grid.build"],
            "grid.grids_per_solve": calls["grid.new"],
            "grid.transform.calls": calls["grid.transform"],
            "grid.transform.self_s": by_name["grid.transform"],
            "operators.riesz_build_s": riesz_build,
            "operators.riesz_matvec.calls": calls["operators.riesz_matvec"],
            "operators.riesz_matvec.self_s": by_name["operators.riesz_matvec"],
            "operators.riesz_matvec.bytes_computed": 8 * M * M * products * calls["operators.riesz_matvec"],
            "operators.dense_lap_build_s": by_name["operators.dense_lap"],
            "operators.apply_A.calls": calls["operators.apply_A"],
            "operators.self_s": by_layer["operators"],
            "energy.Phi.calls": calls["energy.Phi"],
            "energy.grad_Phi.calls": calls["energy.grad_Phi"],
            "energy.I.calls": calls["energy.I"],
            "energy.self_s": by_layer["energy"],
            "scaling.scale.calls": calls["scaling.scale"],
            "scaling.project_to_M.calls": calls["scaling.project_to_M"],
            "scaling.self_s": by_layer["scaling"],
            "solvers.iterations": self.iterations["total"],
            "solvers.iterations_ascent": self.iterations["ascent"],
            "solvers.iterations_newton": self.iterations["newton"],
            "solvers.dense_solve.calls": calls["solvers.dense_solve"],
            "solvers.dense_solve_s": by_name["solvers.dense_solve"],
            "solvers.self_s": by_layer["solvers"],
            "diagnostics.self_s": by_layer["diagnostics"],
            "io.write_s": by_layer["io"],
            "config.parse_s": by_name["config.parse"],
            "cli.self_s": by_layer["cli"],
        }


def aggregate(per_solve: list[dict]) -> dict:
    """Mean per solve of each metric; the wasted-work ratio is a ratio of sums."""
    n = len(per_solve)
    out = {}
    for key in METRICS:
        if key == "solvers.apply_A_per_iteration":
            iters = sum(d["solvers.iterations"] for d in per_solve)
            calls = sum(d["operators.apply_A.calls"] for d in per_solve)
            out[key] = calls / iters if iters else float(calls)
        else:
            out[key] = sum(d[key] for d in per_solve) / n
    return out
