"""Critical-point finders.

All solvers share the same two-phase strategy: a globalizing first-order
phase (projected/preconditioned descent or ascent with Armijo backtracking;
for the mountain pass, a descent of the barrier level over the Nehari set
started from the endpoint's ray) followed by a damped dense Newton polish
on the stationarity system, which is affordable at desk scale and drives
dual residuals to rounding.  The first-order phase only has to reach
Newton's basin: the descents of Phi hand over once the dual residual has
dropped by ``_HANDOVER_REL`` (the ascent of J by 1e-3, or once its Armijo
search runs out of its ``_ASCENT_TRIALS`` trials), and Newton does the
converging.  Each Newton call assembles its Jacobian in place, into one
buffer.  Every field a solver evaluates is evaluated once, as one
``energy._Ray`` (S, Q, the Hartree potential, A(u) and the residual), and a
point accepted by a line search is carried into the next step as it is.
Reports are recomputed from one evaluation of the stored, sign-normalized
field, so nothing leaks from solver internals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from scipy.optimize import brentq

from .diagnostics import _pohozaev_sides, estimate_sobolev_constant, ps_threshold
from .energy import I_functional, J_functional, NonlinearitySpec, Phi, _Ray
from .grid import Field, RadialGrid, lp_norm
# unused apply_A: perfbench/test_perfbench.py reads fcs.solvers.apply_A
from .operators import apply_A, dense_fractional_matrix, _riesz_kernel, dual_norm, precondition  # noqa: F401
from .params import (
    ProblemParams,
    Regime,
    RegimeTag,
    classify_nonlinearity,
    compute_exponents,
)
from .scaling import _Fiber, project_to_M

__all__ = [
    "SolverOptions",
    "SolveReport",
    "BranchRow",
    "eigen1",
    "eigen_deflated",
    "minimize_subscaled",
    "mountain_pass",
    "find_negative_energy_point",
    "sweep",
    "RegimeMismatchError",
    "DegenerateSeedError",
    "NoPassError",
]


class RegimeMismatchError(ValueError):
    """Nonlinearity growth class does not match the requested solver."""


class DegenerateSeedError(RuntimeError):
    """Iteration collapsed to the zero field."""


class NoPassError(RuntimeError):
    """No positive-level barrier was found between 0 and the endpoint."""


# Armijo sufficient-decrease constant and backtracking factor, fixed so that
# reports are reproducible
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5

# the descents of Phi hand over to Newton once the dual residual has dropped
# by this factor (or by the requested tolerance, if that is looser): they
# only have to reach Newton's basin, Newton does the converging
_HANDOVER_REL = 1e-2

# the ascent of J tries at most this many Armijo steps per iteration; a search
# that runs out ends the ascent and hands over to Newton.  Near Newton's
# basin the resampled dilation inside ``project_to_M`` no longer follows its
# first-order model, so no shorter step would be accepted there
_ASCENT_TRIALS = 4


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs; the Armijo parameters are fixed module constants."""

    tol: float = 1e-6            # dual-norm target, relative to the initial residual
    max_iter: int = 5000
    seed: str = "gaussian"       # gaussian | bump | field
    seed_width: float = 1.0
    seed_field: Field | None = None

    def __post_init__(self) -> None:
        if not (self.tol > 0.0):
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.seed_width) and self.seed_width > 0.0):
            raise ValueError(f"seed width must be finite and positive, got {self.seed_width!r}")

    def seed_descriptor(self) -> str:
        if self.seed == "gaussian":
            return f"gaussian{{{self.seed_width}}}"
        return self.seed


@dataclass
class SolveReport:
    """Outcome of a solve; every identity is recomputed from ``solution``."""

    solution: Field
    energy: float
    multiplier: float | None
    residual_dual: float
    residual_rel: float
    pohozaev_rel: float | None
    nehari: float
    iterations: int
    converged: bool
    seed_descriptor: str
    grid_summary: dict
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "energy": self.energy,
            "multiplier": self.multiplier,
            "residual_dual": self.residual_dual,
            "residual_rel": self.residual_rel,
            "pohozaev_rel": self.pohozaev_rel,
            "nehari": self.nehari,
            "iterations": self.iterations,
            "converged": self.converged,
            "seed": self.seed_descriptor,
            "grid": self.grid_summary,
            "solution_linf": float(np.max(np.abs(self.solution.values))),
            "solution_l2": lp_norm(self.solution, 2.0),
        }
        out.update(self.extras)
        return out


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def make_seed(grid: RadialGrid, opts: SolverOptions) -> Field:
    if opts.seed == "gaussian":
        return Field(grid, np.exp(-((grid.r / opts.seed_width) ** 2)))
    if opts.seed == "bump":
        x = grid.r / (0.5 * grid.R)
        vals = np.where(x < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - x ** 2, 1e-300)), 0.0)
        return Field(grid, vals)
    if opts.seed == "field":
        if opts.seed_field is None:
            raise ValueError("seed='field' requires seed_field")
        if not opts.seed_field.grid.same_as(grid):
            raise ValueError("seed field lives on a different grid")
        return opts.seed_field.copy()
    raise ValueError(f"unknown seed kind {opts.seed!r}")


def _require_above(params: ProblemParams) -> None:
    if params.regime is Regime.BELOW:
        raise ValueError(
            "solver-facing modules refuse parameters with 4s + alpha < N; "
            "identities are certified only above the threshold"
        )


def _check_grid(params: ProblemParams, grid: RadialGrid) -> None:
    if grid.params != params:
        raise ValueError("grid was built for different problem parameters")


def _normalize_sign(u: Field) -> Field:
    # identify the pair {u, -u}: first node nonnegative
    return Field(u.grid, -u.values) if u.values[0] < 0.0 else u


def _certify(
    pt: _Ray,
    *,
    energy: float,
    res: float,
    res0: float,
    iterations: int,
    converged: bool,
    seed: str,
    multiplier: float | None = None,
    extras: dict | None = None,
) -> SolveReport:
    """The one builder of a ``SolveReport``: identities recomputed from the
    one evaluation ``pt`` of the stored field, against its ``spec``.

    The Pohozaev balance is stated only for autonomous f.
    """
    pohozaev_rel = _pohozaev_sides(pt)[2] if pt.spec.is_autonomous else None
    return SolveReport(
        solution=pt.field, energy=energy, multiplier=multiplier, residual_dual=res,
        residual_rel=res / res0 if res0 > 0 else 0.0, pohozaev_rel=pohozaev_rel,
        nehari=float(pt.nehari(1.0)),
        iterations=iterations, converged=converged, seed_descriptor=seed,
        grid_summary=pt.field.grid.summary(), extras=extras or {},
    )


# ---------------------------------------------------------------------------
# Newton engines
# ---------------------------------------------------------------------------

def _meets_tol(pt: _Ray, res0: float, opts: SolverOptions) -> bool:
    """Relative-to-initial-residual test with a rounding floor.

    A warm start from an already-converged field makes res0 itself rounding
    noise; the floor keeps the criterion meaningful there.
    """
    floor = 1e-12 * max(dual_norm(Field(pt.field.grid, pt.Au)), 1.0)
    return pt.res <= opts.tol * res0 + floor


def _jacobian_into(out: np.ndarray, Lf: np.ndarray, K: np.ndarray, u: np.ndarray, diag: np.ndarray) -> None:
    """out <- Lf + 2 u_i K_ij u_j + diag(diag), written in place.

    With ``diag`` = pot + (the nonlinearity's part) this is the Jacobian of
    the fractional Laplacian plus the Hartree term (I_alpha * u^2) u; no
    M x M temporary is allocated.
    """
    np.multiply(K, u[None, :], out=out)
    out *= (2.0 * u)[:, None]
    out += Lf
    idx = np.arange(u.size)
    out[idx, idx] += diag


def _eigen_point(u: Field, p: float, lam: float | None = None) -> _Ray:
    """The ray of ``u`` with the eigen residual A(u) - lam B(u) (see ``_Ray.eigen``).

    With ``lam=None`` the point sits at its Rayleigh quotient
    (S + Q) / sum_j w_j |u_j|^p, read from the ray's own S and Q.
    """
    pt = _Ray(u)
    if lam is None:
        den = float(np.sum(u.grid.w * np.abs(u.values) ** p))
        if den == 0.0:
            raise DegenerateSeedError("degenerate seed: B(u) u vanished")
        lam = (pt.S + pt.Q) / den
    return pt.eigen(p, lam)


def _newton_eigen(pt: _Ray, tol_abs: float, max_iter: int = 40):
    """Damped Newton on the stationarity system {A(u) = lam B(u), I(u) = 1}.

    Starts from the eigen point ``pt`` and returns the last accepted point
    and the iteration count; a point accepted by the line search is carried
    into the next step as it is.  The bordered Jacobian
    [[L + H(u) - lam B'(u), -B(u)], [w A(u), 0]] is assembled in place,
    into one buffer per call.
    """
    grid = pt.field.grid
    M = grid.M
    p = compute_exponents(grid.params).two_star_s_alpha
    Lf = dense_fractional_matrix(grid)
    K = _riesz_kernel(grid, grid.params.alpha).sym_matrix()
    jac = np.empty((M + 1, M + 1))
    jac[M, M] = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        defect = pt.I - 1.0
        if pt.res <= tol_abs and abs(defect) <= 1e-11:
            break
        uv = pt.u
        _jacobian_into(
            jac[:M, :M], Lf, K, uv, pt.pot - pt.lam * (p - 1.0) * np.abs(uv) ** (p - 2.0)
        )
        jac[:M, M] = -pt.Bu
        jac[M, :M] = grid.w * pt.Au
        try:
            delta = np.linalg.solve(jac, -np.concatenate([pt.resid, [defect]]))
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(10):
            trial = uv + step * delta[:M]
            if not np.all(np.isfinite(trial)):
                step *= 0.5
                continue
            pt_try = _eigen_point(Field(grid, trial), p, pt.lam + step * delta[M])
            if pt_try.res < pt.res or (pt_try.res < tol_abs and abs(pt_try.I - 1.0) < abs(defect)):
                pt = pt_try
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return pt, it


def _newton_gradient(pt: _Ray, tol_abs: float, max_iter: int = 40):
    """Damped Newton on grad Phi(u) = 0 (finds minima and saddles alike).

    Starts from the evaluated point ``pt`` (a ray with ``spec``) and returns
    the last accepted point and the iteration count; a point accepted by the
    line search is carried into the next step as it is.  The Jacobian
    L + H(u) - diag(f'(u)) is assembled in place, into one buffer per call.
    """
    grid, spec = pt.field.grid, pt.spec
    Lf = dense_fractional_matrix(grid)
    K = _riesz_kernel(grid, grid.params.alpha).sym_matrix()
    jac = np.empty((grid.M, grid.M))
    scale0 = float(np.max(np.abs(pt.u)))
    it = 0
    for it in range(1, max_iter + 1):
        if pt.res <= tol_abs:
            break
        _jacobian_into(jac, Lf, K, pt.u, pt.pot - spec.fprime(pt.u, grid.r))
        try:
            delta = np.linalg.solve(jac, -pt.resid)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(10):
            trial = pt.u + step * delta
            if not np.all(np.isfinite(trial)):
                step *= 0.5
                continue
            pt_try = _Ray(Field(grid, trial), spec)
            if pt_try.res < pt.res:
                pt = pt_try
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if float(np.max(np.abs(pt.u))) < 1e-10 * max(scale0, 1.0):
            raise DegenerateSeedError("Newton iteration collapsed to the zero field")
    return pt, it


# ---------------------------------------------------------------------------
# eigenproblem on the manifold
# ---------------------------------------------------------------------------

def _ascend_J(u: Field, opts: SolverOptions, penalty=None, switch_rel: float = 1e-3):
    """Projected preconditioned ascent of J (optionally penalized) on {I = 1}.

    Each iteration tries at most ``_ASCENT_TRIALS`` Armijo steps, each one a
    ``project_to_M``; each accepted point is evaluated once, as an eigen
    point at its Rayleigh quotient.  Returns the last point, the
    accepted-step objective history (nondecreasing by construction), the
    iteration count, the initial dual residual of the eigen-equation and why
    the ascent stopped: ``handover`` (the residual dropped to ``switch_rel``
    of its initial value), ``line_search`` (the Armijo search ran out of
    trials), ``slope`` (no ascent direction) or ``max_iter``.
    """
    grid = u.grid
    p = compute_exponents(grid.params).two_star_s_alpha

    def objective(v: Field) -> float:
        val = J_functional(v)
        if penalty is not None:
            val -= penalty.value(v)
        return val

    pt = _eigen_point(u, p)
    res0 = pt.res
    J_hist = [objective(u)]
    eta = 1.0
    it = 0
    stop = "max_iter"
    for it in range(1, opts.max_iter + 1):
        if pt.res <= switch_rel * res0:
            stop = "handover"
            break
        u = pt.field
        g = pt.Bu if penalty is None else pt.Bu - penalty.gradient(u)  # B(u) is J'(u)
        d = precondition(Field(grid, g)).values
        slope = float(np.sum(grid.w * g * d))
        if slope <= 0.0:
            stop = "slope"
            break
        eta = min(eta * 2.0, 1.0 / max(dual_norm(Field(grid, g)), 1e-30))
        accepted = False
        for _ in range(_ASCENT_TRIALS):
            try:
                u_try = project_to_M(Field(grid, u.values + eta * d))
            except (RuntimeError, ValueError):
                eta *= _ARMIJO_SHRINK
                continue
            J_try = objective(u_try)
            if J_try >= J_hist[-1] + _ARMIJO_C * eta * slope:
                accepted = True
                break
            eta *= _ARMIJO_SHRINK
        if not accepted:
            stop = "line_search"
            break
        J_hist.append(J_try)
        pt = _eigen_point(u_try, p)
    return pt, J_hist, it, res0, stop


def _finish_eigen(u: Field, exps, res0: float, converged, iterations: int, seed: str, extras: dict):
    """Certify an eigen iterate at its Rayleigh quotient, sign-normalized.

    ``converged(pt)`` is the caller's acceptance rule on the eigen point of
    the normalized field, the one evaluation the report is read from.
    """
    pt = _eigen_point(_normalize_sign(u), exps.two_star_s_alpha)
    lam, J = pt.lam, J_functional(pt.field, exps)
    return _certify(
        pt, energy=pt.I - lam * J, multiplier=lam, res=pt.res,
        res0=res0, iterations=iterations, converged=converged(pt), seed=seed,
        extras={"I": pt.I, "J": J, "manifold_defect": pt.I - 1.0, **extras},
    )


def eigen1(params: ProblemParams, grid: RadialGrid, opts: SolverOptions | None = None) -> SolveReport:
    """First-eigenvalue run: maximize J on the unit-energy manifold.

    The first-order phase is projected ascent; a Newton polish on the
    stationarity system then drives the dual residual of A(u) - lam B(u) to
    the requested relative tolerance.  Reported multiplier is the Rayleigh
    quotient <A(u), u> / <B(u), u>.
    """
    opts = opts or SolverOptions()
    _check_grid(params, grid)
    _require_above(params)
    exps = compute_exponents(params)

    seed = make_seed(grid, opts)
    if float(np.max(np.abs(seed.values))) == 0.0:
        raise DegenerateSeedError("degenerate seed: zero field")
    try:
        u = project_to_M(seed)
    except (RuntimeError, ValueError) as exc:  # a wide seed may need t > 1, read past R
        raise DegenerateSeedError(f"degenerate seed: {exc}") from exc

    pt, J_hist, it_ascent, res0, stop = _ascend_J(u, opts, switch_rel=max(opts.tol, 1e-3))
    tol_abs = opts.tol * res0
    it_newton = 0
    newton_budget = min(40, max(0, opts.max_iter - it_ascent))
    if newton_budget > 0:
        pt, it_newton = _newton_eigen(pt, min(tol_abs, 1e-11 * res0), max_iter=newton_budget)
    report = _finish_eigen(
        pt.field, exps, res0,
        lambda q: _meets_tol(q, res0, opts) and abs(q.I - 1.0) <= 1e-8,
        it_ascent + it_newton, opts.seed_descriptor(),
        {
            "J_history_monotone": bool(np.all(np.diff(J_hist) >= 0.0)),
            "iterations_ascent": it_ascent,
            "iterations_newton": it_newton,
            "ascent_stop": stop,
        },
    )
    if float(np.max(np.abs(report.solution.values))) < 1e-12:
        raise DegenerateSeedError("eigen iteration collapsed to the zero field")
    return report


class _DeflationPenalty:
    """Quadratic penalty against alignment with previously found states."""

    def __init__(self, found: list[Field], weight: float):
        self.found = found
        self.weight = weight

    def value(self, u: Field) -> float:
        w = u.grid.w
        return self.weight * sum(
            float(np.sum(w * u.values * v.values)) ** 2 for v in self.found
        )

    def gradient(self, u: Field) -> np.ndarray:
        w = u.grid.w
        g = np.zeros(u.grid.M)
        for v in self.found:
            g += 2.0 * self.weight * float(np.sum(w * u.values * v.values)) * v.values
        return g


def _deflation_seed_bank(grid: RadialGrid):
    # nodal profiles first: most likely to reach a distinct candidate
    r = grid.r
    for width in (1.0, 2.0):
        yield f"nodal{{{width}}}", (1.0 - (r / width) ** 2) * np.exp(-((r / width) ** 2))
    for width in (0.5, 2.0):
        yield f"gaussian{{{width}}}", np.exp(-((r / width) ** 2))


def eigen_deflated(
    params: ProblemParams,
    grid: RadialGrid,
    k: int,
    opts: SolverOptions | None = None,
) -> list[SolveReport]:
    """Heuristic search for k eigenpair candidates by penalized reruns.

    Ordering of the returned multipliers is NOT certified; each candidate
    individually satisfies the same residual and identity postconditions as
    an ``eigen1`` output.
    """
    opts = opts or SolverOptions()
    if k < 1:
        raise ValueError("k must be >= 1")
    first = eigen1(params, grid, opts)
    first.extras["ordering"] = "candidate, uncertified ordering"
    reports = [first]
    if k == 1:
        return reports

    exps = compute_exponents(params)
    defl_opts = replace(opts, max_iter=min(opts.max_iter, 300))
    for descriptor, seed_vals in _deflation_seed_bank(grid):
        if len(reports) >= k:
            break
        weight = 10.0 / max(J_functional(first.solution), 1e-12)
        for _ in range(3):  # halve the penalty on stagnation
            try:
                u = project_to_M(Field(grid, seed_vals))
            except (RuntimeError, ValueError):
                break
            pen = _DeflationPenalty([rep.solution for rep in reports], weight)
            pt, _, it_a, res0, stop = _ascend_J(u, defl_opts, penalty=pen, switch_rel=5e-2)
            tol_abs = opts.tol * res0
            pt, it_n = _newton_eigen(pt, min(tol_abs, 1e-11 * res0))
            u = pt.field
            # |cos| is blind to the sign normalization still ahead
            distinct = all(
                abs(float(np.sum(grid.w * u.values * rep.solution.values)))
                / max(lp_norm(u, 2.0) * lp_norm(rep.solution, 2.0), 1e-300)
                < 0.99
                for rep in reports
            )
            rep = _finish_eigen(
                u, exps, res0, lambda q: q.res <= tol_abs and distinct,
                it_a + it_n, descriptor,
                {"ordering": "candidate, uncertified ordering", "ascent_stop": stop},
            )
            if rep.converged:
                reports.append(rep)
                break
            weight *= 0.5
    if len(reports) < k:
        warnings.warn(
            f"deflation found {len(reports)} distinct candidates out of {k} requested",
            RuntimeWarning,
            stacklevel=2,
        )
    return reports


# ---------------------------------------------------------------------------
# coercive minimization (subscaled growth)
# ---------------------------------------------------------------------------

def _descend_Phi(pt: _Ray, switch_abs: float, max_iter: int):
    """Preconditioned Armijo descent of Phi from the evaluated point ``pt``.

    Each trial is one ray; the accepted one is carried into the next step.
    """
    grid = pt.field.grid
    eta = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        if pt.res <= switch_abs:
            break
        d = precondition(Field(grid, pt.resid)).values
        slope = float(np.sum(grid.w * pt.resid * d))
        eta = min(eta * 2.0, 1.0 / max(pt.res, 1e-30))
        accepted = False
        for _ in range(60):
            pt_try = _Ray(Field(grid, pt.u - eta * d), pt.spec)
            if pt_try.action <= pt.action - _ARMIJO_C * eta * slope:
                accepted = True
                break
            eta *= _ARMIJO_SHRINK
        if not accepted:
            break
        pt = pt_try
    return pt, it


def _validate_subscaled(spec: NonlinearitySpec, exps) -> None:
    regime = classify_nonlinearity(spec, exps)
    if regime.tag is not RegimeTag.SUBSCALED:
        raise RegimeMismatchError(
            f"minimize_subscaled requires a subscaled nonlinearity; "
            f"classifier says {regime.tag.value} (l_infinity = {regime.l_infinity})"
        )
    bad = [
        t
        for t in spec.terms
        if t.coef != 0.0
        and not (exps.p_rad < t.effective_exponent < exps.two_star_s_alpha)
    ]
    if bad:
        raise RegimeMismatchError(
            "all effective exponents must lie in the open interval "
            f"({exps.p_rad:.6f}, {exps.two_star_s_alpha:.6f}); offending terms: {bad}"
        )


def _minimization_starts(grid: RadialGrid, spec: NonlinearitySpec, seed: Field | None = None):
    """Seed candidates for coercive minimization, most negative action first.

    Two families are scanned: amplitude rays over Gaussian/parabolic-cap
    profiles (captures wide flat wells), and manifold fibers u_t with t <= 1
    over projected Gaussian and heavy-tailed bases.  Fibers matter because
    near the origin the action of a near-critical leading term goes negative
    only along dilations of low reciprocal-J profiles, never along plain
    amplitude rays.  A caller-provided seed joins the bank together with its
    own fiber.
    """
    r, R = grid.r, grid.R
    starts = []
    if seed is not None and float(np.max(np.abs(seed.values))) > 0.0:
        starts.append(("seed", seed.copy(), Phi(seed, spec)))
        try:
            fiber = _Fiber(project_to_M(seed))
            for t in np.logspace(-1.5, 0.0, 9):
                ut = fiber.at(float(t))
                starts.append((f"fiber[seed, t={t:.3g}]", ut, Phi(ut, spec)))
        except (RuntimeError, ValueError):
            pass
    profiles = [(f"gaussian{{{w}}}", np.exp(-((r / w) ** 2))) for w in (0.5, 1.0, 2.0, R / 4, R / 2)]
    profiles.append(("cap", np.maximum(1.0 - (r / R) ** 2, 0.0) ** 2))
    amps = np.logspace(-3.5, 2.0, 34)
    for name, prof in profiles:
        ray = _Ray(Field(grid, prof), spec)
        # one amplitude at a time: the damped primitive's quadrature holds
        # 48 nodes per point, so a whole-scan array would be 34x that
        phis = [ray.phi(a) for a in amps]
        i = int(np.argmin(phis))
        starts.append((f"{name}*{amps[i]:.3g}", Field(grid, amps[i] * prof), float(phis[i])))
    bases = [("gaussian{1.0}", np.exp(-(r ** 2)))]
    bases += [
        (f"heavytail{{{w}}}", (1.0 + (r / w) ** 2) ** (-1.75))
        for w in (1.0, 2.0, 4.0)
    ]
    for name, prof in bases:
        try:
            fiber = _Fiber(project_to_M(Field(grid, prof)))
        except (RuntimeError, ValueError):
            continue
        for t in np.logspace(-2.0, 0.0, 13):
            ut = fiber.at(float(t))
            starts.append((f"fiber[{name}, t={t:.3g}]", ut, Phi(ut, spec)))
    starts.sort(key=lambda s: s[2])
    return starts[:3]


def minimize_subscaled(
    params: ProblemParams,
    grid: RadialGrid,
    spec: NonlinearitySpec,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Global-minimization attempt for coercive (subscaled) actions.

    Multi-start preconditioned descent over a seed bank of widths and
    amplitudes, followed by a Newton polish; the zero field is the answer
    for f = 0.
    """
    return _minimize(params, grid, spec, opts or SolverOptions(), warm=False)


def _minimize(
    params: ProblemParams, grid: RadialGrid, spec: NonlinearitySpec, opts: SolverOptions, warm: bool
) -> SolveReport:
    """Body of :func:`minimize_subscaled`; a ``warm`` field seed is the only start.

    Sweeps continue a branch from the previous row this way.  Every start
    runs descent, Newton and the zero-level check, so a warm row that finds
    no negative-level basin reports the trivial minimizer as a single solve
    does.
    """
    _check_grid(params, grid)
    _require_above(params)
    exps = compute_exponents(params)

    if spec.is_empty:
        return _trivial_minimizer(grid, spec, "empty nonlinearity: Phi has the trivial global minimum")

    _validate_subscaled(spec, exps)

    seed = make_seed(grid, opts) if opts.seed == "field" else None
    if warm and seed is not None:
        starts = [("warm-start", seed, None)]
    else:
        starts = _minimization_starts(grid, spec, seed)
    best = None
    for descriptor, u0, _ in starts:
        pt = _Ray(u0, spec)
        res0 = pt.res
        if res0 == 0.0:
            continue
        tol_abs = opts.tol * res0
        pt, it_d = _descend_Phi(pt, max(opts.tol, _HANDOVER_REL) * res0, opts.max_iter)
        try:
            pt, it_n = _newton_gradient(pt, min(tol_abs, 1e-11 * res0))
        except DegenerateSeedError:
            continue
        if float(np.max(np.abs(pt.u))) < 1e-10:
            continue
        entry = (pt.action, _meets_tol(pt, res0, opts), pt.field, it_d + it_n, descriptor, res0)
        if best is None or (entry[1], -entry[0]) > (best[1], -best[0]):
            best = entry

    if best is None or best[0] >= -1e-14:
        # no nontrivial negative-level basin on this ball: the coercive
        # action attains its infimum at the origin within grid resolution
        return _trivial_minimizer(
            grid, spec, "no negative-action start found on this ball; returning the trivial global minimizer"
        )

    _, ok, u, iters, descriptor, res0 = best
    pt = _Ray(_normalize_sign(u), spec)
    return _certify(
        pt, energy=pt.action, res=pt.res, res0=res0,
        iterations=iters, converged=ok, seed=descriptor, extras={"I": pt.I},
    )


def _trivial_minimizer(grid: RadialGrid, spec: NonlinearitySpec, note: str) -> SolveReport:
    return _certify(
        _Ray(grid.zero_field(), spec), energy=0.0, res=0.0, res0=0.0, iterations=0,
        converged=True, seed="zero", extras={"note": note},
    )


# ---------------------------------------------------------------------------
# mountain pass (superscaled / critical growth)
# ---------------------------------------------------------------------------

def find_negative_energy_point(
    params: ProblemParams,
    grid: RadialGrid,
    spec: NonlinearitySpec,
    width: float = 1.0,
) -> Field:
    """Amplitude continuation along a Gaussian ray until the action is <= 0.

    Doubling locates a sign change of Phi along the ray, bisection tightens
    it, and a point comfortably past the crossing is returned.  Along the
    ray Phi(a g) = a^2 S / 2 + a^4 Q / 4 - int F(a g) with S and Q computed
    once for the shape g (see ``_Ray``), so only the primitive is evaluated
    per amplitude.
    """
    g = np.exp(-((grid.r / width) ** 2))
    ray = _Ray(Field(grid, g), spec)
    a = 1.0
    for _ in range(60):
        if ray.phi(a) <= 0.0:
            break
        a *= 2.0
    else:
        raise NoPassError("no negative-action amplitude found along the Gaussian ray")
    lo, hi = a / 2.0, a
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ray.phi(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return Field(grid, 1.05 * hi * g)


def _nehari_amplitude(ray: _Ray) -> float | None:
    """Largest amplitude where the ray crosses the Nehari set.

    h(a) = Phi'(a u) a u is positive near zero and eventually negative for
    superscaled/critical growth; the outermost + -> - crossing is the
    barrier amplitude of the ray.  A log scan brackets it and ``brentq``
    refines it; both read h from the ray's S and Q (see ``_Ray``).
    """
    amps = np.logspace(-3.0, 3.0, 61)
    hs = ray.nehari(amps)
    crossings = np.flatnonzero((hs[:-1] > 0.0) & (hs[1:] <= 0.0))
    if crossings.size == 0:
        return None
    lo, hi = amps[crossings[-1]], amps[crossings[-1] + 1]
    # the ray goes in ``args``: brentq wraps its function in a closure that
    # refers to itself, and a ray caught in that cycle would keep its field's
    # grid alive until the cycle collector runs
    return brentq(lambda a, ray: ray.nehari(a), lo, hi, args=(ray,), xtol=1e-15 * lo, rtol=1e-15)


def _nehari_descent(
    grid: RadialGrid, spec: NonlinearitySpec, shape0: np.ndarray, switch_rel: float, iters: int = 80
):
    """Monotone barrier-level reduction over amplitude-normalized shapes.

    Each trial shape's Nehari amplitude and level come from one ray; only
    the accepted trial becomes a field, evaluated once.  The descent only has
    to reach Newton's basin: it stops once the dual residual has dropped to
    ``switch_rel`` times its value at the first Nehari point, or after
    ``iters`` steps.  Returns the last Nehari point (evaluated), the
    iteration count and the dual residual at the first Nehari point.
    """
    nrm = math.sqrt(float(np.sum(grid.w * shape0 ** 2)))
    if nrm == 0.0:
        raise DegenerateSeedError("zero shape for the barrier reduction")
    shape = shape0 / nrm
    ray = _Ray(Field(grid, shape), spec)
    amp = _nehari_amplitude(ray)
    if amp is None:
        raise NoPassError("no barrier crossing along the starting ray")
    pt = _Ray(Field(grid, amp * shape), spec)
    phi = float(ray.phi(amp))
    res0 = pt.res
    eta = 1.0 / max(res0, 1e-30)
    it = 0
    for it in range(1, iters + 1):
        res = pt.res
        if res <= switch_rel * res0:
            break
        d = precondition(Field(grid, pt.resid)).values
        accepted = False
        for _ in range(30):
            trial = pt.u - eta * d
            tn = math.sqrt(float(np.sum(grid.w * trial ** 2)))
            if tn == 0.0:
                break
            trial = trial / tn
            ray = _Ray(Field(grid, trial), spec)
            amp = _nehari_amplitude(ray)
            if amp is None:
                eta *= _ARMIJO_SHRINK
                continue
            phit = float(ray.phi(amp))
            if phit <= phi - _ARMIJO_C * eta * res ** 2:
                accepted = True
                break
            eta *= _ARMIJO_SHRINK
        if not accepted:
            break
        pt, phi = _Ray(Field(grid, amp * trial), spec), phit
        eta *= 2.0
    return pt, it, res0


def _is_critical_family(spec: NonlinearitySpec, exps) -> bool:
    return any(
        t.coef != 0.0 and abs(t.effective_exponent - exps.two_star_s) < 1e-9
        for t in spec.terms
    )


def mountain_pass(
    params: ProblemParams,
    grid: RadialGrid,
    spec: NonlinearitySpec,
    e: Field,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Mountain-pass critical point as the least action on the Nehari set.

    For the superscaled and critical growth accepted here the mountain-pass
    level between 0 and a negative-action point e equals the infimum of Phi
    over the Nehari set.  The shape of e is put on that set at its barrier
    amplitude (the outermost crossing of Phi'(a u) a u along its ray), the
    barrier level is reduced over amplitude-normalized shapes, and Newton
    polishes the result into a critical point at positive level.  An e whose
    ray has no crossing raises ``NoPassError``.  For the critical family the
    report carries the concentration-threshold context and flags levels at
    or above it.
    """
    opts = opts or SolverOptions()
    _check_grid(params, grid)
    _require_above(params)
    exps = compute_exponents(params)
    regime = classify_nonlinearity(spec, exps)
    if not (regime.is_superscaled or _is_critical_family(spec, exps)):
        raise RegimeMismatchError(
            "mountain_pass requires superscaled growth or the critical family; "
            f"classifier says {regime.tag.value}"
        )
    if Phi(e, spec) > 0.0:
        raise ValueError("endpoint e must satisfy Phi(e) <= 0")
    if float(np.max(np.abs(e.values))) == 0.0:
        raise ValueError("endpoint e must be nonzero")

    pt, it_r, res0 = _nehari_descent(grid, spec, e.values, max(opts.tol, _HANDOVER_REL))
    pt, it_n = _newton_gradient(pt, min(opts.tol * res0, 1e-11 * res0))
    pt = _Ray(_normalize_sign(pt.field), spec)

    level = pt.action
    if level <= 0.0:
        raise NoPassError("no pass detected: the Nehari reduction ended at a nonpositive level")
    extras = {"I": pt.I, "iterations_nehari": it_r, "iterations_newton": it_n}
    if _is_critical_family(spec, exps):
        S = estimate_sobolev_constant(params, grid)
        cstar = ps_threshold(params, S)
        extras.update(
            {
                "sobolev_constant": S,
                "ps_threshold": cstar,
                "level_exceeds_ps_threshold": bool(level >= cstar),
            }
        )
    return _certify(
        pt, energy=level, res=pt.res, res0=res0, iterations=it_r + it_n,
        converged=_meets_tol(pt, res0, opts), seed="nehari[endpoint]", extras=extras,
    )


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

_SWEEP_METHODS = ("minimize", "eigen1", "mountain-pass")


@dataclass(frozen=True)
class BranchRow:
    param: float
    energy: float
    I: float
    J: float
    multiplier: float | None
    residual: float
    converged: bool
    iterations: int


def sweep(
    params: ProblemParams,
    grid: RadialGrid,
    base_spec: NonlinearitySpec,
    term_index: int,
    values,
    opts: SolverOptions | None = None,
    method: str = "minimize",
) -> list[BranchRow]:
    """Warm-started solves along a monotone parameter range.

    Each row replaces the coefficient of ``base_spec.terms[term_index]`` by
    the next value; the previous solution seeds the next solve.  A
    ``minimize`` row descends from that seed alone and, like a single solve,
    reports the trivial minimizer when no negative level is found.  Failures
    are recorded (NaN energy sentinel) and the sweep continues.
    """
    opts = opts or SolverOptions()
    if method not in _SWEEP_METHODS:
        raise ValueError(f"unknown sweep method {method!r} (expected one of {list(_SWEEP_METHODS)})")
    vals = [float(v) for v in values]
    diffs = np.diff(vals)
    if len(vals) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("sweep range must be monotone")
    rows: list[BranchRow] = []
    warm: Field | None = None
    for v in vals:
        spec_v = base_spec.with_coef(term_index, v)
        run_opts = opts
        if warm is not None and float(np.max(np.abs(warm.values))) > 0.0:
            run_opts = replace(opts, seed="field", seed_field=warm)
        try:
            if method == "minimize":
                rep = _minimize(params, grid, spec_v, run_opts, warm=True)
            elif method == "eigen1":
                rep = eigen1(params, grid, run_opts)
            else:
                e = find_negative_energy_point(params, grid, spec_v)
                rep = mountain_pass(params, grid, spec_v, e, run_opts)
        except Exception as exc:  # record the failure, keep sweeping
            warnings.warn(f"sweep row {v}: {exc}", RuntimeWarning, stacklevel=2)
            rows.append(
                BranchRow(v, math.nan, math.nan, math.nan, None, math.nan, False, 0)
            )
            continue
        warm = rep.solution
        rows.append(
            BranchRow(
                param=v,
                energy=rep.energy if rep.converged else math.nan,
                I=I_functional(rep.solution),
                J=J_functional(rep.solution),
                multiplier=rep.multiplier,
                residual=rep.residual_dual,
                converged=rep.converged,
                iterations=rep.iterations,
            )
        )
    return rows
