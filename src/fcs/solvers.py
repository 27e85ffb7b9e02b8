"""Critical-point finders.

All solvers share the same two-phase strategy: a globalizing first-order
phase (projected/preconditioned descent or ascent with Armijo backtracking)
followed by a damped dense Newton polish on the stationarity system, which
is affordable at desk scale and drives dual residuals to rounding.  Reports
are always recomputed from the stored field so nothing leaks from solver
internals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .diagnostics import (
    estimate_sobolev_constant,
    nehari_residual,
    pohozaev_residual,
    ps_threshold,
)
from .energy import (
    I_functional,
    J_functional,
    NonlinearitySpec,
    Phi,
    Phi_lambda,
    eigen_spec,
    grad_Phi,
)
from .grid import Field, RadialGrid, lp_norm
from .operators import (
    apply_A,
    apply_B,
    dense_fractional_matrix,
    dual_norm,
    frac_seminorm_sq,
    hartree_jacobian,
    hartree_potential_sym,
    apply_fractional_laplacian,
    precondition,
)
from .params import (
    ProblemParams,
    Regime,
    RegimeTag,
    classify_nonlinearity,
    compute_exponents,
)
from .scaling import project_to_M, scale

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
    """Path relaxation found no positive-level barrier."""


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs; Armijo parameters are fixed for reproducible reports."""

    tol: float = 1e-6            # dual-norm target, relative to the initial residual
    max_iter: int = 5000
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    seed: str = "gaussian"       # gaussian | bump | field
    seed_width: float = 1.0
    seed_field: Field | None = None
    use_newton: bool = True
    path_nodes: int = 21

    def __post_init__(self) -> None:
        if not (self.tol > 0.0):
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.path_nodes < 5:
            raise ValueError("need at least 5 path nodes")

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


def _pohozaev_rel_or_none(u: Field, spec: NonlinearitySpec) -> float | None:
    if not spec.is_autonomous:
        return None
    return pohozaev_residual(u, spec).pohozaev_rel


# ---------------------------------------------------------------------------
# amplitude rays
# ---------------------------------------------------------------------------

class _Ray:
    """The action and the Nehari function along the ray a -> a u.

    Both operator parts are homogeneous in the amplitude: with
    S = sum_m k_m^(2s) |u_m|^2 and Q = sum_j w_j u_j^2 (I_alpha * u^2)_j,

        h(a)     = Phi'(a u) a u = a^2 S + a^4 Q - a sum_j w_j f(a u_j) u_j,
        Phi(a u) = a^2 S / 2 + a^4 Q / 4 - sum_j w_j F(a u_j),

    so one transform and one kernel matvec per shape serve every amplitude.
    ``nehari`` and ``phi`` accept a scalar or a 1-D array of amplitudes.
    """

    def __init__(self, u: Field, spec: NonlinearitySpec):
        self.u = u.values
        self.spec = spec
        self.w = u.grid.w
        self.r = u.grid.r
        self.S = frac_seminorm_sq(u)
        self.Q = float(np.sum(self.w * self.u ** 2 * hartree_potential_sym(u)))

    def _points(self, a):
        a = np.asarray(a, dtype=float)
        return a, a[..., None] * self.u

    def nehari(self, a):
        a, au = self._points(a)
        fu = np.sum(self.w * self.spec.f(au, self.r) * self.u, axis=-1)
        return a ** 2 * self.S + a ** 4 * self.Q - a * fu

    def phi(self, a):
        a, au = self._points(a)
        Fu = np.sum(self.w * self.spec.F(au, self.r), axis=-1)
        return 0.5 * a ** 2 * self.S + 0.25 * a ** 4 * self.Q - Fu


# ---------------------------------------------------------------------------
# Newton engines
# ---------------------------------------------------------------------------

def _meets_tol(resid: float, res0: float, opts: SolverOptions, u: Field) -> bool:
    """Relative-to-initial-residual test with a rounding floor.

    A warm start from an already-converged field makes res0 itself rounding
    noise; the floor keeps the criterion meaningful there.
    """
    floor = 1e-12 * max(dual_norm(apply_A(u)), 1.0)
    return resid <= opts.tol * res0 + floor


def _eigen_residual(u: Field, lam: float, p: float) -> Field:
    Au = apply_A(u).values
    Bu = np.abs(u.values) ** (p - 2.0) * u.values
    return Field(u.grid, Au - lam * Bu)


def _rayleigh(u: Field) -> float:
    Au = apply_A(u)
    Bu = apply_B(u)
    den = Bu.pair(u)
    if den == 0.0:
        raise DegenerateSeedError("degenerate seed: B(u) u vanished")
    return Au.pair(u) / den


def _newton_eigen(u: Field, lam: float, tol_abs: float, max_iter: int = 40):
    """Damped Newton on the stationarity system {A(u) = lam B(u), I(u) = 1}."""
    grid = u.grid
    p = compute_exponents(grid.params).two_star_s_alpha
    Lf = dense_fractional_matrix(grid)
    res = dual_norm(_eigen_residual(u, lam, p))
    it = 0
    for it in range(1, max_iter + 1):
        pot = hartree_potential_sym(u)
        Au = apply_fractional_laplacian(u).values + pot * u.values
        Bu = np.abs(u.values) ** (p - 2.0) * u.values
        Fv = np.concatenate([Au - lam * Bu, [I_functional(u) - 1.0]])
        if res <= tol_abs and abs(Fv[-1]) <= 1e-11:
            break
        Jh = Lf + hartree_jacobian(u) - lam * (p - 1.0) * np.diag(np.abs(u.values) ** (p - 2.0))
        jac = np.vstack(
            [
                np.hstack([Jh, -Bu[:, None]]),
                np.concatenate([grid.w * Au, [0.0]])[None, :],
            ]
        )
        try:
            delta = np.linalg.solve(jac, -Fv)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(10):
            trial = u.values + step * delta[: grid.M]
            if not np.all(np.isfinite(trial)):
                step *= 0.5
                continue
            u_try = Field(grid, trial)
            lam_try = lam + step * delta[grid.M]
            res_try = dual_norm(_eigen_residual(u_try, lam_try, p))
            if res_try < res or (res_try < tol_abs and abs(I_functional(u_try) - 1.0) < abs(Fv[-1])):
                u, lam, res = u_try, lam_try, res_try
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return u, lam, res, it


def _newton_gradient(u: Field, spec: NonlinearitySpec, tol_abs: float, max_iter: int = 40):
    """Damped Newton on grad Phi(u) = 0 (finds minima and saddles alike)."""
    grid = u.grid
    Lf = dense_fractional_matrix(grid)
    scale0 = float(np.max(np.abs(u.values)))
    res = dual_norm(grad_Phi(u, spec))
    it = 0
    for it in range(1, max_iter + 1):
        if res <= tol_abs:
            break
        g = grad_Phi(u, spec).values
        jac = Lf + hartree_jacobian(u) - np.diag(spec.fprime(u.values, grid.r))
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(10):
            trial = u.values + step * delta
            if not np.all(np.isfinite(trial)):
                step *= 0.5
                continue
            u_try = Field(grid, trial)
            res_try = dual_norm(grad_Phi(u_try, spec))
            if res_try < res:
                u, res = u_try, res_try
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if float(np.max(np.abs(u.values))) < 1e-10 * max(scale0, 1.0):
            raise DegenerateSeedError("Newton iteration collapsed to the zero field")
    return u, res, it


# ---------------------------------------------------------------------------
# eigenproblem on the manifold
# ---------------------------------------------------------------------------

def _ascend_J(u: Field, opts: SolverOptions, penalty=None, switch_rel: float = 1e-3):
    """Projected preconditioned ascent of J (optionally penalized) on {I = 1}.

    Returns the iterate, the accepted-step objective history (nondecreasing
    by construction), the iteration count, and the initial/final dual
    residuals of the eigen-equation.
    """
    grid = u.grid
    p = compute_exponents(grid.params).two_star_s_alpha

    def objective(v: Field) -> float:
        val = J_functional(v)
        if penalty is not None:
            val -= penalty.value(v)
        return val

    def obj_gradient(v: Field) -> np.ndarray:
        g = np.abs(v.values) ** (p - 2.0) * v.values
        if penalty is not None:
            g = g - penalty.gradient(v)
        return g

    J_hist = [objective(u)]
    lam = _rayleigh(u)
    res0 = dual_norm(_eigen_residual(u, lam, p))
    res = res0
    eta = 1.0
    it = 0
    for it in range(1, opts.max_iter + 1):
        if res <= switch_rel * res0:
            break
        g = obj_gradient(u)
        d = precondition(Field(grid, g)).values
        slope = float(np.sum(grid.w * g * d))
        if slope <= 0.0:
            break
        eta = min(eta * 2.0, 1.0 / max(dual_norm(Field(grid, g)), 1e-30))
        accepted = False
        for _ in range(50):
            try:
                u_try = project_to_M(Field(grid, u.values + eta * d))
            except (RuntimeError, ValueError):
                eta *= opts.armijo_shrink
                continue
            if objective(u_try) >= J_hist[-1] + opts.armijo_c * eta * slope:
                accepted = True
                break
            eta *= opts.armijo_shrink
        if not accepted:
            break
        u = u_try
        J_hist.append(objective(u))
        lam = _rayleigh(u)
        res = dual_norm(_eigen_residual(u, lam, p))
    return u, J_hist, it, res0, res


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
    u = project_to_M(seed)

    u, J_hist, it_ascent, res0, res = _ascend_J(u, opts, switch_rel=max(opts.tol, 1e-3))
    tol_abs = opts.tol * res0
    lam = _rayleigh(u)
    it_newton = 0
    newton_budget = min(40, max(0, opts.max_iter - it_ascent))
    if opts.use_newton and newton_budget > 0:
        u, lam, res, it_newton = _newton_eigen(
            u, lam, min(tol_abs, 1e-11 * res0), max_iter=newton_budget
        )
    u = _normalize_sign(u)

    # recompute all certificates from the stored field
    lam = _rayleigh(u)
    spec = eigen_spec(lam, exps)
    resid = dual_norm(_eigen_residual(u, lam, exps.two_star_s_alpha))
    iu = I_functional(u)
    converged = _meets_tol(resid, res0, opts, u) and abs(iu - 1.0) <= 1e-8
    if float(np.max(np.abs(u.values))) < 1e-12:
        raise DegenerateSeedError("eigen iteration collapsed to the zero field")
    report = SolveReport(
        solution=u,
        energy=Phi_lambda(u, lam),
        multiplier=lam,
        residual_dual=resid,
        residual_rel=resid / res0 if res0 > 0 else 0.0,
        pohozaev_rel=_pohozaev_rel_or_none(u, spec),
        nehari=nehari_residual(u, spec),
        iterations=it_ascent + it_newton,
        converged=converged,
        seed_descriptor=opts.seed_descriptor(),
        grid_summary=grid.summary(),
        extras={
            "I": iu,
            "J": J_functional(u),
            "manifold_defect": iu - 1.0,
            "J_history_monotone": bool(np.all(np.diff(J_hist) >= 0.0)),
            "iterations_ascent": it_ascent,
            "iterations_newton": it_newton,
        },
    )
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
    p = exps.two_star_s_alpha
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
            u, _, it_a, res0, _ = _ascend_J(u, defl_opts, penalty=pen, switch_rel=5e-2)
            lam = _rayleigh(u)
            tol_abs = opts.tol * res0
            u, lam, res, it_n = _newton_eigen(u, lam, min(tol_abs, 1e-11 * res0))
            u = _normalize_sign(u)
            lam = _rayleigh(u)
            resid = dual_norm(_eigen_residual(u, lam, p))
            distinct = all(
                abs(float(np.sum(grid.w * u.values * rep.solution.values)))
                / max(lp_norm(u, 2.0) * lp_norm(rep.solution, 2.0), 1e-300)
                < 0.99
                for rep in reports
            )
            if resid <= tol_abs and distinct:
                spec = eigen_spec(lam, exps)
                iu = I_functional(u)
                reports.append(
                    SolveReport(
                        solution=u,
                        energy=Phi_lambda(u, lam),
                        multiplier=lam,
                        residual_dual=resid,
                        residual_rel=resid / res0 if res0 > 0 else 0.0,
                        pohozaev_rel=_pohozaev_rel_or_none(u, spec),
                        nehari=nehari_residual(u, spec),
                        iterations=it_a + it_n,
                        converged=True,
                        seed_descriptor=descriptor,
                        grid_summary=grid.summary(),
                        extras={
                            "I": iu,
                            "J": J_functional(u),
                            "manifold_defect": iu - 1.0,
                            "ordering": "candidate, uncertified ordering",
                        },
                    )
                )
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

def _descend_Phi(u: Field, spec: NonlinearitySpec, opts: SolverOptions, switch_abs: float, max_iter: int):
    grid = u.grid
    phi = Phi(u, spec)
    eta = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        g = grad_Phi(u, spec)
        res = dual_norm(g)
        if res <= switch_abs:
            break
        d = precondition(g).values
        slope = float(np.sum(grid.w * g.values * d))
        eta = min(eta * 2.0, 1.0 / max(res, 1e-30))
        accepted = False
        for _ in range(60):
            u_try = Field(grid, u.values - eta * d)
            phi_try = Phi(u_try, spec)
            if phi_try <= phi - opts.armijo_c * eta * slope:
                accepted = True
                break
            eta *= opts.armijo_shrink
        if not accepted:
            break
        u, phi = u_try, phi_try
    return u, it


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
            base = project_to_M(seed)
            for t in np.logspace(-1.5, 0.0, 9):
                ut = scale(base, float(t))
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
            base = project_to_M(Field(grid, prof))
        except (RuntimeError, ValueError):
            continue
        for t in np.logspace(-2.0, 0.0, 13):
            ut = scale(base, float(t))
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
    opts = opts or SolverOptions()
    _check_grid(params, grid)
    _require_above(params)
    exps = compute_exponents(params)

    if spec.is_empty:
        zero = grid.zero_field()
        return SolveReport(
            solution=zero,
            energy=0.0,
            multiplier=None,
            residual_dual=0.0,
            residual_rel=0.0,
            pohozaev_rel=0.0 if spec.is_autonomous else None,
            nehari=0.0,
            iterations=0,
            converged=True,
            seed_descriptor="zero",
            grid_summary=grid.summary(),
            extras={"note": "empty nonlinearity: Phi has the trivial global minimum"},
        )

    _validate_subscaled(spec, exps)

    seed = make_seed(grid, opts) if opts.seed == "field" else None
    starts = _minimization_starts(grid, spec, seed)
    best = None
    for descriptor, u0, phi0 in starts:
        res0 = dual_norm(grad_Phi(u0, spec))
        if res0 == 0.0:
            continue
        tol_abs = opts.tol * res0
        u, it_d = _descend_Phi(u0, spec, opts, max(tol_abs, 1e-2 * res0), opts.max_iter)
        it_n = 0
        collapsed = False
        if opts.use_newton:
            try:
                u, _, it_n = _newton_gradient(u, spec, min(tol_abs, 1e-11 * res0))
            except DegenerateSeedError:
                collapsed = True
        if collapsed or float(np.max(np.abs(u.values))) < 1e-10:
            continue
        phi = Phi(u, spec)
        res = dual_norm(grad_Phi(u, spec))
        entry = (phi, _meets_tol(res, res0, opts, u), u, res, it_d + it_n, descriptor, res0)
        if best is None or (entry[1], -entry[0]) > (best[1], -best[0]):
            best = entry

    if best is None or best[0] >= -1e-14:
        # no nontrivial negative-level basin on this ball: the coercive
        # action attains its infimum at the origin within grid resolution
        zero = grid.zero_field()
        return SolveReport(
            solution=zero,
            energy=0.0,
            multiplier=None,
            residual_dual=0.0,
            residual_rel=0.0,
            pohozaev_rel=0.0 if spec.is_autonomous else None,
            nehari=0.0,
            iterations=0,
            converged=True,
            seed_descriptor="zero",
            grid_summary=grid.summary(),
            extras={
                "note": "no negative-action start found on this ball; "
                "returning the trivial global minimizer"
            },
        )

    phi, ok, u, res, iters, descriptor, res0 = best
    u = _normalize_sign(u)
    phi = Phi(u, spec)
    res = dual_norm(grad_Phi(u, spec))
    return SolveReport(
        solution=u,
        energy=phi,
        multiplier=None,
        residual_dual=res,
        residual_rel=res / res0 if res0 > 0 else 0.0,
        pohozaev_rel=_pohozaev_rel_or_none(u, spec),
        nehari=nehari_residual(u, spec),
        iterations=iters,
        converged=ok,
        seed_descriptor=descriptor,
        grid_summary=grid.summary(),
        extras={"I": I_functional(u)},
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


def _respread(path: list[np.ndarray], grid: RadialGrid) -> list[np.ndarray]:
    # re-distribute nodes by arclength in the quadrature L^2 metric
    seg = [
        math.sqrt(float(np.sum(grid.w * (b - a) ** 2)))
        for a, b in zip(path[:-1], path[1:])
    ]
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0.0:
        return path
    targets = np.linspace(0.0, total, len(path))
    out = [path[0]]
    j = 0
    for t in targets[1:-1]:
        while cum[j + 1] < t:
            j += 1
        frac = (t - cum[j]) / max(cum[j + 1] - cum[j], 1e-300)
        out.append((1.0 - frac) * path[j] + frac * path[j + 1])
    out.append(path[-1])
    return out


def _nehari_amplitude(grid: RadialGrid, spec: NonlinearitySpec, shape: np.ndarray) -> float | None:
    """Largest amplitude where the ray through ``shape`` crosses the Nehari set.

    h(a) = Phi'(a u) a u is positive near zero and eventually negative for
    superscaled/critical growth; the outermost + -> - crossing is the
    barrier amplitude of the ray.  Since h(a) = a^2 S + a^4 Q - a int f(a u) u
    with S and Q fixed by the shape (see ``_Ray``), the log scan and the
    bisection cost one transform and one kernel matvec in total.
    """
    ray = _Ray(Field(grid, shape), spec)
    amps = np.logspace(-3.0, 3.0, 61)
    hs = ray.nehari(amps)
    crossings = np.flatnonzero((hs[:-1] > 0.0) & (hs[1:] <= 0.0))
    if crossings.size == 0:
        return None
    idx = crossings[-1]
    lo, hi = amps[idx], amps[idx + 1]
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if ray.nehari(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _nehari_descent(grid: RadialGrid, spec: NonlinearitySpec, shape0: np.ndarray, opts: SolverOptions, iters: int = 80):
    """Monotone barrier-level reduction over amplitude-normalized shapes."""
    nrm = math.sqrt(float(np.sum(grid.w * shape0 ** 2)))
    if nrm == 0.0:
        raise DegenerateSeedError("zero shape for the barrier reduction")
    amp = _nehari_amplitude(grid, spec, shape0 / nrm)
    if amp is None:
        raise NoPassError("no barrier crossing along the starting ray")
    u = Field(grid, amp * shape0 / nrm)
    phi = Phi(u, spec)
    eta = None
    it = 0
    for it in range(1, iters + 1):
        g = grad_Phi(u, spec)
        res = dual_norm(g)
        if eta is None:
            eta = 1.0 / max(res, 1e-30)
        if res < 1e-9:
            break
        d = precondition(g).values
        accepted = False
        for _ in range(30):
            trial = u.values - eta * d
            tn = math.sqrt(float(np.sum(grid.w * trial ** 2)))
            if tn == 0.0:
                break
            trial = trial / tn
            amp = _nehari_amplitude(grid, spec, trial)
            if amp is None:
                eta *= opts.armijo_shrink
                continue
            ut = Field(grid, amp * trial)
            phit = Phi(ut, spec)
            if phit <= phi - opts.armijo_c * eta * res ** 2:
                accepted = True
                break
            eta *= opts.armijo_shrink
        if not accepted:
            break
        u, phi = ut, phit
        eta *= 2.0
    return u, it


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
    """Discretized-path relaxation between 0 and a negative-action point.

    The maximum-action node of a piecewise-linear path is repeatedly relaxed
    by a preconditioned descent step and the nodes are re-spread by
    arclength; the surviving barrier node is polished by Newton into a
    critical-point candidate at positive level.  For the critical family the
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

    P = opts.path_nodes
    path = [tau * e.values for tau in np.linspace(0.0, 1.0, P)]
    res0 = None
    eta = None
    sweeps = 0
    max_sweeps = 30
    for sweeps in range(1, max_sweeps + 1):
        phis = [Phi(Field(grid, v), spec) for v in path]
        m = 1 + int(np.argmax(phis[1:-1]))
        if phis[m] <= 0.0:
            raise NoPassError("no pass detected: the path barrier collapsed to level <= 0")
        um = Field(grid, path[m])
        g = grad_Phi(um, spec)
        res = dual_norm(g)
        if res0 is None:
            res0 = res
            eta = 0.5 / max(res, 1e-30)
        if res <= 1e-2 * res0:
            break
        # climbing-image step: reverse the tangential gradient component so
        # the barrier node ascends along the path while relaxing transversely
        # (a plain descent step on the barrier erodes it)
        tan = path[m + 1] - path[m - 1]
        tn = math.sqrt(float(np.sum(grid.w * tan ** 2)))
        d = precondition(g).values
        if tn > 0.0:
            tan = tan / tn
            c = float(np.sum(grid.w * d * tan))
            d = d - 2.0 * c * tan
        trial = um.values - eta * d
        res_try = dual_norm(grad_Phi(Field(grid, trial), spec))
        if res_try <= res:
            path[m] = trial
            eta *= 1.3
        else:
            eta *= 0.5
        path = _respread(path, grid)

    phis = [Phi(Field(grid, v), spec) for v in path]
    order = sorted(range(1, P - 1), key=lambda i: -phis[i])
    tol_abs = opts.tol * (res0 if res0 else 1.0)
    u = Field(grid, path[order[0]])
    it_n = 0
    if opts.use_newton:
        candidates = []
        # primary finisher: amplitude-normalized (Nehari) descent from the
        # barrier shape, which is monotone and lands in the Newton basin
        try:
            u_r, it_r = _nehari_descent(grid, spec, path[order[0]], opts)
            u_c, res_c, it_c = _newton_gradient(
                u_r, spec, min(tol_abs, 1e-11 * (res0 or 1.0))
            )
            level_c = Phi(u_c, spec)
            if level_c > 0.0 and res_c <= tol_abs:
                candidates.append((level_c, res_c, u_c, it_r + it_c))
        except (DegenerateSeedError, NoPassError):
            pass
        # fallback: plain Newton attempts from the highest path nodes
        if not candidates:
            for idx in order[:3]:
                try:
                    u_c, res_c, it_c = _newton_gradient(
                        Field(grid, path[idx]), spec, min(tol_abs, 1e-11 * (res0 or 1.0))
                    )
                except DegenerateSeedError:
                    continue
                level_c = Phi(u_c, spec)
                if level_c > 0.0 and res_c <= tol_abs:
                    candidates.append((level_c, res_c, u_c, it_c))
        if candidates:
            candidates.sort(key=lambda c: (c[0], c[1]))  # lowest positive barrier
            _, _, u, it_n = candidates[0]
    u = _normalize_sign(u)

    level = Phi(u, spec)
    res = dual_norm(grad_Phi(u, spec))
    if level <= 0.0:
        raise NoPassError("no pass detected: relaxation ended at a nonpositive level")
    converged = _meets_tol(res, res0 if res0 else 1.0, opts, u)
    extras = {"I": I_functional(u), "path_nodes": P}
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
    return SolveReport(
        solution=u,
        energy=level,
        multiplier=None,
        residual_dual=res,
        residual_rel=res / res0 if res0 else 0.0,
        pohozaev_rel=_pohozaev_rel_or_none(u, spec),
        nehari=nehari_residual(u, spec),
        iterations=sweeps + it_n,
        converged=converged,
        seed_descriptor=f"path[{P}]",
        grid_summary=grid.summary(),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

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
    the next value; the previous solution seeds the next solve.  Failures
    are recorded (NaN energy sentinel) and the sweep continues.
    """
    opts = opts or SolverOptions()
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
                rep = _minimize_for_sweep(params, grid, spec_v, run_opts)
            elif method == "eigen1":
                rep = eigen1(params, grid, run_opts)
            elif method == "mountain-pass":
                e = find_negative_energy_point(params, grid, spec_v)
                rep = mountain_pass(params, grid, spec_v, e, run_opts)
            else:
                raise ValueError(f"unknown sweep method {method!r}")
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
                I=rep.extras.get("I", I_functional(rep.solution)),
                J=J_functional(rep.solution),
                multiplier=rep.multiplier,
                residual=rep.residual_dual,
                converged=rep.converged,
                iterations=rep.iterations,
            )
        )
    return rows


def _minimize_for_sweep(params, grid, spec, opts) -> SolveReport:
    """Minimization that honors a warm-start seed instead of the seed bank."""
    if opts.seed != "field":
        return minimize_subscaled(params, grid, spec, opts)
    _check_grid(params, grid)
    _require_above(params)
    exps = compute_exponents(params)
    _validate_subscaled(spec, exps)
    u0 = make_seed(grid, opts)
    res0 = dual_norm(grad_Phi(u0, spec))
    tol_abs = opts.tol * max(res0, 1e-300)
    u, it_d = _descend_Phi(u0, spec, opts, max(tol_abs, 1e-2 * res0), opts.max_iter)
    it_n = 0
    if opts.use_newton:
        u, _, it_n = _newton_gradient(u, spec, min(tol_abs, 1e-11 * max(res0, 1e-300)))
    u = _normalize_sign(u)
    res = dual_norm(grad_Phi(u, spec))
    return SolveReport(
        solution=u,
        energy=Phi(u, spec),
        multiplier=None,
        residual_dual=res,
        residual_rel=res / res0 if res0 > 0 else 0.0,
        pohozaev_rel=_pohozaev_rel_or_none(u, spec),
        nehari=nehari_residual(u, spec),
        iterations=it_d + it_n,
        converged=_meets_tol(res, res0, opts, u),
        seed_descriptor="warm-start",
        grid_summary=grid.summary(),
        extras={"I": I_functional(u)},
    )
