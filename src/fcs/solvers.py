"""Critical-point finders.

Every solver runs the same two phases: one globalizing first-order phase,
``_first_order``, then one damped Newton polish, ``_newton``, which drives
dual residuals to rounding.

``_first_order`` is an L-BFGS Armijo line search over a retraction: a
two-loop recursion over the last ``_LBFGS_MEMORY`` coefficient pairs, with
the dual metric 1/(1 + k^(2s)) of the grid's transform engine as its initial
inverse metric and the preconditioned gradient as its fallback; every k-space
quantity comes from that engine's methods.  Each solver supplies a value, its
gradient's transform coefficients and the retraction onto its set, which is
handed each trial's coefficients along with its node values, so a step
transforms its gradient (and its normal) forward and its direction back,
and no trial: 2 forward and 1 inverse transform per eigen ascent step, 1 and
1 per Sobolev step (the minimizer and the mountain pass transform their
trials, and keep their bits).  The eigen ascent descends -J on
{I = 1}, tangent to it, and each trial returns to it along its own
amplitude ray.  The minimizer descends Phi in the whole space (the identity
retraction).  The mountain pass descends Phi on the Nehari set: each trial
is normalized and moved to its Nehari amplitude.  The phase only has to
reach Newton's basin: it hands over once the dual norm of its (tangent)
gradient has dropped by the factor its caller passes, max(tol,
``_HANDOVER_REL``), and Newton does the converging.  ``eigen1``'s ascent
runs on to ``_EIGEN_HANDOVER_REL`` = 1e-7 whatever tol is: from there
Newton's first step lands at rounding, so each eigenpair costs one ascent
and one Newton system.  ``max_iter`` caps the two phases together: the
first-order phase keeps ``_NEWTON_RESERVE`` steps of it for the polish.
The same engine minimizes the Sobolev quotient for the best Sobolev
constant, which ``diagnostics`` re-exports.

``_newton`` reads its system off the evaluated point: grad Phi(u) = 0 for a
plain point, and for an eigen point {A(u) = lam B(u), I(u) = 1} with lam as
one more unknown.  Up to M = ``operators._DENSE_MAX_M`` (768) each call
assembles its Jacobian in place, into one buffer, and factorizes it; above
it each system is solved matrix-free by ``_gmres`` on transform
coefficients, preconditioned by (-Delta)^(-s), with one transform each way
per iteration and one Arnoldi cycle of at most ``_KRYLOV_MAXITER`` (240)
iterations, to an iterate equal to the LU one to rounding (the cutoff's
measured crossovers are listed at the constant).  Every field a solver
evaluates is evaluated once, as one ``energy._Ray`` (S, Q, the Hartree
potential, A(u) and the residual), and a point accepted by a line search
is carried into the next step as it is.
Reports are recomputed from one evaluation of the stored, sign-normalized
field, so nothing leaks from solver internals.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .energy import MANIFOLD_TOL, DegenerateSeedError, NonlinearitySpec, Phi, _Ray
from .grid import Field, RadialGrid, lp_norm
# unused apply_A: perfbench/test_perfbench.py reads fcs.solvers.apply_A
from .operators import _DENSE_MAX_M, apply_A, dense_fractional_matrix, _riesz_kernel, dual_norm  # noqa: F401
from .params import ExponentTable, ProblemParams, Regime, RegimeTag, classify_nonlinearity

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


class NoPassError(RuntimeError):
    """No positive-level barrier was found between 0 and the endpoint."""


# Armijo sufficient-decrease constant and backtracking factor, fixed so that
# reports are reproducible
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5

# a first-order phase hands over to Newton once its dual residual has
# dropped by this factor (or by the requested tolerance, if that is looser):
# it only has to reach Newton's basin, Newton does the converging
_HANDOVER_REL = 1e-2
# eigen1's ascent hands over at this drop whatever the tolerance: ~10-15
# O(M^2) L-BFGS steps more than at 1e-3, and Newton's first step then lands
# at rounding, so one (M+1) x (M+1) factorization per eigenpair, not two
_EIGEN_HANDOVER_REL = 1e-7
# a first-order phase stops this many steps short of max_iter (it takes at
# least one), so that a capped run still ends with a Newton polish
_NEWTON_RESERVE = 3
_LBFGS_MEMORY = 6  # (s, y) pairs kept by _first_order
# a Newton call hands back once its last _NEWTON_STALL steps together cut the
# residual by less than 10 %: it started outside its basin
_NEWTON_STALL = 6
# GMRES's relative tolerance, on the preconditioned residual's coefficients:
# each Newton iterate equals the LU iterate to rounding
_KRYLOV_RTOL = 1e-10
# GMRES iterations per Newton step, in one cycle: a capped step goes to the
# line search like a converged one, and _newton's stall exit and max_iter
# bound the call (the hardest step measured took 17 iterations)
_KRYLOV_MAXITER = 240
# GMRES breaks down when Gram-Schmidt leaves <= _EPS of a new column's norm:
# the column lies in the basis, and the cycle's solution is exact
_EPS = float(np.finfo(float).eps)
_SOBOLEV_MAX_ITER = 400  # first-order steps of the Sobolev estimate, a guard
_SOBOLEV_TOL = 1e-7      # drop of the tangent gradient's dual norm that stops the descent


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs; the Armijo parameters are fixed module constants."""

    tol: float = 1e-6            # dual-norm target, relative to the initial residual
    max_iter: int = 5000
    seed: str | Field = "gaussian"  # gaussian | bump | the seed field itself
    seed_width: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.seed_width) and self.seed_width > 0.0):
            raise ValueError(f"seed width must be finite and positive, got {self.seed_width!r}")

    def seed_descriptor(self) -> str:
        if isinstance(self.seed, Field):
            return "field"
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
    if isinstance(opts.seed, Field):
        if not opts.seed.grid.same_as(grid):
            raise ValueError("seed field lives on a different grid")
        return opts.seed.copy()
    if opts.seed == "gaussian":
        return Field(grid, np.exp(-((grid.r / opts.seed_width) ** 2)))
    if opts.seed == "bump":
        x = grid.r / (0.5 * grid.R)
        vals = np.where(x < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - x ** 2, 1e-300)), 0.0)
        return Field(grid, vals)
    raise ValueError(f"unknown seed kind {opts.seed!r}")


def _entry(params: ProblemParams, grid: RadialGrid) -> ExponentTable:
    """Every solver's first step: the grid is built for ``params``, 4s + alpha >= N."""
    if grid.params != params:
        raise ValueError("grid was built for different problem parameters")
    if params.regime is Regime.BELOW:
        raise ValueError(
            "solver-facing modules refuse parameters with 4s + alpha < N; "
            "identities are certified only above the threshold"
        )
    return grid.exps


def _normalize_sign(u: Field) -> Field:
    # identify the pair {u, -u}: first node nonnegative
    return Field(u.grid, -u.values) if u.values[0] < 0.0 else u


def _certify(
    u: Field, spec: NonlinearitySpec | None, opts: SolverOptions, *, res0: float, iterations: int, seed: str,
    extras: dict,
) -> SolveReport:
    """The one builder of a ``SolveReport``, from a solver's final field ``u``.

    ``u`` is sign-normalized and evaluated once, as a point of ``spec`` or,
    with ``spec`` None, as the eigen point at its Rayleigh quotient; every
    number of the report is read off that evaluation.  The energy is Phi(u),
    or I - lam J at an eigen point, whose ``lam`` is the multiplier.  The
    verdict is ``_meets_tol``, and at an eigen point also |I(u) - 1| <=
    ``MANIFOLD_TOL``.  Every report carries I and J, an eigen report the
    manifold defect I - 1; the Pohozaev balance is stated only for
    autonomous f.
    """
    pt = _Ray(_normalize_sign(u), spec)
    certified = {"I": pt.I, "J": pt.J}
    if spec is None:
        pt.eigen()
        certified["manifold_defect"] = pt.I - 1.0
    energy = pt.action if spec is not None else pt.I - pt.lam * pt.J
    converged = _meets_tol(pt, res0, opts) and (spec is not None or abs(pt.I - 1.0) <= MANIFOLD_TOL)
    return SolveReport(
        solution=pt.field, energy=energy, multiplier=pt.lam, residual_dual=pt.res,
        residual_rel=pt.res / res0 if res0 > 0 else 0.0,
        pohozaev_rel=pt.pohozaev()[2] if pt.spec.is_autonomous else None, nehari=float(pt.nehari(1.0)),
        iterations=iterations, converged=converged, seed_descriptor=seed,
        grid_summary=pt.field.grid.summary(), extras={**certified, **extras},
    )


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------

def _rounding_floor(pt: _Ray) -> float:
    """1e-12 max(||A(u)||_*, 1): the residual no step can get under.

    A warm start from an already-converged field makes res0 itself rounding
    noise; the floor keeps a relative target meaningful there.
    """
    return 1e-12 * max(dual_norm(Field(pt.field.grid, pt.Au)), 1.0)


def _meets_tol(pt: _Ray, res0: float, opts: SolverOptions) -> bool:
    """Relative-to-initial-residual test with the rounding floor."""
    return pt.res <= opts.tol * res0 + _rounding_floor(pt)


def _jacobian(pt: _Ray, out: np.ndarray) -> np.ndarray:
    """The Newton Jacobian of ``pt``, written into ``out`` and returned:
    L + 2 u_i S_ij u_j + diag(pot - f'(u)), L the grid's dense (-Delta)^s and
    S its stored w-symmetric Riesz kernel, bordered at an eigen point by
    -B(u), w A(u) and 0.  No M x M temporary is allocated.
    """
    grid = pt.field.grid
    u, M = pt.u, grid.M
    block = out[:M, :M]
    np.multiply(_riesz_kernel(grid).sym_matrix(), u[None, :], out=block)
    block *= (2.0 * u)[:, None]
    block += dense_fractional_matrix(grid)
    idx = np.arange(M)
    block[idx, idx] += pt.pot - pt.spec.fprime(u, pt.r)
    if pt.lam is not None:
        out[:M, M] = -pt.Bu
        out[M, :M] = pt.w * pt.Au
        out[M, M] = 0.0
    return out


def _jacobian_matvec(pt: _Ray):
    """c -> K c, the Newton Jacobian of ``pt`` on coefficients, preconditioned
    by (-Delta)^(-s), without a matrix.

    With x = inverse(c) the field's node values, K c = c + k^(-2s) forward(
    2 u S(u x) + (pot - f'(u)) x): k^(-2s) times the coefficients of J x =
    L x + 2 u S(u x) + (pot - f'(u)) x, L = (-Delta)^s, whose k^(2s) c
    cancels exactly, and S x the kernel's w-symmetric product (an FFT at
    N = 3, a stored matrix at other N).  One inverse and one forward
    transform per product.  An eigen point appends mu: the field rows gain
    -mu k^(-2s) forward(B(u)), transformed once here, and the last row is
    <w A(u), x>, unpreconditioned.  The same system ``_jacobian`` assembles
    densely, in node coordinates.
    """
    grid = pt.field.grid
    eng, kernel = grid.transform(), _riesz_kernel(grid)
    u, M = pt.u, grid.M
    diag = pt.pot - pt.spec.fprime(u, pt.r)
    border = None if pt.lam is None else eng.unsymbol(eng.forward(pt.Bu))

    def matvec(v: np.ndarray) -> np.ndarray:
        c = v[:M]
        x = eng.inverse(c)
        out = c + eng.unsymbol(eng.forward(2.0 * u * kernel.sym_potential(u * x) + diag * x))
        if border is None:
            return out
        out -= v[M] * border
        return np.append(out, (pt.w * pt.Au * x).sum())

    return matvec


def _gmres(matvec, b: np.ndarray, rtol: float, maxiter: int):
    """GMRES for matvec(x) = b from x = 0, in one Arnoldi cycle of at most
    ``maxiter`` columns: (x, iterations, info).

    The Krylov basis lives in the rows of one (maxiter + 1) x n array; each
    new column is orthogonalized by classical Gram-Schmidt run twice (BLAS
    products against the basis), and the Hessenberg column is reduced by
    Givens rotations on Python floats.  The cycle ends once the rotated
    residual is <= rtol ||b|| or at a breakdown (the new column lies in the
    basis to rounding), info 0, or after ``maxiter`` columns, info 1; a back
    substitution then gives x, with no further product.  A non-finite
    product gives info -1 and a NaN iterate.  A zero b costs no product.
    """
    n = b.size
    bnorm = math.sqrt(float(b @ b))
    if bnorm == 0.0:
        return np.zeros(n), 0, 0
    atol = rtol * bnorm
    m = min(maxiter, n)
    V = np.empty((m + 1, n))
    np.multiply(b, 1.0 / bnorm, out=V[0])
    g = [bnorm]  # the rotated right-hand side ||b|| e_1
    cols, rots = [], []  # the triangular factor's columns, the rotations
    info = 1
    for j in range(m):
        w = V[j + 1]
        w[:] = matvec(V[j])
        basis = V[: j + 1]
        w0 = math.sqrt(float(w @ w))
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        h += h2
        hn = math.sqrt(float(w @ w))
        if not math.isfinite(hn):
            return np.full(n, math.nan), j + 1, -1
        col = h.tolist()
        for i, (c, s) in enumerate(rots):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        d = math.hypot(col[j], hn)
        c, s = (col[j] / d, hn / d) if d > 0.0 else (1.0, 0.0)
        rots.append((c, s))
        col[j] = d
        cols.append(col)
        g.append(-s * g[j])
        g[j] *= c
        breakdown = hn <= _EPS * w0
        if not breakdown:
            w *= 1.0 / hn
        if abs(g[j + 1]) <= atol or breakdown:
            info = 0
            break
    k = len(cols)
    y = [0.0] * k
    for i in range(k - 1, -1, -1):
        t = g[i] - sum(cols[q][i] * y[q] for q in range(i + 1, k))
        y[i] = t / cols[i][i] if cols[i][i] != 0.0 else 0.0
    return np.array(y) @ V[:k], k, info


def _krylov_step(pt: _Ray, rhs: np.ndarray):
    """The Newton step J delta = rhs by GMRES on coefficients, left
    preconditioned by (-Delta)^(-s), k^(-2s), on the field block (identity
    on the multiplier): ``_gmres`` solves K c = k^(-2s) forward(rhs) with K
    from ``_jacobian_matvec`` to ``_KRYLOV_RTOL``, and delta = inverse(c).
    Returns delta, the GMRES iterations and GMRES's info.  The right-hand
    side, the border and the iterate are transformed once per call, and
    each GMRES iteration makes one transform each way.  The Euclidean norm
    GMRES minimizes is then, by Plancherel, the quadrature w-norm of the
    preconditioned residual.  The preconditioned J is the identity plus a
    compact part, and k^(-2s) carries no length scale, so the count stays
    flat in R and M: measured per step, 12-16 iterations at R = 20,
    M = 1024 (eigen1 at N = 2 to 5, the N = 3 mountain pass), 17 for
    eigen1 at R = 160, M = 16384, and 2-13 for the N = 3 subscaled
    minimizer (beta = 2.7) at R = 160 and 320, whose well is wide and
    shallow.  One cycle of at most ``_KRYLOV_MAXITER`` iterations runs, and
    the iterate is returned whatever GMRES reports: ``_newton``'s line
    search judges it.
    """
    eng, M = pt.field.grid.transform(), pt.u.size
    b = np.concatenate((eng.unsymbol(eng.forward(rhs[:M])), rhs[M:]))
    c, its, info = _gmres(_jacobian_matvec(pt), b, _KRYLOV_RTOL, _KRYLOV_MAXITER)
    return np.concatenate((eng.inverse(c[:M]), c[M:])), its, info


def _newton(pt: _Ray, res0: float, tol: float, max_iter: int, krylov: list | None = None):
    """Damped Newton on the stationarity system of the evaluated point ``pt``.

    A plain point solves grad Phi(u) = A(u) - f(u) = 0 (minima and saddles
    alike).  An eigen point (``pt.lam`` set, see ``_Ray.eigen``) adds lam as
    an unknown and I(u) = 1 as an equation, {A(u) = lam B(u), I(u) = 1},
    with the bordered Jacobian

        [[L + H(u) - diag(f'(u)), -B(u)], [w A(u), 0]],   f = lam |t|^(q*-2) t.

    Up to M = ``_DENSE_MAX_M`` ``_jacobian`` assembles it off the
    point, into one buffer per call, and ``np.linalg.solve`` factorizes it; above
    it no matrix is built and ``_krylov_step`` runs GMRES on
    ``_jacobian_matvec`` (at N = 3, with the FFT kernel product, 15x faster
    at M = 1024 and faster down to M = 384, see the constant).  A singular
    LU or a non-finite GMRES step ends the call.  The target is min(tol,
    1e-11) res0 plus the rounding floor of the start point (see
    ``_rounding_floor``).  A step is halved until the
    residual decreases or, once the residual is under the target, until the
    manifold defect I(u) - 1 does (0 for a plain point), and a call stops
    once its last ``_NEWTON_STALL`` steps cut a residual above the target by
    < 10 %.
    Returns the last accepted point and the iteration count; a point accepted
    by the line search is carried into the next step as it is.  Each
    Krylov step appends its GMRES (iterations, info) to ``krylov``, if given.
    """
    grid = pt.field.grid
    M = grid.M
    bordered = pt.lam is not None
    dense = M <= _DENSE_MAX_M
    jac = np.empty((M + bordered, M + bordered)) if dense else None
    tol_abs = min(tol, 1e-11) * res0 + _rounding_floor(pt)

    def defect(q: _Ray) -> float:
        return q.I - 1.0 if bordered else 0.0

    scale0 = float(np.max(np.abs(pt.u)))
    recent = deque([pt.res], maxlen=_NEWTON_STALL + 1)
    it = 0
    for it in range(1, max_iter + 1):
        d0 = defect(pt)
        stalled = len(recent) > _NEWTON_STALL and pt.res > max(0.9 * recent[0], tol_abs)
        if stalled or (pt.res <= tol_abs and abs(d0) <= 1e-11):
            break
        rhs = np.append(pt.resid, d0) if bordered else pt.resid
        if dense:
            try:
                delta = np.linalg.solve(_jacobian(pt, jac), -rhs)
            except np.linalg.LinAlgError:
                break
        else:
            delta, its, info = _krylov_step(pt, -rhs)
            if krylov is not None:
                krylov.append((its, info))
            if not np.all(np.isfinite(delta)):
                break
        step = 1.0
        for _ in range(10):
            trial = pt.u + step * delta[:M]
            if not np.all(np.isfinite(trial)):
                step *= 0.5
                continue
            u_try = Field(grid, trial)
            pt_try = _Ray(u_try).eigen(pt.lam + step * delta[M]) if bordered else _Ray(u_try, pt.spec)
            if pt_try.res < pt.res or (pt_try.res < tol_abs and abs(defect(pt_try)) < abs(d0)):
                pt = pt_try
                recent.append(pt.res)
                break
            step *= 0.5
        else:  # no trial was accepted
            break
        if float(np.max(np.abs(pt.u))) < 1e-10 * max(scale0, 1.0):
            raise DegenerateSeedError("Newton iteration collapsed to the zero field")
    return pt, it


def _polish(pt: _Ray, res0: float, opts: SolverOptions, used: int):
    """``_newton`` in the steps that ``used`` first-order steps left of
    max_iter, at most 40; no call when none is left.  Returns the point,
    the step count and the report keys of the Krylov steps, none at or
    below the dense cutoff: the GMRES iterations of each step and how many
    of them ended at ``_KRYLOV_MAXITER`` iterations unconverged."""
    budget = min(40, opts.max_iter - used)
    steps = []
    pt, it = _newton(pt, res0, opts.tol, budget, steps) if budget > 0 else (pt, 0)
    if not steps:
        return pt, it, {}
    return pt, it, {
        "krylov_iterations": [its for its, _ in steps], "krylov_capped": sum(info > 0 for _, info in steps),
    }


# ---------------------------------------------------------------------------
# the first-order phase
# ---------------------------------------------------------------------------

# the engine reduces with x.sum(), not np.sum(x): the same add.reduce at half
# the call overhead, and at M = 256 an ascent step is mostly call overhead
def _two_loop(b: np.ndarray, pairs, eng) -> np.ndarray:
    """L-BFGS two-loop recursion H b over ``pairs`` (s, y, <s, y>), oldest
    first, from the engine's inverse metric P scaled by <s, y> / <y, P y>."""
    q = b.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        a = float((s * q).sum()) / sy
        q -= a * y
        alphas.append(a)
    _, y, sy = pairs[-1]
    r = eng.metric((sy / eng.dual(y, y)) * q)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        r += (a - float((y * r).sum()) / sy) * s
    return r


def _first_order(pt: _Ray, value, grad, retract, max_iter: int, handover: float, normal=None):
    """Retracted, preconditioned L-BFGS descent of ``value`` from ``pt``.

    The one first-order phase of every solver and of the Sobolev-constant
    estimate (``_sobolev_descent``); each caller supplies its problem as
    ``value(q)`` and ``grad(q)`` of an evaluated point q, and ``retract(v,
    b)``, which returns the evaluated point its set assigns to the node
    values v with transform coefficients b (None where there is none).
    ``grad`` and ``normal`` return transform coefficients, and every vector
    below is one.  With g = ``grad(q)`` and P the k-space multiplier
    1/(1 + k^(2s)), a ``normal`` n = ``normal(q)`` makes the gradient tangent
    to its level set, P g_t = P g - (<n, P g> / <n, P n>) P n.
    The direction d is the L-BFGS two-loop recursion (``_two_loop``, Nocedal
    & Wright ch. 7) on g_t over the last ``_LBFGS_MEMORY`` pairs s, y
    (differences of the points' and of the tangent gradients' coefficients,
    kept where <s, y> > 0, no vector transport), projected back onto the
    tangent space the same way; its first trial step is 1.  With an empty
    memory, or where the slope <g, d> is not positive, d = P g_t from the
    step min(2 eta, 1/||g||_*), eta the last accepted step (1 before the
    first).  Each search backtracks over ``retract(u - eta inverse(d),
    u_b - eta d)``, u_b the point's coefficients (at most 30 Armijo trials),
    and the accepted trial is the next point as it is.  So a step makes one
    inverse transform, of d, besides what ``grad`` and ``normal`` make; a
    retraction that evaluates its trial from b transforms nothing, since
    forward(inverse(d)) = d to rounding (the minimizer's and the Nehari
    retractions transform v instead and keep their bits).

    Returns the last point, the value history (nonincreasing), the step count
    and why the phase stopped: ``handover`` (the tangent gradient's dual
    norm dropped by ``handover``, or under 1e-12 ||g||_*),
    ``line_search`` (no trial accepted) or ``max_iter``.
    """
    eng = pt.field.grid.transform()
    values = [value(pt)]
    eta = 1.0
    prev = None  # the previous point's coefficients and tangent gradient
    pairs = deque(maxlen=_LBFGS_MEMORY)
    gt0 = None
    stop = "max_iter"
    for _ in range(max_iter):
        b_g = b_t = grad(pt)
        if normal is not None:
            b_n = normal(pt)
            n_dual = eng.dual(b_n, b_n)
            b_t = b_g - eng.dual(b_n, b_g) / n_dual * b_n
        gt_sq = eng.dual(b_t, b_t)  # ||g_t||_*^2
        gt, g_dual = math.sqrt(gt_sq), math.sqrt(eng.dual(b_g, b_g))
        gt0 = gt if gt0 is None else gt0
        # the floor: from a converged field gt0 is itself rounding noise
        if gt <= handover * gt0 + 1e-12 * g_dual:
            stop = "handover"
            break
        if prev is not None:
            s, y = pt._b - prev[0], b_t - prev[1]
            sy = float((s * y).sum())
            if sy > 0.0:
                pairs.append((s, y, sy))
        slope = 0.0
        if pairs:
            r = _two_loop(b_t, pairs, eng)
            if normal is not None:
                r -= float((b_n * r).sum()) / n_dual * eng.metric(b_n)
            slope = float((b_t * r).sum())
        if slope > 0.0:
            eta = 1.0
        else:  # the preconditioned gradient, of slope ||g_t||_*^2
            r, slope = eng.metric(b_t), gt_sq
            eta = min(eta * 2.0, 1.0 / max(g_dual, 1e-30))
        d = eng.inverse(r)
        for _ in range(30):
            trial = retract(pt.u - eta * d, pt._b - eta * r)
            if trial is not None:
                v_try = value(trial)
                if v_try <= values[-1] - _ARMIJO_C * eta * slope:
                    break
            eta *= _ARMIJO_SHRINK
        else:
            stop = "line_search"
            break
        values.append(v_try)
        prev = (pt._b, b_t)
        pt = trial
    return pt, values, len(values) - 1, stop


def _first_order_cap(opts: SolverOptions, own: int | None = None) -> int:
    """Steps of a first-order phase: its ``own`` cap (None: none) within
    max_iter less ``_NEWTON_RESERVE``, and at least one."""
    cap = max(opts.max_iter - _NEWTON_RESERVE, 1)
    return cap if own is None else min(own, cap)


# ---------------------------------------------------------------------------
# best-constant estimation and the concentration threshold
# ---------------------------------------------------------------------------

def _sobolev_descent(grid: RadialGrid, u0: np.ndarray):
    """``_first_order`` on the Sobolev quotient from ``u0``, as the estimate runs it."""
    p = grid.exps.two_star_s
    eng = grid.transform()
    no_potential = np.zeros(grid.M)

    def on_sphere(v: np.ndarray, b: np.ndarray) -> _Ray | None:
        # v / |v|_p, evaluated without the Hartree part
        nrm = float(np.sum(grid.w * np.abs(v) ** p)) ** (1.0 / p)
        if nrm == 0.0:
            return None
        return _Ray(Field(grid, v / nrm), None, b / nrm, no_potential)

    return _first_order(
        on_sphere(u0, eng.forward(u0)), lambda q: q.S, lambda q: 2.0 * eng.symbol(q._b), on_sphere,
        _SOBOLEV_MAX_ITER, _SOBOLEV_TOL, normal=lambda q: eng.forward(np.abs(q.u) ** (p - 2.0) * q.u),
    )


def estimate_sobolev_constant(params: ProblemParams, grid: RadialGrid) -> float:
    """Estimate the best constant S with |u|_{2*_s}^2 <= S^{-1} |(-Delta)^{s/2}u|^2.

    ``_first_order`` minimizes S(u) = |(-Delta)^{s/2}u|^2 (gradient
    2 (-Delta)^s u) on {|u|_p = 1}, p = 2*_s (normal |u|^(p-2) u, retraction
    v -> v / |v|_p), over points with no Hartree part, from exp(-r^2), and
    hands over once its tangent gradient's dual norm has dropped by
    ``_SOBOLEV_TOL`` (at most ``_SOBOLEV_MAX_ITER`` steps).  Cached per grid.
    """
    if params.regime is not Regime.ABOVE:
        raise ValueError("below-regime ranges not supported")
    cached = grid._caches.get("sobolev_constant")
    if cached is not None:
        return cached
    best = _sobolev_descent(grid, np.exp(-grid.r ** 2))[0]
    grid._caches["sobolev_constant"] = best.S
    # the values, not a Field: a Field points back at the grid, and that
    # cycle would leave a dead grid to the cycle collector
    grid._caches["sobolev_extremal"] = best.u
    return best.S


def sobolev_extremal(params: ProblemParams, grid: RadialGrid) -> Field:
    """The minimizing profile behind :func:`estimate_sobolev_constant`."""
    estimate_sobolev_constant(params, grid)
    return Field(grid, grid._caches["sobolev_extremal"].copy())


def sobolev_residual_dual(params: ProblemParams, grid: RadialGrid) -> float:
    """||(-Delta)^s u - S |u|^(p-2) u||_* at the extremal u, p = 2*_s."""
    S = estimate_sobolev_constant(params, grid)
    u, p, eng = grid._caches["sobolev_extremal"], grid.exps.two_star_s, grid.transform()
    return dual_norm(Field(grid, eng.lap(eng.forward(u)) - S * np.abs(u) ** (p - 2.0) * u))


def ps_threshold(params: ProblemParams, S: float) -> float:
    """Concentration-compactness level (s/N) S^(N/(2s))."""
    if not (S > 0.0):
        raise ValueError("S must be positive")
    return (params.s / params.N) * S ** (params.N / (2.0 * params.s))


# ---------------------------------------------------------------------------
# eigenproblem on the manifold
# ---------------------------------------------------------------------------

def _handover(opts: SolverOptions) -> float:
    """The hand-over drop of every first-order phase but ``eigen1``'s."""
    return max(opts.tol, _HANDOVER_REL)


def _ascend_J(pt: _Ray, cap: int, handover: float, penalty=None):
    """``_first_order`` on {I = 1}, at most ``cap`` steps: the ascent of J
    (less a ``penalty``).

    It descends -J = -<B(u), u>/q* with gradient -B(u), tangent to {I = 1}
    (the normal is A(u) = I'(u), whose coefficients k^(2s) u_b + forward(pot
    u) take one transform), and each trial, evaluated from its carried
    coefficients, returns to {I = 1} along its own amplitude ray
    (``_Ray.on_manifold``).
    """
    grid = pt.field.grid
    eng = grid.transform()

    def value(q: _Ray) -> float:
        val = -q.Bu_u / q.q_star
        return val if penalty is None else val + penalty.value(q.field)

    def grad(q: _Ray) -> np.ndarray:
        return eng.forward(-q.Bu if penalty is None else -q.Bu + penalty.gradient(q.field))

    return _first_order(
        pt, value, grad, lambda v, b: _Ray(Field(grid, v), None, b).on_manifold(), cap, handover,
        normal=lambda q: eng.symbol(q._b) + eng.forward(q.pot * q.u),
    )


def eigen1(params: ProblemParams, grid: RadialGrid, opts: SolverOptions | None = None) -> SolveReport:
    """First-eigenvalue run: maximize J on the unit-energy manifold.

    The seed goes onto {I = 1} along its amplitude ray (a seed whose ray
    has no such point raises ``DegenerateSeedError``), the first-order
    phase is the tangent ascent ``_ascend_J`` of J to ``_EIGEN_HANDOVER_REL``
    (at most max_iter - ``_NEWTON_RESERVE`` steps), and one Newton polish
    on the stationarity system then drives the dual residual of
    A(u) - lam B(u) to the requested relative tolerance (``_eigenpair``).
    Reported multiplier is the Rayleigh quotient <A(u), u> / <B(u), u>.
    """
    opts = opts or SolverOptions()
    _entry(params, grid)
    start = _Ray(make_seed(grid, opts)).on_manifold()
    if start is None:
        raise DegenerateSeedError("degenerate seed: it is zero or underflows on this grid")
    return _eigenpair(start, opts, _first_order_cap(opts), _EIGEN_HANDOVER_REL, opts.seed_descriptor())


def _eigenpair(start: _Ray, opts: SolverOptions, cap: int, handover: float, seed: str, penalty=None):
    """The one path from ``start`` on {I = 1} to a certified eigenpair:
    ``_ascend_J`` (``cap`` steps, hand-over ``handover``, less ``penalty``),
    ``_polish`` and ``_certify``, from res0 of ``start``'s eigen point."""
    res0 = start.eigen().res
    pt, values, it_ascent, stop = _ascend_J(start, cap, handover, penalty)
    pt, it_newton, krylov = _polish(pt.eigen(), res0, opts, it_ascent)
    return _certify(
        pt.field, None, opts, res0=res0, iterations=it_ascent + it_newton, seed=seed,
        extras={
            "J_history_monotone": bool(np.all(np.diff(values) <= 0.0)),
            "iterations_ascent": it_ascent,
            "iterations_newton": it_newton,
            "ascent_stop": stop,
            **krylov,
        },
    )


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
    runs ``eigen1``'s path, ``_eigenpair``, and is distinct from the
    candidates before it.  The first candidate is ``eigen1``'s; the
    penalized ascents after it hand over at ``_HANDOVER_REL``, not at
    ``eigen1``'s later ``_EIGEN_HANDOVER_REL``, and take at most 300 steps;
    a candidate's ``J_history_monotone`` reads its values -J + penalty.  A
    bank seed that is zero or underflows on the grid is skipped.
    """
    opts = opts or SolverOptions()
    if k < 1:
        raise ValueError("k must be >= 1")
    first = eigen1(params, grid, opts)
    first.extras["ordering"] = "candidate, uncertified ordering"
    reports = [first]
    if k == 1:
        return reports

    cap = _first_order_cap(opts, 300)
    for descriptor, seed_vals in _deflation_seed_bank(grid):
        if len(reports) >= k:
            break
        weight = 10.0 / max(first.extras["J"], 1e-12)
        start = _Ray(Field(grid, seed_vals)).on_manifold()
        if start is None:
            continue
        for _ in range(3):  # halve the penalty on stagnation
            pen = _DeflationPenalty([rep.solution for rep in reports], weight)
            cand = _eigenpair(start, opts, cap, _handover(opts), descriptor, pen)
            cand.extras["ordering"] = "candidate, uncertified ordering"
            u = cand.solution
            distinct = all(
                abs(float(np.sum(grid.w * u.values * rep.solution.values)))
                / max(lp_norm(u, 2.0) * lp_norm(rep.solution, 2.0), 1e-300)
                < 0.99
                for rep in reports
            )
            if cand.converged and distinct:
                reports.append(cand)
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

    Amplitude rays over Gaussian/parabolic-cap profiles, each at its least
    scanned action (the cap captures wide flat wells); a caller-provided
    seed joins the bank as it is.  No start is dilated.
    """
    r, R = grid.r, grid.R
    starts = []
    if seed is not None and float(np.max(np.abs(seed.values))) > 0.0:
        starts.append(("seed", seed.copy(), Phi(seed, spec)))
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
    starts.sort(key=lambda s: s[2])
    return starts[:3]


def minimize_subscaled(
    params: ProblemParams,
    grid: RadialGrid,
    spec: NonlinearitySpec,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Global-minimization attempt for coercive (subscaled) actions.

    Multi-start preconditioned descent (``_first_order`` on the whole space)
    from the three lowest starts of ``_minimization_starts`` (amplitude rays
    of a few profiles, and the caller's field seed), each followed by a
    Newton polish; the zero field is the answer for f = 0.
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
    exps = _entry(params, grid)
    starts = []
    if not spec.is_empty:
        _validate_subscaled(spec, exps)
        seed = make_seed(grid, opts) if isinstance(opts.seed, Field) else None
        if warm and seed is not None:
            starts = [("warm-start", seed, None)]
        else:
            starts = _minimization_starts(grid, spec, seed)
    best = None
    eng = grid.transform()
    for descriptor, u0, _ in starts:
        pt = _Ray(u0, spec)
        res0 = pt.res
        if res0 == 0.0:
            continue
        # the trial's own forward transform, not the carried coefficients:
        # the pick among starts compares levels that can tie to rounding
        pt, _, it_d, _ = _first_order(
            pt, lambda q: q.action, lambda q: eng.forward(q.resid), lambda v, b: _Ray(Field(grid, v), spec),
            _first_order_cap(opts), _handover(opts),
        )
        try:
            pt, it_n, krylov = _polish(pt, res0, opts, it_d)
        except DegenerateSeedError:
            continue
        if float(np.max(np.abs(pt.u))) < 1e-10:
            continue
        entry = (pt.action, _meets_tol(pt, res0, opts), pt.field, it_d + it_n, descriptor, res0, krylov)
        if best is None or (entry[1], -entry[0]) > (best[1], -best[0]):
            best = entry

    if best is None or best[0] >= -1e-14:
        # no nontrivial negative-level basin on this ball (none is sought
        # for f = 0): the coercive action attains its infimum at the origin
        # within grid resolution.  The zero field is certified against the
        # live terms only: a zero-coefficient |t|^(q-2) t with q < 2 reads
        # 0 * inf = nan at t = 0
        note = (
            "empty nonlinearity: Phi has the trivial global minimum" if spec.is_empty
            else "no negative-action start found on this ball; returning the trivial global minimizer"
        )
        live = NonlinearitySpec(tuple(t for t in spec.terms if t.coef != 0.0))
        return _certify(grid.zero_field(), live, opts, res0=0.0, iterations=0, seed="zero", extras={"note": note})
    _, _, u, iters, descriptor, res0, krylov = best
    return _certify(u, spec, opts, res0=res0, iterations=iters, seed=descriptor, extras=krylov)


# ---------------------------------------------------------------------------
# mountain pass (superscaled / critical growth)
# ---------------------------------------------------------------------------

def _is_critical_family(spec: NonlinearitySpec, exps) -> bool:
    return any(
        t.coef != 0.0 and abs(t.effective_exponent - exps.two_star_s) < 1e-9
        for t in spec.terms
    )


def _pass_entry(params: ProblemParams, grid: RadialGrid, spec: NonlinearitySpec) -> ExponentTable:
    """``_entry`` plus a mountain pass's growth class: superscaled or the critical family."""
    exps = _entry(params, grid)
    regime = classify_nonlinearity(spec, exps)
    if not (regime.is_superscaled or _is_critical_family(spec, exps)):
        raise RegimeMismatchError(
            "mountain_pass requires superscaled growth or the critical family; "
            f"classifier says {regime.tag.value}"
        )
    return exps


def find_negative_energy_point(
    params: ProblemParams,
    grid: RadialGrid,
    spec: NonlinearitySpec,
    width: float = 1.0,
) -> Field:
    """a g for the first a = 1, 2, 4, ..., 2^59 with Phi(a g) <= 0, g = exp(-(r/width)^2).

    ``mountain_pass`` keeps only the shape of its endpoint, and normalizes a
    power-of-two multiple of g exactly.  Phi(a g) = a^2 S / 2 + a^4 Q / 4 -
    int F(a g) reads S and Q of g (see ``_Ray``).  ``mountain_pass``'s entry
    checks run first; ``NoPassError`` if no such a exists, or if g is zero or
    underflows on the grid (its ray has no point on {I = 1}).
    """
    _pass_entry(params, grid, spec)
    g = np.exp(-((grid.r / width) ** 2))
    ray = _Ray(Field(grid, g), spec)
    if ray.on_manifold() is None:
        raise NoPassError(f"no endpoint: the width-{width} Gaussian is zero or underflows on this grid")
    a = 1.0
    for _ in range(60):
        if ray.phi(a) <= 0.0:
            return Field(grid, a * g)
        a *= 2.0
    raise NoPassError("no negative-action amplitude found along the Gaussian ray")


def _nehari_amplitude(ray: _Ray) -> float | None:
    """The barrier amplitude of the ray: where Phi(a u) is largest.

    h(a) = Phi'(a u) a u = a d/da Phi(a u) is positive near zero and
    eventually negative for superscaled/critical growth, so each + -> -
    crossing of h is a local maximum of Phi along the ray.  A log scan
    brackets the crossings, ``brentq`` refines each one, and the root with
    the largest Phi is the ray's maximum.  Both read the ray's S and Q (see
    ``_Ray``).
    """
    from scipy.optimize import brentq  # loaded by the first mountain pass only

    amps = np.logspace(-3.0, 3.0, 61)
    hs = ray.nehari(amps)
    crossings = np.flatnonzero((hs[:-1] > 0.0) & (hs[1:] <= 0.0))
    if crossings.size == 0:
        return None
    # the ray goes in ``args``: brentq wraps its function in a closure that
    # refers to itself, and a ray caught in that cycle would keep its field's
    # grid alive until the cycle collector runs
    roots = [
        brentq(lambda a, ray: ray.nehari(a), lo, hi, args=(ray,), xtol=1e-15 * lo, rtol=1e-15)
        for lo, hi in zip(amps[crossings], amps[crossings + 1])
    ]
    return max(roots, key=ray.phi)


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
    amplitude (``_nehari_amplitude``: the maximum of Phi along its ray), the
    first-order phase lowers Phi over the Nehari set (each trial normalized
    and moved to its own barrier amplitude; at most 80 steps, and at most
    max_iter - ``_NEWTON_RESERVE``), and Newton polishes the result into a
    critical point in the steps left.  A polished level <= 0, or an
    e whose ray has no crossing, raises ``NoPassError``.  For the critical
    family the report carries the concentration-threshold context and flags
    levels at or above it.  Before any work it checks, each a ``ValueError``:
    the grid's params, 4s + alpha >= N, the growth class
    (``RegimeMismatchError``), e on the same grid, and a nonzero e with
    Phi(e) <= 0.
    """
    opts = opts or SolverOptions()
    exps = _pass_entry(params, grid, spec)
    if not e.grid.same_as(grid):
        raise ValueError("endpoint e lives on a different grid")
    if Phi(e, spec) > 0.0:
        raise ValueError("endpoint e must satisfy Phi(e) <= 0")
    if float(np.max(np.abs(e.values))) == 0.0:
        raise ValueError("endpoint e must be nonzero")

    def to_nehari(v: np.ndarray, b=None) -> _Ray | None:
        # v normalized and moved to the Nehari amplitude of its ray; b is not
        # carried: the level's Pohozaev balance cancels to ~4e-4, and a
        # rounding-level move of S shows in it beyond the golden tolerance
        nrm = math.sqrt(float((grid.w * v ** 2).sum()))
        if nrm == 0.0:
            return None
        ray = _Ray(Field(grid, v / nrm), spec)
        amp = _nehari_amplitude(ray)
        return None if amp is None else ray.at(amp * amp)

    pt = to_nehari(e.values)
    if pt is None:
        raise NoPassError("no barrier crossing along the starting ray")
    res0 = pt.res
    eng = grid.transform()
    pt, _, it_r, _ = _first_order(
        pt, lambda q: q.action, lambda q: eng.forward(q.resid), to_nehari, _first_order_cap(opts, 80),
        _handover(opts),
    )
    pt, it_n, krylov = _polish(pt, res0, opts, it_r)
    rep = _certify(
        pt.field, spec, opts, res0=res0, iterations=it_r + it_n, seed="nehari[endpoint]",
        extras={"iterations_nehari": it_r, "iterations_newton": it_n, **krylov},
    )
    if rep.energy <= 0.0:
        raise NoPassError("no pass detected: the Nehari reduction ended at a nonpositive level")
    if _is_critical_family(spec, exps):
        S = estimate_sobolev_constant(params, grid)
        cstar = ps_threshold(params, S)
        rep.extras.update(
            {
                "sobolev_constant": S,
                "ps_threshold": cstar,
                "level_exceeds_ps_threshold": bool(rep.energy >= cstar),
            }
        )
    return rep


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

# eigen1 is no sweep method: it never reads the nonlinearity, so every row
# would solve the same problem
_SWEEP_METHODS = ("minimize", "mountain-pass")


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
    the next value; the previous solution seeds the next ``minimize``
    solve.  A ``minimize`` row descends from that seed alone and, like a
    single solve, reports the trivial minimizer when no negative level is
    found.  A ``mountain-pass`` row ignores the seed: it takes its
    endpoint from the width-1 Gaussian ray (``find_negative_energy_point``),
    so it equals the single solve at its coefficient.  A row that raises
    ``ValueError`` (``LinAlgError`` too), ``NoPassError`` or
    ``DegenerateSeedError`` is recorded (NaN energy sentinel) and the sweep
    continues; any other error propagates.  A bad method,
    ``term_index``, range, grid or 4s + alpha < N raises ``ValueError``
    before the first row (a row's growth class depends on its coefficient).
    """
    opts = opts or SolverOptions()
    if method not in _SWEEP_METHODS:
        raise ValueError(f"unknown sweep method {method!r} (expected one of {list(_SWEEP_METHODS)})")
    if term_index not in range(len(base_spec.terms)):
        raise ValueError(f"term index {term_index} out of range for {len(base_spec.terms)} nonlinearity terms")
    _entry(params, grid)
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
            run_opts = replace(opts, seed=warm)
        try:
            if method == "minimize":
                rep = _minimize(params, grid, spec_v, run_opts, warm=True)
            else:
                e = find_negative_energy_point(params, grid, spec_v)
                rep = mountain_pass(params, grid, spec_v, e, run_opts)
        except (ValueError, NoPassError, DegenerateSeedError) as exc:  # record the failure, keep sweeping
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
                I=rep.extras["I"],
                J=rep.extras["J"],
                multiplier=rep.multiplier,
                residual=rep.residual_dual,
                converged=rep.converged,
                iterations=rep.iterations,
            )
        )
    return rows
