"""Identity residuals, the best Sobolev constant and the linking probe.

The Pohozaev-type balance is the designated detector for convention or
quadrature inconsistencies: for a genuine critical point it must close, and
any Fourier-normalization mismatch between the spectral and kernel paths
would leave an O(1) floor in it.  All diagnostics are pure functions of
(field, nonlinearity, parameters): byte-identical inputs give byte-identical
records.  The Sobolev quotient is minimized by the solvers' first-order
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    F_integral,
    J_functional,
    NonlinearitySpec,
    Phi,
    Phi_lambda,
    Psi_tilde,
    _Ray,
    eigen_spec,
)
from .grid import Field, RadialGrid
from .operators import dual_norm
from .params import ProblemParams, Regime, compute_exponents
from .scaling import _Fiber

__all__ = [
    "DiagnosticsRecord",
    "pohozaev_residual",
    "nehari_residual",
    "identity_closure_gap",
    "estimate_sobolev_constant",
    "sobolev_residual_dual",
    "ps_threshold",
    "linking_probe",
    "LinkingRow",
]

_GUARD = 1e-300
_SOBOLEV_MAX_ITER = 400  # first-order steps, a guard
_SOBOLEV_TOL = 1e-7      # drop of the tangent gradient's dual norm that stops the descent


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Pohozaev balance sides plus companion identity residuals."""

    pohozaev_lhs: float
    pohozaev_rhs: float
    pohozaev_rel: float
    nehari: float
    eigen_identity_rel: float | None
    grid_summary: dict

    def to_dict(self) -> dict:
        return {
            "pohozaev_lhs": self.pohozaev_lhs,
            "pohozaev_rhs": self.pohozaev_rhs,
            "pohozaev_rel": self.pohozaev_rel,
            "nehari": self.nehari,
            "eigen_identity_rel": self.eigen_identity_rel,
            "grid": self.grid_summary,
        }


def _pohozaev_sides(ray: _Ray) -> tuple[float, float, float]:
    """lhs, rhs and relative residual of the Pohozaev balance of the ray's field.

    lhs = (N-2s)/2 |(-Delta)^(s/2) u|^2 + C_alpha (N+alpha)/4 D(u) is read
    from the ray's S and Q, rhs = N int F(u) from its ``spec``; the relative
    residual is |lhs-rhs| over the larger magnitude.
    """
    p = ray.field.grid.params
    lhs = 0.5 * (p.N - 2.0 * p.s) * ray.S + 0.25 * (p.N + p.alpha) * ray.Q
    rhs = p.N * F_integral(ray.field, ray.spec)
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), _GUARD)


def pohozaev_residual(u: Field, spec: NonlinearitySpec, lam: float | None = None) -> DiagnosticsRecord:
    """Dilation identity residual for solutions of the autonomous equation.

    The sides are those of ``_pohozaev_sides``.  The identity is stated only
    for x-independent f, so weighted terms are rejected.  The left-hand side,
    the Nehari value and, given ``lam``, the eigen identity I - lam J share
    one evaluation of S and Q (see ``_Ray``).
    """
    if not spec.is_autonomous:
        raise ValueError("identity stated only for autonomous f (no radial weight)")
    ray = _Ray(u, spec)
    lhs, rhs, rel = _pohozaev_sides(ray)
    eigen_rel = None
    if lam is not None:
        eigen_rel = abs(ray.I - lam * J_functional(u)) / max(ray.I, _GUARD)
    return DiagnosticsRecord(
        pohozaev_lhs=lhs,
        pohozaev_rhs=rhs,
        pohozaev_rel=rel,
        nehari=float(ray.nehari(1.0)),
        eigen_identity_rel=eigen_rel,
        grid_summary=u.grid.summary(),
    )


def nehari_residual(u: Field, spec: NonlinearitySpec) -> float:
    """Derivative of the action tested with the field itself: Phi'(u) u."""
    return float(_Ray(u, spec).nehari(1.0))


def identity_closure_gap(u: Field, lam: float) -> dict:
    """Consistency of the three identities for the scaling-critical problem.

    Multiplying the Pohozaev balance by 1/sigma and the tested equation by
    theta/sigma and subtracting reproduces I - lam J; the gap between that
    combination and the directly computed I - lam J must stay within the sum
    of the component residuals (it is zero in exact arithmetic).
    """
    exps = compute_exponents(u.grid.params)
    spec = eigen_spec(lam, exps)
    rec = pohozaev_residual(u, spec)
    poh_num = rec.pohozaev_lhs - rec.pohozaev_rhs
    neh = rec.nehari
    combo = (exps.theta * neh - poh_num) / exps.sigma
    direct = Phi_lambda(u, lam)
    return {
        "combination": combo,
        "direct": direct,
        "gap": abs(combo - direct),
        "component_budget": (exps.theta * abs(neh) + abs(poh_num)) / exps.sigma,
        "pohozaev_rel": rec.pohozaev_rel,
        "nehari": neh,
    }


# ---------------------------------------------------------------------------
# best-constant estimation and the concentration threshold
# ---------------------------------------------------------------------------

def _sobolev_descent(grid: RadialGrid, u0: np.ndarray):
    """``solvers._first_order`` on the Sobolev quotient from ``u0``, as the estimate runs it."""
    # imported here: solvers imports this module, so a top-level import is a cycle
    from .solvers import _first_order

    p = compute_exponents(grid.params).two_star_s
    eng = grid.transform()
    no_potential = np.zeros(grid.M)

    def on_sphere(v: np.ndarray) -> _Ray | None:
        # v / |v|_p, evaluated without the Hartree part
        nrm = float(np.sum(grid.w * np.abs(v) ** p)) ** (1.0 / p)
        if nrm == 0.0:
            return None
        v = v / nrm
        return _Ray(Field(grid, v), None, eng.forward(v), no_potential)

    return _first_order(
        on_sphere(u0), lambda q: q.S, lambda q: 2.0 * q.Au, on_sphere, _SOBOLEV_MAX_ITER, _SOBOLEV_TOL,
        normal=lambda q: np.abs(q.u) ** (p - 2.0) * q.u,
    )


def estimate_sobolev_constant(params: ProblemParams, grid: RadialGrid) -> float:
    """Estimate the best constant S with |u|_{2*_s}^2 <= S^{-1} |(-Delta)^{s/2}u|^2.

    ``solvers._first_order`` minimizes S(u) = |(-Delta)^{s/2}u|^2 (gradient
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
    u, p, eng = grid._caches["sobolev_extremal"], compute_exponents(params).two_star_s, grid.transform()
    return dual_norm(Field(grid, eng.inverse(grid.k2s * eng.forward(u)) - S * np.abs(u) ** (p - 2.0) * u))


def ps_threshold(params: ProblemParams, S: float) -> float:
    """Concentration-compactness level (s/N) S^(N/(2s))."""
    if not (S > 0.0):
        raise ValueError("S must be positive")
    return (params.s / params.N) * S ** (params.N / (2.0 * params.s))


# ---------------------------------------------------------------------------
# local-linking geometry probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkingRow:
    candidate: int
    psi_value: float
    side: str                  # "low" (psi <= lam) or "high"
    signs_ok: bool
    profile: tuple


def linking_probe(
    spec: NonlinearitySpec,
    lam: float,
    candidates: list[Field],
    t_range,
) -> dict:
    """Fiber-sign table near the origin for candidate manifold points.

    Candidates are split by their reciprocal-J value against ``lam``; the
    expected pattern is Phi(u_t) <= 0 on the low side and > 0 on the high
    side for all sampled t in (0, rho].  The t = 0 row is identically zero.
    """
    ts = sorted(float(t) for t in t_range)
    if any(t < 0 for t in ts):
        raise ValueError("t_range must be nonnegative")
    rows: list[LinkingRow] = []
    pattern = True
    for i, u in enumerate(candidates):
        psi = Psi_tilde(u)
        side = "low" if psi <= lam else "high"
        prof = []
        ok = True
        fiber = _Fiber(u)
        for t in ts:
            if t == 0.0:
                prof.append((0.0, 0.0))
                continue
            phi = Phi(fiber.at(t), spec)
            prof.append((t, phi))
            if side == "low" and phi > 0.0:
                ok = False
            if side == "high" and phi <= 0.0:
                ok = False
        rows.append(LinkingRow(i, psi, side, ok, tuple(prof)))
        pattern = pattern and ok
    sides = {r.side for r in rows}
    return {
        "rows": rows,
        "pattern_holds": pattern,
        "partial": not ({"low", "high"} <= sides),
    }
