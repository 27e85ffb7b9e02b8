"""Identity residuals and constants.

The Pohozaev-type balance is the designated detector for convention or
quadrature inconsistencies: for a genuine critical point it must close, and
any Fourier-normalization mismatch between the spectral and kernel paths
would leave an O(1) floor in it.  All diagnostics are pure functions of
(field, nonlinearity, parameters): byte-identical inputs give byte-identical
records.
"""

from __future__ import annotations

import math
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
from .params import ProblemParams, Regime, compute_exponents
from .scaling import _Fiber

__all__ = [
    "DiagnosticsRecord",
    "pohozaev_residual",
    "nehari_residual",
    "identity_closure_gap",
    "estimate_sobolev_constant",
    "ps_threshold",
    "linking_probe",
    "LinkingRow",
]

_GUARD = 1e-300


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Pohozaev balance sides plus companion identity residuals."""

    pohozaev_lhs: float
    pohozaev_rhs: float
    pohozaev_rel: float
    nehari: float
    eigen_identity_rel: float | None
    ps_threshold: float | None
    grid_summary: dict

    def to_dict(self) -> dict:
        return {
            "pohozaev_lhs": self.pohozaev_lhs,
            "pohozaev_rhs": self.pohozaev_rhs,
            "pohozaev_rel": self.pohozaev_rel,
            "nehari": self.nehari,
            "eigen_identity_rel": self.eigen_identity_rel,
            "ps_threshold": self.ps_threshold,
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


def pohozaev_residual(
    u: Field,
    spec: NonlinearitySpec,
    lam: float | None = None,
    ps_threshold_value: float | None = None,
) -> DiagnosticsRecord:
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
        ps_threshold=ps_threshold_value,
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

def estimate_sobolev_constant(
    params: ProblemParams,
    grid: RadialGrid,
    max_iter: int = 400,
    tol: float = 1e-12,
) -> float:
    """Estimate the best constant S with |u|_{2*_s}^2 <= S^{-1} |(-Delta)^{s/2}u|^2.

    The Rayleigh quotient is minimized by renormalized inverse iteration
    u <- (-Delta)^{-s} |u|^(2*-2) u, started from a bump-type extremal
    profile and a Gaussian; the smallest quotient over the starts is
    returned.  Cached per grid.
    """
    if params.regime is not Regime.ABOVE:
        raise ValueError("below-regime ranges not supported")
    cached = grid._caches.get("sobolev_constant")
    if cached is not None:
        return cached
    exps = compute_exponents(params)
    p = exps.two_star_s
    eng = grid.transform()
    k2s = grid.k ** (2.0 * params.s)
    inverse_mult = grid.k ** (-2.0 * params.s)

    def norm_p(v: np.ndarray) -> float:  # ``lp_norm`` on node values
        return float(np.sum(grid.w * np.abs(v) ** p)) ** (1.0 / p)

    seeds = [
        (1.0 + grid.r ** 2) ** (-(params.N - 2.0 * params.s) / 2.0),
        np.exp(-grid.r ** 2),
    ]
    best = math.inf
    best_u = None
    for u in seeds:
        # each step: two transforms and one L^p norm; |u|_s^2 is read off
        # the multiplier coefficients, and the norm normalizes the next step
        nrm = norm_p(u)
        q = None
        for _ in range(max_iter):
            if nrm == 0.0:
                break
            u = u / nrm
            c = inverse_mult * eng.forward(np.abs(u) ** (p - 2.0) * u)
            u = eng.inverse(c)
            nrm = norm_p(u)
            q_prev, q = q, float(np.sum(k2s * c * c)) / nrm ** 2
            if q_prev is not None and abs(q - q_prev) <= tol * abs(q):
                break
        if q is not None and q < best:
            best = q
            best_u = u / nrm
    grid._caches["sobolev_constant"] = best
    # the values, not a Field: a Field points back at the grid, and that
    # cycle would leave a dead grid to the cycle collector
    grid._caches["sobolev_extremal"] = best_u
    return best


def sobolev_extremal(params: ProblemParams, grid: RadialGrid) -> Field:
    """The minimizing profile behind :func:`estimate_sobolev_constant`."""
    estimate_sobolev_constant(params, grid)
    return Field(grid, grid._caches["sobolev_extremal"].copy())


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
