"""Identity residuals, the best Sobolev constant and the linking probe.

The Pohozaev-type balance is the designated detector for convention or
quadrature inconsistencies: for a genuine critical point it must close, and
any Fourier-normalization mismatch between the spectral and kernel paths
would leave an O(1) floor in it.  All diagnostics are pure functions of
(field, nonlinearity, parameters): byte-identical inputs give byte-identical
records.  The best Sobolev constant and the concentration threshold are
computed in ``solvers``, beside the first-order engine that minimizes the
Sobolev quotient, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import NonlinearitySpec, Phi, Phi_lambda, Psi_tilde, _Ray, eigen_spec
from .grid import Field
from .scaling import _Fiber
from .solvers import estimate_sobolev_constant, ps_threshold, sobolev_extremal, sobolev_residual_dual

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


def pohozaev_residual(u: Field, spec: NonlinearitySpec, lam: float | None = None) -> DiagnosticsRecord:
    """Dilation identity residual for solutions of the autonomous equation.

    The sides are those of ``_Ray.pohozaev``.  The identity is stated only
    for x-independent f, so weighted terms are rejected.  The left-hand side,
    the Nehari value and, given ``lam``, the eigen identity I - lam J share
    one evaluation of S and Q (see ``_Ray``).
    """
    if not spec.is_autonomous:
        raise ValueError("identity stated only for autonomous f (no radial weight)")
    ray = _Ray(u, spec)
    lhs, rhs, rel = ray.pohozaev()
    eigen_rel = None
    if lam is not None:
        eigen_rel = abs(ray.I - lam * ray.J) / max(ray.I, _GUARD)
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
    exps = u.grid.exps
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
