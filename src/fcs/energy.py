"""Nonlinearity library and the scalar functionals with their gradients.

A nonlinearity is a sum of odd power-type terms in t:

* ``PowerTerm(coef, q)``               coef |t|^(q-2) t
* ``DampedPowerTerm(coef, q, gamma)``  coef |t|^(q-2) t / (1 + |t|^gamma)
* ``WeightedPowerTerm(coef, q, a)``    coef a(r) |t|^(q-2) t, a sampled on the grid

Primitives F(|x|, t) = int_0^t f are closed-form except for the damped
power, which is integrated by a fixed Gauss-Legendre rule after the
substitution tau = t y^2; that removes the fractional endpoint singularity
and is accurate to rounding, so energies and gradients stay consistent to
the level finite-difference tests can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Field, lp_norm
# unused apply_A: perfbench/test_perfbench.py reads fcs.energy.apply_A
from .operators import apply_A, dual_norm, hartree_potential_sym  # noqa: F401
from .params import ExponentTable

__all__ = [
    "PowerTerm",
    "DampedPowerTerm",
    "WeightedPowerTerm",
    "NonlinearitySpec",
    "pure_power",
    "eigen_spec",
    "critical_family",
    "I_functional",
    "J_functional",
    "F_integral",
    "Phi",
    "Phi_lambda",
    "grad_Phi",
    "Psi_tilde",
]

MANIFOLD_TOL = 1e-8


class DegenerateSeedError(RuntimeError):
    """Iteration collapsed to the zero field."""


@dataclass(frozen=True)
class PowerTerm:
    coef: float
    q: float

    @property
    def effective_exponent(self) -> float:
        return self.q

    def f(self, t: np.ndarray, r=None) -> np.ndarray:
        return self.coef * np.abs(t) ** (self.q - 2.0) * t

    def fprime(self, t: np.ndarray, r=None) -> np.ndarray:
        return self.coef * (self.q - 1.0) * np.abs(t) ** (self.q - 2.0)

    def F(self, t: np.ndarray, r=None) -> np.ndarray:
        return (self.coef / self.q) * np.abs(t) ** self.q


_GL_NODES, _GL_WEIGHTS = leggauss(48)
_GL_Y = 0.5 * (_GL_NODES + 1.0)       # nodes mapped to (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class DampedPowerTerm:
    coef: float
    q: float
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError("damping exponent gamma must be positive")

    @property
    def effective_exponent(self) -> float:
        return self.q - self.gamma

    def f(self, t: np.ndarray, r=None) -> np.ndarray:
        at = np.abs(t)
        return self.coef * at ** (self.q - 2.0) * t / (1.0 + at ** self.gamma)

    def fprime(self, t: np.ndarray, r=None) -> np.ndarray:
        at = np.abs(t)
        d = 1.0 + at ** self.gamma
        return (
            self.coef
            * at ** (self.q - 2.0)
            * ((self.q - 1.0) * d - self.gamma * at ** self.gamma)
            / d ** 2
        )

    def F(self, t: np.ndarray, r=None) -> np.ndarray:
        # int_0^|t| tau^(q-1)/(1+tau^gamma) dtau with tau = |t| y^2
        at = np.atleast_1d(np.abs(np.asarray(t, dtype=float)))
        tau = at[..., None] * _GL_Y ** 2
        integrand = tau ** (self.q - 1.0) / (1.0 + tau ** self.gamma)
        out = self.coef * 2.0 * at * np.sum(_GL_W * _GL_Y * integrand, axis=-1)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class WeightedPowerTerm:
    """Power term modulated by a radial weight profile sampled on the grid.

    No integrability class of the weight is verified; that is the caller's
    responsibility.
    """

    coef: float
    q: float
    weight: tuple

    @classmethod
    def from_profile(cls, coef: float, q: float, profile) -> "WeightedPowerTerm":
        return cls(coef, q, tuple(float(x) for x in np.asarray(profile).ravel()))

    @property
    def effective_exponent(self) -> float:
        return self.q

    def _a(self, r) -> np.ndarray:
        a = np.asarray(self.weight, dtype=float)
        if r is not None and a.shape != np.shape(r):
            raise ValueError("weight profile length does not match the grid")
        return a

    def f(self, t: np.ndarray, r=None) -> np.ndarray:
        return self.coef * self._a(r) * np.abs(t) ** (self.q - 2.0) * t

    def fprime(self, t: np.ndarray, r=None) -> np.ndarray:
        return self.coef * self._a(r) * (self.q - 1.0) * np.abs(t) ** (self.q - 2.0)

    def F(self, t: np.ndarray, r=None) -> np.ndarray:
        return (self.coef / self.q) * self._a(r) * np.abs(t) ** self.q


@dataclass(frozen=True)
class NonlinearitySpec:
    """A sum of power-type terms; f is odd in t and f(., 0) = 0."""

    terms: tuple = ()

    @classmethod
    def of(cls, *terms) -> "NonlinearitySpec":
        return cls(tuple(terms))

    @property
    def is_empty(self) -> bool:
        return not any(t.coef != 0.0 for t in self.terms)

    @property
    def is_autonomous(self) -> bool:
        return not any(isinstance(t, WeightedPowerTerm) for t in self.terms)

    def _sum(self, part: str, t, r):
        out = np.zeros_like(np.asarray(t, dtype=float))
        for term in self.terms:
            out = out + getattr(term, part)(t, r)
        return out

    def f(self, t: np.ndarray, r=None) -> np.ndarray:
        return self._sum("f", t, r)

    def fprime(self, t: np.ndarray, r=None) -> np.ndarray:
        return self._sum("fprime", t, r)

    def F(self, t: np.ndarray, r=None) -> np.ndarray:
        return self._sum("F", t, r)

    def with_coef(self, index: int, coef: float) -> "NonlinearitySpec":
        terms = list(self.terms)
        t = terms[index]
        terms[index] = type(t)(**{**t.__dict__, "coef": coef})
        return NonlinearitySpec(tuple(terms))


def pure_power(coef: float, q: float) -> NonlinearitySpec:
    return NonlinearitySpec.of(PowerTerm(coef, q))


def eigen_spec(lam: float, exps: ExponentTable) -> NonlinearitySpec:
    """The scaling-critical pure power lam |t|^(q*-2) t."""
    return pure_power(lam, exps.two_star_s_alpha)


def critical_family(lam: float, mu: float, q6: float, exps: ExponentTable) -> NonlinearitySpec:
    """Three-power family: scaling-critical + intermediate + Sobolev-critical."""
    if not (exps.two_star_s_alpha < q6 < exps.two_star_s):
        raise ValueError(
            f"intermediate exponent must lie in ({exps.two_star_s_alpha}, "
            f"{exps.two_star_s}), got {q6}"
        )
    return NonlinearitySpec.of(
        PowerTerm(lam, exps.two_star_s_alpha),
        PowerTerm(mu, q6),
        PowerTerm(1.0, exps.two_star_s),
    )


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class _Ray:
    """One evaluated field: the homogeneous parts of the action, their values
    along a -> a u, and the strong form A(u).

    This is the one place S = <u, (-Delta)^s u>_w (``seminorm_sq`` of one
    forward transform), the Hartree potential I_alpha * u^2 and
    Q = sum_j w_j u_j^2 (I_alpha * u^2)_j = C_alpha D(u) (one kernel matvec)
    are computed.  Both parts are homogeneous in the amplitude, so

        h(a)     = Phi'(a u) a u = a^2 S + a^4 Q - a sum_j w_j f(a u_j) u_j,
        Phi(a u) = a^2 S / 2 + a^4 Q / 4 - sum_j w_j F(a u_j)

    serve every amplitude of the shape.  ``nehari`` and ``phi`` need ``spec``
    and accept a scalar or a 1-D array of amplitudes; ``at`` evaluates the ray
    at one amplitude and ``on_manifold`` at its point on {I = 1}, in closed
    form.  ``pohozaev`` reads the Pohozaev balance off S, Q and ``spec``.

    A(u) = (-Delta)^s u + (I_alpha * u^2) u reuses the forward coefficients
    and the potential; it costs one inverse transform on first read, so scans
    that read only S and Q never pay for it.  The residual (grad Phi(u) =
    A(u) - f(u), or A(u) - lam B(u) after ``eigen``), its dual norm (one
    more forward transform) and Phi(u) are read lazily too, and so are the
    scaling-critical parts with q* = ``grid.exps.two_star_s_alpha``:
    B(u) = |u|^(q*-2) u = J'(u), <B(u), u> = sum_j w_j |u_j|^q* and J(u).

    ``lam`` is None except on an eigen point, where it is the multiplier of
    the stationarity system that ``solvers._newton`` borders with I(u) = 1.
    """

    lam = None

    def __init__(self, u: Field, spec: NonlinearitySpec | None = None, b=None, pot=None):
        # b and pot: u's forward coefficients and potential, if already known
        grid = u.grid
        if b is None:
            b = grid.transform().forward(u.values)
        if pot is None:
            pot = hartree_potential_sym(u)
        self.field = u
        self.u = u.values
        self.spec = spec
        self.w = grid.w
        self.r = grid.r
        self._b = b
        self.pot = pot
        self.S = grid.transform().seminorm_sq(b)
        self.Q = float((self.w * self.u ** 2 * pot).sum())
        self.I = 0.5 * self.S + 0.25 * self.Q

    @cached_property
    def Au(self) -> np.ndarray:
        return self.field.grid.transform().lap(self._b) + self.pot * self.u

    @cached_property
    def resid(self) -> np.ndarray:
        return self.Au - self.spec.f(self.u, self.r)

    @cached_property
    def res(self) -> float:
        return dual_norm(Field(self.field.grid, self.resid))

    @cached_property
    def action(self) -> float:
        """Phi(u) = I(u) - int F(|x|, u)."""
        return self.I - F_integral(self.field, self.spec)

    @property
    def q_star(self) -> float:
        return self.field.grid.exps.two_star_s_alpha

    @cached_property
    def Bu(self) -> np.ndarray:
        return np.abs(self.u) ** (self.q_star - 2.0) * self.u

    @cached_property
    def Bu_u(self) -> float:
        return float((self.w * np.abs(self.u) ** self.q_star).sum())

    @cached_property
    def J(self) -> float:
        return J_functional(self.field)

    def eigen(self, lam: float | None = None) -> "_Ray":
        """Make this the point of I - lam J, at the Rayleigh quotient
        (S + Q) / <B(u), u> if ``lam`` is None.

        The residual becomes A(u) - lam B(u), with B(u) the Newton border;
        ``spec`` becomes lam |t|^(q*-2) t, the same nonlinearity, for the
        Nehari value, the Pohozaev sides and the Newton Jacobian.  A zero
        <B(u), u> raises ``DegenerateSeedError``.
        """
        if lam is None:
            if self.Bu_u == 0.0:
                raise DegenerateSeedError("degenerate seed: B(u) u vanished")
            lam = (self.S + self.Q) / self.Bu_u
        self.lam, self.spec = lam, pure_power(lam, self.q_star)
        self.resid = self.Au - lam * self.Bu
        return self

    def at(self, a2: float) -> "_Ray":
        """The ray of a u, evaluated, given a^2 = ``a2``.

        The coefficients and the potential of a u are those of u times a and
        a^2, so this does no transform and no kernel matvec.
        """
        a = math.sqrt(a2)
        return _Ray(Field(self.field.grid, a * self.u), self.spec, a * self._b, a2 * self.pot)

    def on_manifold(self) -> "_Ray | None":
        """The ray of a u on {I = 1}: a^2 S / 2 + a^4 Q / 4 = 1, so
        a^2 = 4 / (S + sqrt(S^2 + 4 Q)).  None where that a^2 is not finite:
        S and Q vanish or underflow, so the field is zero in all but name."""
        den = self.S + math.sqrt(self.S * self.S + 4.0 * self.Q)
        a2 = 4.0 / den if den > 0.0 else math.inf
        return None if math.isinf(a2) else self.at(a2)

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

    def pohozaev(self) -> tuple[float, float, float]:
        """lhs, rhs and relative residual of the Pohozaev balance of the field.

        lhs = (N-2s)/2 |(-Delta)^(s/2) u|^2 + C_alpha (N+alpha)/4 D(u) is read
        from S and Q, rhs = N int F(u) from ``spec``; the relative residual
        is |lhs-rhs| over the larger magnitude.
        """
        p = self.field.grid.params
        lhs = 0.5 * (p.N - 2.0 * p.s) * self.S + 0.25 * (p.N + p.alpha) * self.Q
        rhs = p.N * F_integral(self.field, self.spec)
        return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def I_functional(u: Field) -> float:
    """Quadratic-plus-Coulomb energy: seminorm^2/2 + C_alpha D(u)/4."""
    return _Ray(u).I


def J_functional(u: Field) -> float:
    """(1/q*) integral of |u|^(q*) with the scaling-critical exponent."""
    p = u.grid.exps.two_star_s_alpha
    return lp_norm(u, p) ** p / p


def F_integral(u: Field, spec: NonlinearitySpec) -> float:
    """Integral of the primitive F(|x|, u) over R^N."""
    return float(np.sum(u.grid.w * spec.F(u.values, u.grid.r)))


def Phi(u: Field, spec: NonlinearitySpec) -> float:
    """Action functional I(u) - int F(|x|, u)."""
    return _Ray(u, spec).action


def Phi_lambda(u: Field, lam: float) -> float:
    """Action of the scaling-critical problem: I(u) - lam J(u)."""
    return I_functional(u) - lam * J_functional(u)


def grad_Phi(u: Field, spec: NonlinearitySpec) -> Field:
    """Strong-form Euler-Lagrange residual field of Phi at u.

    The returned node values g satisfy <g, v>_w = d/dh Phi(u + h v) exactly
    for the discrete functionals.
    """
    return Field(u.grid, _Ray(u, spec).resid)


def Psi_tilde(u: Field) -> float:
    """Reciprocal of J on the unit-energy manifold {I(u) = 1}."""
    iu = I_functional(u)
    if abs(iu - 1.0) > MANIFOLD_TOL:
        raise ValueError(
            f"Psi_tilde is defined on the manifold I(u) = 1; got I(u) = {iu!r}"
        )
    return 1.0 / J_functional(u)
