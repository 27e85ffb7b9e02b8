"""Problem parameters, derived exponents, and growth classification.

Everything downstream (grids, operators, energies, solvers) is driven by the
triple (N, s, alpha): the space dimension, the fractional order of the
Laplacian, and the order of the Riesz kernel.  This module owns that triple,
the closed-form exponents derived from it, and the classification of a
power-sum nonlinearity against the scaling-critical exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DEGENERACY_TOL",
    "ProblemParams",
    "ExponentTable",
    "Regime",
    "NonlinearityRegime",
    "compute_exponents",
    "classify_nonlinearity",
    "sphere_area",
    "riesz_constant",
]

# |4s + alpha - N| below this is treated as the forbidden coincidence where
# the two critical exponents collide and the scaling calculus degenerates.
DEGENERACY_TOL = 1e-9


class DegenerateExponentsError(ValueError):
    """Raised when 4s + alpha = N (exponent coincidence)."""


class Regime(Enum):
    ABOVE = "above"   # 4s + alpha > N
    BELOW = "below"   # 4s + alpha < N


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def riesz_constant(N: int, alpha: float) -> float:
    """Normalization constant of the Riesz kernel C |x|^(alpha-N).

    C = Gamma((N-alpha)/2) / (2^alpha pi^(N/2) Gamma(alpha/2)), chosen so the
    kernel inverts the fractional Laplacian of order alpha/2.
    """
    return math.gamma((N - alpha) / 2.0) / (
        2.0 ** alpha * math.pi ** (N / 2.0) * math.gamma(alpha / 2.0)
    )


@dataclass(frozen=True)
class ProblemParams:
    """Dimension N >= 2, fractional order 0 < s < 1, Riesz order 1 < alpha < N.

    Construction rejects 4s + alpha = N (within ``DEGENERACY_TOL``); the side
    of that threshold is recorded in the derived :class:`ExponentTable`.
    """

    N: int
    s: float
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")
        if not (0.0 < self.s < 1.0) or not math.isfinite(self.s):
            raise ValueError(f"s must lie in (0, 1), got {self.s!r}")
        if not (1.0 < self.alpha < self.N) or not math.isfinite(self.alpha):
            raise ValueError(
                f"alpha must lie in (1, N) = (1, {self.N}), got {self.alpha!r}"
            )
        if abs(4.0 * self.s + self.alpha - self.N) < DEGENERACY_TOL:
            raise DegenerateExponentsError(
                f"degenerate exponent coincidence: 4s + alpha = {4 * self.s + self.alpha} "
                f"equals N = {self.N}; the two critical exponents coincide"
            )

    @property
    def regime(self) -> Regime:
        return Regime.ABOVE if 4.0 * self.s + self.alpha > self.N else Regime.BELOW


@dataclass(frozen=True)
class ExponentTable:
    """All derived exponents and constants for a parameter triple.

    theta            dilation amplitude exponent, (2s + alpha)/2
    sigma            homogeneity degree of the quadratic+Coulomb energy,
                     4s + alpha - N
    p_rad            lower endpoint of the radial embedding range
    two_star_s       upper (Sobolev) critical exponent 2N/(N - 2s)
    two_star_s_alpha scaling-critical exponent 2(4s + alpha)/(2s + alpha)
    c_alpha          Riesz kernel constant
    regime_flag      which side of 4s + alpha = N the parameters sit on
    """

    theta: float
    sigma: float
    p_rad: float
    two_star_s: float
    two_star_s_alpha: float
    c_alpha: float
    regime_flag: Regime


def compute_exponents(params: ProblemParams) -> ExponentTable:
    """Evaluate the closed-form exponent table for ``params``."""
    N, s, alpha = params.N, params.s, params.alpha
    theta = (2.0 * s + alpha) / 2.0
    sigma = 4.0 * s + alpha - N
    p_rad = 2.0 + 4.0 * s * (N - alpha) / (2.0 * s * (N + alpha - 2.0) + N - alpha)
    two_star_s = 2.0 * N / (N - 2.0 * s)
    two_star_s_alpha = 2.0 * (4.0 * s + alpha) / (2.0 * s + alpha)
    return ExponentTable(
        theta=theta,
        sigma=sigma,
        p_rad=p_rad,
        two_star_s=two_star_s,
        two_star_s_alpha=two_star_s_alpha,
        c_alpha=riesz_constant(N, alpha),
        regime_flag=params.regime,
    )


class RegimeTag(Enum):
    SUBSCALED = "subscaled"
    ASYMPTOTICALLY_SCALED = "asymptotically-scaled"
    SUPERSCALED = "superscaled"


@dataclass(frozen=True)
class NonlinearityRegime:
    """Growth class of f(|x|, t) at |t| -> infinity relative to the
    scaling-critical pure power.

    ``l_infinity`` is the limit of f(t)/(|t|^(q*-2) t): zero for subscaled,
    the finite leading coefficient for asymptotically scaled, and +-inf
    (encoded via ``sign``) for superscaled.
    """

    tag: RegimeTag
    l_infinity: float = 0.0
    sign: int = 0

    @property
    def is_superscaled(self) -> bool:
        return self.tag is RegimeTag.SUPERSCALED


# Exponent comparisons against 2*_{s,alpha} use the same tolerance as the
# degeneracy guard: closer than this is "equal".
_EXPONENT_EQ_TOL = 1e-9


def classify_nonlinearity(spec, exps: ExponentTable) -> NonlinearityRegime:
    """Classify a power-sum nonlinearity by its top effective growth exponent.

    ``spec`` is any object with a ``terms`` sequence whose elements expose
    ``coef`` and ``effective_exponent`` (the growth exponent at infinity;
    damped powers contribute q - gamma).  Terms with zero coefficient are
    ignored.  An empty spec is the degenerate f = 0, classified subscaled.
    """
    live = [t for t in spec.terms if t.coef != 0.0]
    if not live:
        return NonlinearityRegime(tag=RegimeTag.SUBSCALED, l_infinity=0.0)
    top = max(t.effective_exponent for t in live)
    lead = sum(t.coef for t in live if abs(t.effective_exponent - top) < _EXPONENT_EQ_TOL)
    qc = exps.two_star_s_alpha
    if top < qc - _EXPONENT_EQ_TOL:
        return NonlinearityRegime(tag=RegimeTag.SUBSCALED, l_infinity=0.0)
    if abs(top - qc) <= _EXPONENT_EQ_TOL:
        return NonlinearityRegime(tag=RegimeTag.ASYMPTOTICALLY_SCALED, l_infinity=lead)
    return NonlinearityRegime(
        tag=RegimeTag.SUPERSCALED,
        l_infinity=math.copysign(math.inf, lead),
        sign=int(math.copysign(1.0, lead)),
    )
