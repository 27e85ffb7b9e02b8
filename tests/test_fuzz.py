"""Property-based robustness map of the solvers over admissible (N, s, alpha).

Every draw either certifies a result or fails with a typed error: below the
threshold 4s + alpha = N a ``ValueError``; above it, for ``eigen1``, a
converged report on {I = 1} whose multiplier is the Rayleigh quotient of the
stored field, after an ascent that never lowered J; for
``minimize_subscaled`` (a damped term at q*), a converged report at a level
<= 0; for ``mountain_pass`` (a pure power q in
(q*, 2*_s), or the critical family), a converged report at a positive level
or ``NoPassError``.  Along an amplitude ray a^4 Q outgrows every power below
4, so many draws there find no negative-action endpoint and raise
``NoPassError`` (ROADMAP item 4).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fcs import ProblemParams, make_grid
from fcs.energy import DampedPowerTerm, NonlinearitySpec, critical_family, pure_power
from fcs.params import Regime, compute_exponents
from fcs.solvers import (
    NoPassError,
    SolverOptions,
    eigen1,
    find_negative_energy_point,
    minimize_subscaled,
    mountain_pass,
)

from conftest import rayleigh_quotient

_BELOW = "4s \\+ alpha < N"
_FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_open = dict(exclude_min=True, exclude_max=True)


@st.composite
def admissible(draw):
    N = draw(st.integers(2, 6))
    s = draw(st.floats(0.3, 0.95, **_open))
    alpha = draw(st.floats(1.05, N - 0.05, **_open))
    M = draw(st.sampled_from([64, 128]))
    return ProblemParams(N, s, alpha), M


@st.composite
def eigen_draws(draw):
    params, M = draw(admissible())
    width = draw(st.floats(0.5, 3.0, **_open))
    return params, width, M


@settings(_FUZZ, max_examples=60)
@given(eigen_draws())
def test_eigen1_certifies_or_raises_a_typed_error(draw):
    params, width, M = draw
    grid = make_grid(params, 20.0, M)
    opts = SolverOptions(seed_width=width)
    if params.regime is Regime.BELOW:
        with pytest.raises(ValueError, match=_BELOW):
            eigen1(params, grid, opts)
        return
    rep = eigen1(params, grid, opts)
    assert rep.converged
    assert rep.extras["J_history_monotone"]
    assert abs(rep.extras["I"] - 1.0) <= 1e-8
    lam = rayleigh_quotient(rep.solution)
    assert abs(rep.multiplier - lam) <= 1e-10 * lam


@settings(_FUZZ, max_examples=60)
@given(admissible(), st.floats(1.0, 10.0), st.floats(0.05, 0.95))
def test_minimize_subscaled_certifies_or_raises_a_typed_error(draw, coef, frac):
    # a damped term at q*: effective exponent q* - gamma, at the fraction
    # ``frac`` of the window (p_rad, q*) below q*
    params, M = draw
    grid = make_grid(params, 20.0, M)
    exps = compute_exponents(params)
    if params.regime is Regime.BELOW:
        with pytest.raises(ValueError, match=_BELOW):
            minimize_subscaled(params, grid, NonlinearitySpec.of(DampedPowerTerm(coef, exps.two_star_s_alpha, frac)))
        return
    gamma = frac * (exps.two_star_s_alpha - exps.p_rad)
    rep = minimize_subscaled(params, grid, NonlinearitySpec.of(DampedPowerTerm(coef, exps.two_star_s_alpha, gamma)))
    assert rep.converged
    assert rep.energy <= 0.0


def _mountain_pass_draws(critical: bool):
    @st.composite
    def draws(draw):
        params, M = draw(admissible())
        frac = draw(st.floats(0.01, 0.99))  # q strictly inside (q*, 2*_s) after rounding
        if params.regime is Regime.BELOW:
            return params, M, None
        exps = compute_exponents(params)
        q = exps.two_star_s_alpha + frac * (exps.two_star_s - exps.two_star_s_alpha)
        if not critical:
            return params, M, pure_power(1.0, q)
        lam, mu = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        return params, M, critical_family(lam, mu, q, exps)

    return draws()


def _mountain_pass_certifies_or_raises_a_typed_error(params, M, spec):
    grid = make_grid(params, 20.0, M)
    if spec is None:
        with pytest.raises(ValueError, match=_BELOW):
            mountain_pass(params, grid, pure_power(1.0, 4.5), grid.zero_field())
        return
    try:
        rep = mountain_pass(params, grid, spec, find_negative_energy_point(params, grid, spec))
    except NoPassError:
        return
    assert rep.converged
    assert rep.energy > 0.0
    assert math.isfinite(rep.extras["I"])


@settings(_FUZZ, max_examples=100)
@given(_mountain_pass_draws(critical=False))
def test_mountain_pass_pure_power_certifies_or_raises_a_typed_error(draw):
    _mountain_pass_certifies_or_raises_a_typed_error(*draw)


@settings(_FUZZ, max_examples=60)
@given(_mountain_pass_draws(critical=True))
def test_mountain_pass_critical_family_certifies_or_raises_a_typed_error(draw):
    _mountain_pass_certifies_or_raises_a_typed_error(*draw)
