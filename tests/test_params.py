import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcs.energy import DampedPowerTerm, NonlinearitySpec, PowerTerm
from fcs.params import (
    DEGENERACY_TOL,
    ProblemParams,
    Regime,
    RegimeTag,
    classify_nonlinearity,
    compute_exponents,
    riesz_constant,
    sphere_area,
)


def test_exponents_reference_configuration():
    # hand-evaluated closed forms at (N=3, s=0.75, alpha=2)
    t = compute_exponents(ProblemParams(3, 0.75, 2.0))
    assert math.isclose(t.theta, 1.75, rel_tol=1e-12)
    assert math.isclose(t.sigma, 2.0, rel_tol=1e-12)
    assert math.isclose(t.two_star_s, 4.0, rel_tol=1e-12)
    assert math.isclose(t.two_star_s_alpha, 20.0 / 7.0, rel_tol=1e-12)
    assert math.isclose(t.p_rad, 28.0 / 11.0, rel_tol=1e-12)
    assert math.isclose(t.c_alpha, 1.0 / (4.0 * math.pi), rel_tol=1e-12)
    assert t.regime_flag is Regime.ABOVE


def test_exponents_two_dimensional_case():
    t = compute_exponents(ProblemParams(2, 0.6, 1.5))
    assert math.isclose(t.theta, 1.35, rel_tol=1e-12)
    assert math.isclose(t.sigma, 1.9, rel_tol=1e-12)
    assert math.isclose(t.two_star_s, 5.0, rel_tol=1e-12)
    assert math.isclose(t.two_star_s_alpha, 26.0 / 9.0, rel_tol=1e-12)
    assert math.isclose(t.p_rad, 58.0 / 23.0, rel_tol=1e-12)


def test_degenerate_coincidence_rejected():
    with pytest.raises(ValueError, match="degenerate exponent coincidence"):
        ProblemParams(3, 0.25, 2.0)  # 4s + alpha = 3 = N
    # just inside the tolerance is still rejected
    with pytest.raises(ValueError):
        ProblemParams(3, 0.25 + DEGENERACY_TOL / 8.0, 2.0)
    # comfortably away from it is fine
    ProblemParams(3, 0.2501, 2.0)


def test_parameter_validation():
    for bad in [(1, 0.5, 1.5), (3, 0.0, 2.0), (3, 1.0, 2.0), (3, 0.5, 1.0), (3, 0.5, 3.0)]:
        with pytest.raises(ValueError):
            ProblemParams(*bad)


def test_exponent_chain_on_random_draws():
    # p_rad < 2*_{s,alpha} < 2*_s and theta * 2*_{s,alpha} = 4s + alpha,
    # on 10^4 valid draws above the threshold
    rng = np.random.default_rng(7)
    count = 0
    while count < 10_000:
        N = int(rng.integers(2, 7))
        s = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(1.0 + 1e-6, N - 1e-6)
        if 4 * s + alpha <= N + 1e-7:
            continue
        t = compute_exponents(ProblemParams(N, s, alpha))
        assert t.p_rad < t.two_star_s_alpha < t.two_star_s
        assert math.isclose(t.theta * t.two_star_s_alpha, 4 * s + alpha, rel_tol=1e-13)
        assert t.sigma > 0 and t.regime_flag is Regime.ABOVE
        count += 1


def test_sigma_sign_tracks_regime():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        N = int(rng.integers(2, 8))
        s = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(1.0 + 1e-6, N - 1e-6)
        if abs(4 * s + alpha - N) < 1e-6:
            continue
        t = compute_exponents(ProblemParams(N, s, alpha))
        assert (t.sigma > 0) == (t.regime_flag is Regime.ABOVE)


def test_riesz_constant_accuracy():
    # gamma-function evaluation must be good to 1e-12 relative: cross-check
    # against an arbitrary-precision evaluation of the same closed form
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for N, alpha in [(3, 2.0), (2, 1.5), (5, 3.3), (4, 1.01), (6, 5.9)]:
        exact = mp.gamma((N - alpha) / 2) / (
            mp.mpf(2) ** alpha * mp.pi ** (mp.mpf(N) / 2) * mp.gamma(alpha / 2)
        )
        assert abs(riesz_constant(N, alpha) - float(exact)) <= 1e-12 * float(exact)


def test_sphere_area_values():
    assert math.isclose(sphere_area(2), 2 * math.pi, rel_tol=1e-15)
    assert math.isclose(sphere_area(3), 4 * math.pi, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exps_star():
    return compute_exponents(ProblemParams(3, 0.75, 2.0))


def test_classify_subscaled_power(exps_star):
    spec = NonlinearitySpec.of(PowerTerm(1.0, 2.6))
    assert classify_nonlinearity(spec, exps_star).tag is RegimeTag.SUBSCALED


def test_classify_asymptotically_scaled(exps_star):
    spec = NonlinearitySpec.of(PowerTerm(3.0, 20.0 / 7.0))
    regime = classify_nonlinearity(spec, exps_star)
    assert regime.tag is RegimeTag.ASYMPTOTICALLY_SCALED
    assert math.isclose(regime.l_infinity, 3.0)


def test_classify_damped_critical_is_subscaled(exps_star):
    # damping by gamma lowers the effective top exponent below critical
    spec = NonlinearitySpec.of(DampedPowerTerm(2.0, 20.0 / 7.0, 0.05))
    regime = classify_nonlinearity(spec, exps_star)
    assert regime.tag is RegimeTag.SUBSCALED
    assert regime.l_infinity == 0.0


def test_classify_superscaled_sign(exps_star):
    up = classify_nonlinearity(NonlinearitySpec.of(PowerTerm(2.0, 3.4)), exps_star)
    dn = classify_nonlinearity(NonlinearitySpec.of(PowerTerm(-2.0, 3.4)), exps_star)
    assert up.tag is RegimeTag.SUPERSCALED and up.sign == 1
    assert dn.tag is RegimeTag.SUPERSCALED and dn.sign == -1


def test_classify_empty_spec(exps_star):
    regime = classify_nonlinearity(NonlinearitySpec(), exps_star)
    assert regime.tag is RegimeTag.SUBSCALED and regime.l_infinity == 0.0


@given(scale=st.floats(min_value=1e-6, max_value=1e6), q=st.floats(min_value=2.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_classify_invariant_under_positive_rescaling(scale, q):
    exps = compute_exponents(ProblemParams(3, 0.75, 2.0))
    base = NonlinearitySpec.of(PowerTerm(1.0, q), PowerTerm(0.5, 2.6))
    scaled = NonlinearitySpec.of(PowerTerm(scale, q), PowerTerm(0.5 * scale, 2.6))
    a = classify_nonlinearity(base, exps)
    b = classify_nonlinearity(scaled, exps)
    assert a.tag is b.tag
    if a.tag is RegimeTag.ASYMPTOTICALLY_SCALED:
        assert math.isclose(b.l_infinity, scale * a.l_infinity, rel_tol=1e-12)

