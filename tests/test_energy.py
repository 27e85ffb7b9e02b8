import math

import numpy as np
import pytest
from scipy.integrate import quad

from fcs import ProblemParams, make_grid
from fcs.energy import (
    DampedPowerTerm,
    F_integral,
    I_functional,
    J_functional,
    NonlinearitySpec,
    Phi,
    Phi_lambda,
    Psi_tilde,
    WeightedPowerTerm,
    critical_family,
    eigen_spec,
    grad_Phi,
    pure_power,
)
from fcs.params import compute_exponents
from fcs.scaling import project_to_M
from fcs.grid import lp_norm

from conftest import smooth_random_field


@pytest.fixture(scope="module")
def exps(pstar):
    return compute_exponents(pstar)


def _analytic_dilation(grid, t, gam=1.0):
    th = compute_exponents(grid.params).theta
    return grid.field(t ** th * np.exp(-gam * (t * grid.r) ** 2))


# ---------------------------------------------------------------------------
# I, J and the dilation laws
# ---------------------------------------------------------------------------

def test_I_at_zero_and_positivity(grid_small):
    assert I_functional(grid_small.zero_field()) == 0.0
    rng = np.random.default_rng(3)
    assert I_functional(smooth_random_field(grid_small, rng)) > 0.0


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_I_dilation_law_analytic(grid_small, exps, t):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    lhs = I_functional(_analytic_dilation(grid_small, t))
    rhs = t ** exps.sigma * I_functional(u)
    assert abs(lhs - rhs) <= 1e-4 * rhs


def test_amplitude_monotonicity(grid_small):
    # t -> I(t u) is strictly increasing for t > 0 (quadratic + quartic)
    rng = np.random.default_rng(4)
    u = smooth_random_field(grid_small, rng)
    vals = [I_functional(grid_small.field(t * u.values)) for t in np.linspace(0.2, 3.0, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_J_basics(grid_small, exps):
    assert J_functional(grid_small.zero_field()) == 0.0
    rng = np.random.default_rng(5)
    u = smooth_random_field(grid_small, rng)
    c = -1.8
    p = exps.two_star_s_alpha
    assert math.isclose(
        J_functional(grid_small.field(c * u.values)),
        abs(c) ** p * J_functional(u),
        rel_tol=1e-12,
    )


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_J_dilation_law_analytic(grid_small, exps, t):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    lhs = J_functional(_analytic_dilation(grid_small, t))
    rhs = t ** exps.sigma * J_functional(u)
    assert abs(lhs - rhs) <= 1e-4 * rhs


# ---------------------------------------------------------------------------
# action functionals
# ---------------------------------------------------------------------------

def test_phi_at_zero(grid_small):
    assert Phi(grid_small.zero_field(), pure_power(1.0, 2.7)) == 0.0


def test_phi_evenness(grid_small):
    rng = np.random.default_rng(7)
    u = smooth_random_field(grid_small, rng)
    spec = pure_power(1.3, 2.7)
    assert Phi(-u, spec) == Phi(u, spec)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_phi_lambda_dilation_law(grid_small, exps, t):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    lam = 1.7
    lhs = Phi_lambda(_analytic_dilation(grid_small, t), lam)
    rhs = t ** exps.sigma * Phi_lambda(u, lam)
    assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_phi_lambda_fiber_identity_on_manifold(grid_small):
    # for u with I(u) = 1: Phi_lambda(u) = 1 - lam / Psi(u)
    u = project_to_M(grid_small.field(np.exp(-grid_small.r ** 2)))
    lam = 2.2
    assert abs(Phi_lambda(u, lam) - (1.0 - lam / Psi_tilde(u))) <= 1e-8


def test_termwise_dilation_exponent(grid_small, exps):
    # a single power of exponent q picks up t^(theta q - N)
    q = 3.1
    spec = pure_power(1.0, q)
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    for t in (0.5, 2.0):
        lhs = F_integral(_analytic_dilation(grid_small, t), spec)
        rhs = t ** (exps.theta * q - grid_small.params.N) * F_integral(u, spec)
        assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_lp_by_energy_bound(grid_small, exps):
    # int |u|^p <= c I(u)^((p theta - N)/sigma): the two sides scale the same
    # way, and the inequality holds with a constant fitted on half the sample
    p = 3.0
    expo = (p * exps.theta - grid_small.params.N) / exps.sigma
    assert math.isclose(p * exps.theta - grid_small.params.N, exps.sigma * expo, rel_tol=1e-12)
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(200):
        u = smooth_random_field(grid_small, rng, amplitude=float(rng.uniform(0.2, 3.0)))
        iu = I_functional(u)
        if iu < 1e-12:
            continue
        ratios.append(lp_norm(u, p) ** p / iu ** expo)
    fit, check = ratios[:100], ratios[100:]
    c = max(fit)
    assert all(x <= 1.5 * c for x in check)
    # scaling invariance of the ratio along an analytic dilation
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    r0 = lp_norm(u, p) ** p / I_functional(u) ** expo
    ut = _analytic_dilation(grid_small, 2.0)
    r2 = lp_norm(ut, p) ** p / I_functional(ut) ** expo
    assert abs(r2 - r0) <= 1e-3 * r0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _central_difference_check(grid, spec, rng, pairs=20, tol=1e-5):
    for _ in range(pairs):
        u = smooth_random_field(grid, rng, amplitude=float(rng.uniform(0.5, 1.5)))
        v = smooth_random_field(grid, rng)
        g = grad_Phi(u, spec)
        pairing = float(np.sum(grid.w * g.values * v.values))
        h = 1e-5 * max(lp_norm(u, 2.0), 1e-6) / max(lp_norm(v, 2.0), 1e-12)
        up = grid.field(u.values + h * v.values)
        dn = grid.field(u.values - h * v.values)
        fd = (Phi(up, spec) - Phi(dn, spec)) / (2.0 * h)
        assert abs(pairing - fd) <= tol * max(abs(fd), 1e-10)


def test_grad_zero_field(grid_small):
    g = grad_Phi(grid_small.zero_field(), pure_power(1.0, 2.7))
    assert np.all(g.values == 0.0)


def test_grad_matches_central_differences_power(grid_small):
    _central_difference_check(grid_small, pure_power(1.0, 2.7), np.random.default_rng(100))


def test_grad_matches_central_differences_damped(grid_small, exps):
    spec = NonlinearitySpec.of(DampedPowerTerm(1.5, exps.two_star_s_alpha, 0.3))
    _central_difference_check(grid_small, spec, np.random.default_rng(101))


def test_grad_matches_central_differences_critical(exps):
    p = ProblemParams(3, 0.8, 2.0)
    g = make_grid(p, 20.0, 192)
    spec = critical_family(0.7, 1.0, 3.5, compute_exponents(p))
    _central_difference_check(g, spec, np.random.default_rng(102))


def test_grad_matches_central_differences_weighted(grid_small):
    profile = 1.0 / (1.0 + grid_small.r ** 2)
    spec = NonlinearitySpec.of(WeightedPowerTerm.from_profile(0.8, 2.7, profile))
    _central_difference_check(grid_small, spec, np.random.default_rng(103))


def test_grad_eigen_spec_is_A_minus_lambda_B(grid_small, exps):
    from fcs.operators import apply_A, apply_B

    rng = np.random.default_rng(14)
    u = smooth_random_field(grid_small, rng)
    lam = 1.9
    g = grad_Phi(u, eigen_spec(lam, exps))
    direct = apply_A(u).values - lam * apply_B(u).values
    assert np.max(np.abs(g.values - direct)) <= 1e-13 * max(np.max(np.abs(direct)), 1e-30)


def test_damped_primitive_matches_quadrature():
    term = DampedPowerTerm(1.3, 2.8, 0.4)
    for t in (0.3, 1.0, 4.0, 25.0):
        exact = quad(lambda x: 1.3 * x ** 1.8 / (1.0 + x ** 0.4), 0.0, t, limit=200)[0]
        assert abs(term.F(t) - exact) <= 1e-10 * max(exact, 1.0)
        assert term.F(-t) == term.F(t)


def test_weighted_term_profile_applied(grid_small):
    profile = np.exp(-grid_small.r)
    spec = NonlinearitySpec.of(WeightedPowerTerm.from_profile(2.0, 3.0, profile))
    u = grid_small.field(np.full(grid_small.M, 0.5))
    f = spec.f(u.values, grid_small.r)
    assert np.allclose(f, 2.0 * profile * 0.5 * 0.5)


# ---------------------------------------------------------------------------
# reciprocal-J on the manifold
# ---------------------------------------------------------------------------

def test_psi_tilde_on_manifold(grid_small):
    u = project_to_M(grid_small.field(np.exp(-grid_small.r ** 2)))
    assert math.isclose(Psi_tilde(u), 1.0 / J_functional(u), rel_tol=1e-12)


def test_psi_tilde_rejects_off_manifold(grid_small):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    iu = I_functional(u)
    assert abs(iu - 1.0) > 1e-6
    with pytest.raises(ValueError, match="manifold"):
        Psi_tilde(u)
