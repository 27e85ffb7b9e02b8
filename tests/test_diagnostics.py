import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcs import ProblemParams, make_grid
from fcs.diagnostics import (
    estimate_sobolev_constant,
    identity_closure_gap,
    linking_probe,
    nehari_residual,
    pohozaev_residual,
    ps_threshold,
)
from fcs.energy import (
    I_functional,
    J_functional,
    NonlinearitySpec,
    Phi_lambda,
    WeightedPowerTerm,
    eigen_spec,
    pure_power,
)
from fcs.params import compute_exponents
from fcs.scaling import project_to_M
from fcs.solvers import eigen1

from conftest import smooth_random_field


@pytest.fixture(scope="module")
def grid(pstar):
    return make_grid(pstar, 20.0, 160)


@pytest.fixture(scope="module")
def exps(pstar):
    return compute_exponents(pstar)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def test_pohozaev_zero_field(grid):
    rec = pohozaev_residual(grid.zero_field(), pure_power(1.0, 2.7))
    assert rec.pohozaev_lhs == 0.0 and rec.pohozaev_rhs == 0.0
    assert rec.pohozaev_rel == 0.0


def test_pohozaev_nonsolution_is_far_from_zero(grid):
    # a generic Gaussian is not a solution: the residual has a floor
    u = grid.field(np.exp(-grid.r ** 2))
    rec = pohozaev_residual(u, pure_power(1.0, 2.7))
    assert rec.pohozaev_rel > 1e-2


def test_pohozaev_rejects_weighted_terms(grid):
    spec = NonlinearitySpec.of(
        WeightedPowerTerm.from_profile(1.0, 2.7, np.ones(grid.M))
    )
    with pytest.raises(ValueError, match="autonomous"):
        pohozaev_residual(grid.zero_field(), spec)


def test_nehari_zero_field(grid):
    assert nehari_residual(grid.zero_field(), pure_power(1.0, 2.7)) == 0.0


def test_nehari_generic_field_nonzero(grid):
    rng = np.random.default_rng(5)
    u = smooth_random_field(grid, rng)
    assert abs(nehari_residual(u, pure_power(1.0, 2.7))) > 1e-6


def test_eigen_identity_by_construction(grid):
    rng = np.random.default_rng(6)
    u = smooth_random_field(grid, rng)
    lam = I_functional(u) / J_functional(u)
    assert abs(Phi_lambda(u, lam)) <= 1e-12 * I_functional(u)
    # a random multiplier does not satisfy it
    assert abs(Phi_lambda(u, 0.5 * lam)) > 1e-6


def test_pohozaev_record_eigen_identity_matches_the_direct_residual(grid):
    # the record reads I from its own ray; the value is bitwise the direct one
    rng = np.random.default_rng(8)
    u = smooth_random_field(grid, rng)
    lam = float(rng.uniform(0.5, 5.0))
    rec = pohozaev_residual(u, pure_power(1.0, 2.7), lam=lam)
    assert rec.eigen_identity_rel == abs(Phi_lambda(u, lam)) / I_functional(u)


def test_identity_closure_is_algebraic(grid, exps):
    # the combination (theta * nehari - pohozaev)/sigma equals I - lam J for
    # ANY field and multiplier, to rounding, because all three residuals are
    # built from the same discrete functionals
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = smooth_random_field(grid, rng)
        lam = float(rng.uniform(0.5, 5.0))
        gap = identity_closure_gap(u, lam)
        scale_ref = max(abs(gap["direct"]), 1.0)
        assert gap["gap"] <= 1e-10 * scale_ref
        assert gap["gap"] <= gap["component_budget"] + 1e-12 * scale_ref


def test_closure_on_converged_eigenpair(pstar, grid):
    rep = eigen1(pstar, grid)
    gap = identity_closure_gap(rep.solution, rep.multiplier)
    assert gap["gap"] <= gap["component_budget"] + 1e-12


# ---------------------------------------------------------------------------
# best constant and the concentration threshold
# ---------------------------------------------------------------------------

def test_sobolev_estimate_scale_invariance(grid_small):
    # the optimizer output is a stationary point of the quotient, so its
    # quotient is first-order insensitive to an approximate dilation
    from fcs.diagnostics import sobolev_extremal
    from fcs.operators import frac_seminorm_sq
    from fcs.grid import lp_norm
    from fcs.scaling import scale

    p = grid_small.params
    S = estimate_sobolev_constant(p, grid_small)
    assert S > 0.0
    exps = compute_exponents(p)
    u = sobolev_extremal(p, grid_small)
    q0 = frac_seminorm_sq(u) / lp_norm(u, exps.two_star_s) ** 2
    # contraction keeps the state interior; the extremal tail is read as zero
    ut = scale(u, 2.0, assume_zero_tail=True)
    q1 = frac_seminorm_sq(ut) / lp_norm(ut, exps.two_star_s) ** 2
    assert abs(q1 - q0) <= 2e-2 * q0  # tighter at the reference resolution


def test_sobolev_estimate_domain_stability():
    # doubling the cutoff (node count doubled too) moves the estimate < 1%
    p = ProblemParams(3, 0.5, 2.0)
    a = estimate_sobolev_constant(p, make_grid(p, 10.0, 128))
    b = estimate_sobolev_constant(p, make_grid(p, 20.0, 256))
    assert abs(b - a) <= 1e-2 * b


def test_sobolev_rejects_below_regime():
    p = ProblemParams(5, 0.3, 1.5)
    g = make_grid(p, 10.0, 32)
    with pytest.raises(ValueError, match="below-regime"):
        estimate_sobolev_constant(p, g)


def test_ps_threshold_spot_checks():
    p = ProblemParams(3, 0.75, 2.0)
    assert math.isclose(ps_threshold(p, 1.0), 0.75 / 3.0, rel_tol=1e-15)
    # N/(2s) = 2 at s = 0.75, N = 3: threshold = 0.25 * S^2
    assert math.isclose(ps_threshold(p, 2.0), 1.0, rel_tol=1e-15)
    assert ps_threshold(p, 3.0) > ps_threshold(p, 2.0) > ps_threshold(p, 1.0)
    with pytest.raises(ValueError):
        ps_threshold(p, 0.0)


@given(S=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=80, deadline=None)
def test_ps_threshold_matches_direct_exponentiation(S):
    p = ProblemParams(3, 0.8, 2.0)
    assert math.isclose(
        ps_threshold(p, S), (0.8 / 3.0) * S ** (3.0 / 1.6), rel_tol=1e-13
    )


# ---------------------------------------------------------------------------
# local-linking probe
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def probe_candidates(grid):
    # two manifold points with well-separated reciprocal-J values: the first
    # eigenfunction (smallest) and a projected narrow Gaussian (large)
    p = grid.params
    low = eigen1(p, grid).solution
    high = project_to_M(grid.field(np.exp(-((grid.r / 0.4) ** 2))))
    return low, high


def test_linking_probe_bracketing(grid, exps, probe_candidates):
    # the probe window uses moderate dilations: expanding a fat-tailed
    # candidate by more pushes its mass past the cutoff and the truncation
    # error overtakes the t^sigma leading term (see the decisions record)
    from fcs.energy import Psi_tilde

    low, high = probe_candidates
    lam = 0.5 * (Psi_tilde(low) + min(Psi_tilde(high), 3.0 * Psi_tilde(low)))
    assert Psi_tilde(low) < lam < Psi_tilde(high)
    spec = eigen_spec(lam, exps)
    table = linking_probe(spec, lam, [low, high], [0.0, 0.7, 0.85, 1.0])
    assert table["pattern_holds"]
    assert not table["partial"]
    sides = {row.side for row in table["rows"]}
    assert sides == {"low", "high"}
    # the t = 0 entries are identically zero
    for row in table["rows"]:
        assert row.profile[0] == (0.0, 0.0)


def test_linking_probe_all_positive_below_spectrum(grid, exps, probe_candidates):
    from fcs.energy import Psi_tilde

    low, high = probe_candidates
    lam = 0.5 * Psi_tilde(low)
    spec = eigen_spec(lam, exps)
    table = linking_probe(spec, lam, [low, high], [0.7, 0.85, 1.0])
    assert table["pattern_holds"]
    assert table["partial"]  # no low-side candidate: partial table
    assert all(row.side == "high" for row in table["rows"])
    for row in table["rows"]:
        assert all(phi > 0.0 for _, phi in row.profile)


def test_diagnostics_are_pure(grid):
    # byte-identical inputs give byte-identical records
    u = grid.field(np.exp(-grid.r ** 2))
    spec = pure_power(1.0, 2.7)
    a = pohozaev_residual(u, spec)
    b = pohozaev_residual(u, spec)
    assert a == b
    assert nehari_residual(u, spec) == nehari_residual(u, spec)
