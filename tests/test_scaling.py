import math
import warnings

import numpy as np
import pytest
import scipy.interpolate

import fcs.scaling as scaling
from fcs import ProblemParams, make_grid
from fcs.energy import I_functional, Phi, Psi_tilde, eigen_spec, pure_power
from fcs.operators import coulomb_energy, frac_seminorm_sq
from fcs.params import compute_exponents
from fcs.scaling import _Fiber, project_to_M, scale

from conftest import smooth_random_field


@pytest.fixture(scope="module")
def exps(pstar):
    return compute_exponents(pstar)


@pytest.fixture()
def gaussian(grid_small):
    return grid_small.field(np.exp(-grid_small.r ** 2))


def test_scale_identity_is_exact(gaussian):
    out = scale(gaussian, 1.0)
    assert np.array_equal(out.values, gaussian.values)


def test_scale_zero_gives_zero(gaussian):
    assert np.all(scale(gaussian, 0.0).values == 0.0)


def test_scale_rejects_negative_t(gaussian):
    with pytest.raises(ValueError):
        scale(gaussian, -0.5)


def test_scale_amplitude_commutes(gaussian):
    # (tau u)_t = tau u_t; exact for a power-of-two amplitude
    grid = gaussian.grid
    for tau in (2.0, -1.0):
        lhs = scale(grid.field(tau * gaussian.values), 0.7)
        rhs = tau * scale(gaussian, 0.7).values
        assert np.array_equal(lhs.values, rhs)
    lhs = scale(grid.field(1.3 * gaussian.values), 0.7)
    rhs = 1.3 * scale(gaussian, 0.7).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_scale_composition(pstar):
    # (u_t1)_t2 = u_(t1 t2) within interpolation tolerance; the budget is set
    # by how well the grid resolves the narrowest intermediate state, so
    # expanding pairs meet 1e-6 while contracting pairs sit at the cubic
    # interpolation order for their width
    from fcs import make_grid

    g = make_grid(pstar, 20.0, 512)
    gaussian = g.field(np.exp(-g.r ** 2))
    for t1, t2, tol in [(0.5, 0.8, 5e-6), (0.8, 1.25, 5e-6), (2.0, 0.4, 1e-4), (1.25, 1.5, 5e-5)]:
        once = scale(gaussian, t1 * t2)
        twice = scale(scale(gaussian, t1), t2)
        denom = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) <= tol * denom


def test_fiber_at_is_bitwise_scale(grid_small):
    # one interpolant serves every t, in any order, exactly as a fresh one would
    rng = np.random.default_rng(5)
    r = grid_small.r
    fields = [
        np.exp(-r ** 2),
        smooth_random_field(grid_small, rng).values,
        np.exp(-((r / 15.0) ** 2)),  # no boundary decay
    ]
    ts = [0.77, 0.0, 1.3, 1e-3, 1.0, 0.31, 2.5, 1.0 + 1e-12]
    for vals in fields:
        u = grid_small.field(vals)
        for zero_tail in (False, True):
            fiber = _Fiber(u, zero_tail)
            for t in ts:
                try:
                    expect = scale(u, t, assume_zero_tail=zero_tail)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        fiber.at(t)
                    continue
                got = fiber.at(t)
                assert got.values.tobytes() == expect.values.tobytes()
    for t in (-0.5, math.inf, math.nan):  # refused before any arithmetic: no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonnegative"):
                _Fiber(grid_small.field(fields[0])).at(t)


def test_scale_beyond_cutoff_requires_decay(grid_small):
    wide = grid_small.field(np.exp(-((grid_small.r / 15.0) ** 2)))
    assert not wide.boundary_decay
    with pytest.raises(ValueError, match="beyond cutoff"):
        scale(wide, 1.5)


def test_fiber_at_overflow_is_a_value_error(gaussian):
    # t^theta beyond the float range: callers treat ValueError as a rejected
    # step or start, so the overflow must not escape as OverflowError
    with pytest.raises(ValueError, match="overflows"):
        _Fiber(gaussian).at(1e200)


def test_dilation_norm_bound(gaussian, exps):
    # |u_t| <= max(t^(sigma/2), t^(sigma/4)) |u| on the sampled family, in
    # the Coulomb-Sobolev norm sqrt(|u|_s^2 + sqrt(D(u)))
    def norm(u):
        return math.sqrt(frac_seminorm_sq(u) + math.sqrt(max(coulomb_energy(u), 0.0)))

    base = norm(gaussian)
    for t in np.linspace(0.25, 4.0, 8):
        bound = max(t ** (exps.sigma / 2.0), t ** (exps.sigma / 4.0)) * base
        assert norm(scale(gaussian, float(t))) <= bound * (1.0 + 1e-3)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_I_dilation_law_interpolated(gaussian, exps, t):
    # resampled (not analytic) dilation still obeys the law to 1e-3
    lhs = I_functional(scale(gaussian, t))
    rhs = t ** exps.sigma * I_functional(gaussian)
    assert abs(lhs - rhs) <= 1e-3 * rhs


# ---------------------------------------------------------------------------
# fiber projection
# ---------------------------------------------------------------------------

def test_projection_lands_on_manifold(gaussian):
    u = project_to_M(gaussian)
    assert abs(I_functional(u) - 1.0) <= 1e-8


def test_projection_fixes_manifold_points(gaussian):
    u = project_to_M(gaussian)
    v = project_to_M(u)
    assert abs(I_functional(v) - 1.0) <= 1e-8
    assert np.max(np.abs(v.values - u.values)) <= 1e-6 * np.max(np.abs(u.values))


def test_projection_idempotent_on_random_fields(grid_small):
    # fields are kept concentrated so the expanding projection does not push
    # mass past the decay window (dilating with t > 1 needs the decay flag)
    rng = np.random.default_rng(17)
    r, R = grid_small.r, grid_small.R
    window = np.exp(-((r / (0.2 * R)) ** 8))
    for _ in range(5):
        u = smooth_random_field(grid_small, rng)
        u = grid_small.field(u.values * window)
        iu = I_functional(u)
        if iu == 0.0:
            continue
        # keep I(u) within [1, 4] so the fiber parameter stays in [1/2, 1]
        u = grid_small.field(u.values * min(2.0, max(1.0, 1.5 / iu ** 0.25)))
        pu = project_to_M(u)
        ppu = project_to_M(pu)
        assert abs(I_functional(ppu) - 1.0) <= 1e-8
        assert np.max(np.abs(ppu.values - pu.values)) <= 1e-6 * np.max(np.abs(pu.values))


def test_projection_fiber_invariance(pstar):
    # pi(u_t) = pi(u): dilations move along the fiber the projection kills;
    # the contracting branch resamples a narrow state and carries the
    # corresponding interpolation budget
    from fcs import make_grid

    g = make_grid(pstar, 20.0, 512)
    gaussian = g.field(np.exp(-g.r ** 2))
    pu = project_to_M(gaussian)
    for t, tol in ((0.5, 1e-5), (2.0, 1e-4)):
        put = project_to_M(scale(gaussian, t))
        assert np.max(np.abs(put.values - pu.values)) <= tol * np.max(np.abs(pu.values))


def test_projection_of_rescaled_field_stays_on_manifold(gaussian):
    # NOTE: pi(c u) != pi(u) for c != 1: the energy mixes quadratic and
    # quartic homogeneities, so amplitude rescaling is NOT a fiber motion
    # and the projected points genuinely differ.  What does hold: both land
    # on the manifold, and re-projection is stable.
    grid = gaussian.grid
    a = project_to_M(gaussian)
    b = project_to_M(grid.field(3.7 * gaussian.values))
    assert abs(I_functional(a) - 1.0) <= 1e-8
    assert abs(I_functional(b) - 1.0) <= 1e-8
    assert np.max(np.abs(a.values - b.values)) > 1e-3 * np.max(np.abs(a.values))


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _checkerboard(grid):
    # rough Armijo-trial-like content at the grid scale: the resampled energy
    # is far from t^sigma-homogeneous, so an analytic-slope Newton stalls
    alt = (-1.0) ** np.arange(grid.M)
    return grid.field(1.5 * np.exp(-grid.r ** 2) * (1.0 + 0.3 * alt))


@pytest.mark.parametrize("M", [256, 1024])
def test_projection_of_rough_field_is_superlinear(pstar, monkeypatch, M):
    grid = make_grid(pstar, 20.0, M)
    u = _checkerboard(grid)
    counter = _Counter(I_functional)
    monkeypatch.setattr(scaling, "I_functional", counter)
    v = project_to_M(u)
    assert abs(I_functional(v) - 1.0) <= 1e-11
    assert counter.calls <= 15


def test_projection_builds_one_interpolant(grid_small, monkeypatch):
    counter = _Counter(scipy.interpolate.PchipInterpolator)
    monkeypatch.setattr(scipy.interpolate, "PchipInterpolator", counter)
    rng = np.random.default_rng(9)
    fields = [
        grid_small.field(np.exp(-grid_small.r ** 2)),
        _checkerboard(grid_small),
        smooth_random_field(grid_small, rng, amplitude=2.0),
    ]
    for u in fields:
        before = counter.calls
        project_to_M(u)
        assert counter.calls - before == 1


@pytest.mark.parametrize("alpha", [1.5, 1.4])
def test_projection_below_threshold(alpha):
    # sigma < 0: I(u_t) falls as t grows, and the projection still lands
    p = ProblemParams(3, 0.3, alpha)
    assert compute_exponents(p).sigma < 0.0
    grid = make_grid(p, 20.0, 192)
    for u in (grid.field(np.exp(-grid.r ** 2)), _checkerboard(grid)):
        assert abs(I_functional(project_to_M(u)) - 1.0) <= 1e-11


def test_projection_small_sigma_raises_typed_error():
    # sigma = 0.002: t = I^(-1/sigma) either leaves the float range or asks
    # for a dilation the ball cannot hold; both are RuntimeErrors
    p = ProblemParams(3, 0.442, 1.234)
    grid = make_grid(p, 20.0, 128)
    gaussian = np.exp(-grid.r ** 2)
    with pytest.raises(RuntimeError, match="not representable"):
        project_to_M(grid.field(5.0 * gaussian))
    with pytest.raises(RuntimeError, match="did not converge"):
        project_to_M(grid.field(gaussian))


def test_projection_rejects_zero(grid_small):
    with pytest.raises(ValueError):
        project_to_M(grid_small.zero_field())


# ---------------------------------------------------------------------------
# the action along a fiber
# ---------------------------------------------------------------------------

def test_fiber_profile_eigen_geometry(gaussian, exps):
    # pure scaling-critical power: Phi(u_t) = t^sigma (1 - lam/Psi(u))
    u = project_to_M(gaussian)
    psi = Psi_tilde(u)
    lam = 0.5 * psi
    ts = [0.25, 0.5, 0.75, 1.0]
    phis = [Phi(scale(u, t), eigen_spec(lam, exps)) for t in ts]
    for t, phi in zip(ts, phis):
        expect = t ** exps.sigma * (1.0 - lam / psi)
        assert abs(phi - expect) <= 5e-3 * abs(expect)
        assert phi > 0.0
    # convexity in t^sigma for sigma = 2: phi / t^2 constant
    vals = [phi / t ** 2 for t, phi in zip(ts, phis)]
    assert max(vals) - min(vals) <= 5e-3 * abs(vals[0])


def test_fiber_profile_superscaled_sign_pattern(grid_small):
    # superscaled growth: positive barrier for small t, negative afterwards
    spec = pure_power(40.0, 3.4)
    u = project_to_M(grid_small.field(np.exp(-grid_small.r ** 2)))
    phis = [Phi(scale(u, t), spec) for t in (0.05, 0.1, 1.0)]
    assert phis[0] > 0.0 and phis[1] > 0.0
    assert phis[-1] < 0.0
