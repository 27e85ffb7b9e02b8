import math

import numpy as np
import pytest

from fcs import ProblemParams, forward_transform, lp_norm, make_grid
from fcs.energy import NonlinearitySpec, PowerTerm
from fcs.grid import Field, GridMismatchError
from fcs.params import compute_exponents
from fcs.solvers import eigen1, find_negative_energy_point, mountain_pass

from conftest import smooth_random_field


def test_grid_construction(pstar):
    g = make_grid(pstar, 20.0, 512)
    assert g.h == 20.0 / 513
    assert np.all(np.diff(g.r) > 0)
    assert g.r[0] > 0 and g.r[-1] < 20.0
    assert np.allclose(g.w, 4 * math.pi * g.r ** 2 * g.h)


def test_grid_volume_check(pstar):
    # sum of weights approximates the ball volume to 1%
    g = make_grid(pstar, 20.0, 512)
    vol = 4.0 / 3.0 * math.pi * 20.0 ** 3
    assert abs(np.sum(g.w) - vol) / vol < 1e-2

    g2 = make_grid(ProblemParams(2, 0.6, 1.5), 10.0, 256)
    assert np.allclose(g2.w, 2 * math.pi * g2.r * g2.h)
    vol2 = math.pi * 10.0 ** 2
    assert abs(np.sum(g2.w) - vol2) / vol2 < 1e-2


def test_grid_rejects_bad_arguments(pstar):
    with pytest.raises(ValueError):
        make_grid(pstar, math.inf, 64)
    with pytest.raises(ValueError):
        make_grid(pstar, -1.0, 64)
    with pytest.raises(ValueError):
        make_grid(pstar, 10.0, 8)


def test_field_validation(grid_small):
    with pytest.raises(ValueError):
        Field(grid_small, np.ones(grid_small.M - 1))
    bad = np.ones(grid_small.M)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(grid_small, bad)


def test_boundary_decay_flag(grid_small):
    gauss = grid_small.field(np.exp(-grid_small.r ** 2))
    assert gauss.boundary_decay
    wide = grid_small.field(np.exp(-((grid_small.r / 15.0) ** 2)))
    assert not wide.boundary_decay
    assert grid_small.zero_field().boundary_decay


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------

def test_zero_transforms_to_zero(grid_small):
    uhat = forward_transform(grid_small.zero_field())
    assert np.all(uhat.coefficients == 0.0)


def test_plancherel_on_band_limited_fields(pstar):
    g = make_grid(pstar, 20.0, 256)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = smooth_random_field(g, rng)
        direct = np.sum(g.w * u.values ** 2)
        spectral = np.sum(forward_transform(u).coefficients ** 2)
        assert abs(spectral - direct) <= 1e-10 * max(direct, 1e-30)


def test_round_trip_identity(pstar):
    g = make_grid(pstar, 20.0, 256)
    rng = np.random.default_rng(5)
    u = smooth_random_field(g, rng)
    v = g.transform().inverse(forward_transform(u).coefficients)
    assert np.max(np.abs(v - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_transform_linearity(pstar):
    g = make_grid(pstar, 20.0, 192)
    rng = np.random.default_rng(9)
    u, v = smooth_random_field(g, rng), smooth_random_field(g, rng)
    a, b = 1.7, -0.3
    lhs = forward_transform(g.field(a * u.values + b * v.values)).coefficients
    rhs = a * forward_transform(u).coefficients + b * forward_transform(v).coefficients
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_gaussian_l2_norm(pstar):
    g = make_grid(pstar, 20.0, 512)
    u = g.field(np.exp(-g.r ** 2))
    exact = math.pi ** 1.5 / (2.0 * math.sqrt(2.0))
    assert abs(lp_norm(u, 2.0) ** 2 - exact) <= 1e-6 * exact
    spectral = np.sum(forward_transform(u).coefficients ** 2)
    assert abs(spectral - exact) <= 1e-6 * exact


def test_physical_fourier_normalization(pstar):
    # radial Fourier transform of exp(-r^2) is pi^(3/2) exp(-k^2/4)
    g = make_grid(pstar, 20.0, 512)
    uhat = forward_transform(g.field(np.exp(-g.r ** 2)))
    k = g.k
    phys = uhat.coefficients * math.sqrt(2.0 * math.pi * g.R) / k  # the sine layout
    exact = math.pi ** 1.5 * np.exp(-k ** 2 / 4.0)
    sel = k < 8.0
    assert np.max(np.abs(phys[sel] - exact[sel])) <= 1e-8 * exact[0]


@pytest.mark.parametrize("M", [29, 64, 128, 256, 512, 640, 767, 768, 769, 1023, 1024, 4096])
def test_sine_engine_is_the_scipy_dst_bit_for_bit(pstar, M):
    # the DST-I is numpy's real FFT of the odd extension; scipy's DST-I pair
    # is the oracle, bit for bit.  At M = 29 and 640, sqrt(0.5/(M+1)) is one
    # ulp off the orthonormal factor scipy rounds from long double
    from scipy.fft import dst

    g = make_grid(pstar, 20.0, M)
    eng = g.transform()
    c = math.sqrt(4.0 * math.pi * g.h)
    rng = np.random.default_rng(M)
    for _ in range(5):
        u = rng.standard_normal(M)
        assert np.array_equal(eng.forward(u), c * dst(g.r * u, type=1, norm="ortho"))
        assert np.array_equal(eng.inverse(u), dst(u, type=1, norm="ortho") / (c * g.r))
    u0 = u.copy()
    eng.forward(u)
    assert np.array_equal(u, u0)  # the input is read, not overwritten


@pytest.mark.parametrize("M", [29, 64, 767, 768, 1024])
def test_dense_lap_is_the_scipy_dct_build_bit_for_bit(pstar, M):
    from scipy.fft import dct

    from fcs.grid import _toeplitz_minus_hankel

    eng = make_grid(pstar, 20.0, M).transform()
    c = dct(np.concatenate(([0.0], eng.k2s, [0.0])), type=1) / (2.0 * (M + 1))
    assert np.array_equal(eng.dense_lap(), _toeplitz_minus_hankel(np.concatenate((c, c[-2:0:-1])), eng.r))


def test_generic_dimension_transform(grid_n2):
    rng = np.random.default_rng(21)
    u = smooth_random_field(grid_n2, rng)
    direct = np.sum(grid_n2.w * u.values ** 2)
    spectral = np.sum(forward_transform(u).coefficients ** 2)
    assert abs(spectral - direct) <= 1e-6 * direct  # exact by construction
    v = grid_n2.transform().inverse(forward_transform(u).coefficients)
    assert np.max(np.abs(v - u.values)) <= 1e-10 * np.max(np.abs(u.values))
    # linearity
    w = smooth_random_field(grid_n2, rng)
    lhs = forward_transform(grid_n2.field(2.0 * u.values - w.values)).coefficients
    rhs = 2.0 * forward_transform(u).coefficients - forward_transform(w).coefficients
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1e-30)


@pytest.mark.parametrize("N, s, alpha", [(3, 0.75, 2.0), (2, 0.6, 1.5)])
def test_fractional_symbol_is_built_once_per_grid(N, s, alpha):
    # every evaluation shares this array, so it is the direct power bit for
    # bit and cannot be written through
    g = make_grid(ProblemParams(N, s, alpha), 12.0, 64)
    assert g.k2s is g.k2s
    assert np.array_equal(g.k2s, g.k ** (2.0 * s))
    with pytest.raises(ValueError):
        g.k2s[0] = 0.0


def test_grid_mismatch_rejected(pstar):
    g1 = make_grid(pstar, 20.0, 64)
    g2 = make_grid(pstar, 20.0, 96)
    from fcs.operators import quadrilinear_T

    u1 = g1.field(np.exp(-g1.r ** 2))
    u2 = g2.field(np.exp(-g2.r ** 2))
    with pytest.raises(GridMismatchError):
        quadrilinear_T(u1, u1, u1, u2)


# ---------------------------------------------------------------------------
# quadrature / norms
# ---------------------------------------------------------------------------

def test_lp_norm_values(pstar):
    g = make_grid(pstar, 20.0, 512)
    u = g.field(np.exp(-g.r ** 2))
    # L4 norm of the Gaussian: integral of exp(-4 r^2) over R^3
    exact4 = math.pi ** 1.5 / 8.0
    assert abs(lp_norm(u, 4.0) ** 4 - exact4) <= 1e-6 * exact4
    assert math.isclose(lp_norm(u, math.inf), float(np.max(u.values)))


def test_lp_norm_homogeneity(grid_small):
    rng = np.random.default_rng(2)
    u = smooth_random_field(grid_small, rng)
    for p in (1.0, 2.0, 2.7, 4.0):
        assert math.isclose(
            lp_norm(grid_small.field(-2.5 * u.values), p), 2.5 * lp_norm(u, p), rel_tol=1e-12
        )


def test_lp_norm_rejects_p_below_one(grid_small):
    with pytest.raises(ValueError):
        lp_norm(grid_small.zero_field(), 0.5)


def test_quadrature_error_decreases_under_refinement(pstar):
    # monotone convergence on a Gaussian under M-doubling; a narrow profile
    # keeps the error above the rounding floor at the coarse levels
    exact = math.pi ** 1.5 / 64.0  # squared L2 norm of exp(-8 r^2)
    errs = []
    for M in (16, 32, 64):
        g = make_grid(pstar, 10.0, M)
        u = g.field(np.exp(-8.0 * g.r ** 2))
        errs.append(abs(lp_norm(u, 2.0) ** 2 - exact))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[1] < 0.5 * errs[0]  # at least first order in h


def test_bessel_zeros_half_integer_order():
    # N = 5, 6, ... use J_{N/2-1}: the McMahon + Newton zeros of any order
    # must meet an arbitrary-precision evaluation to 2 ulp, in increasing order
    mp = pytest.importorskip("mpmath")
    from fcs.grid import _bessel_zeros

    mp.mp.dps = 30
    ms = [1, 2, 3, 4, 5, 6, 7, 8, 50]
    for nu in (0.5, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0):
        z = _bessel_zeros(nu, 50)
        exact = np.array([float(mp.besseljzero(mp.mpf(nu), m)) for m in ms])
        assert np.all(np.abs(z[[m - 1 for m in ms]] - exact) <= 2.0 * np.spacing(exact)), nu
        assert np.all(np.diff(z) > 0), nu


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_zeros_of_orders_zero_and_one(nu):
    # N = 2 and 4: McMahon guesses refined by Newton on j0/j1 must meet
    # scipy's zeros to 2 ulp and an arbitrary-precision evaluation
    from scipy.special import jn_zeros

    from fcs.grid import _bessel_zeros

    for M in (16, 256, 4096):
        z, ref = _bessel_zeros(nu, M), jn_zeros(nu, M)
        assert np.all(np.abs(z - ref) <= 2.0 * np.spacing(ref)), M
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    z = _bessel_zeros(nu, 100)
    for m in (1, 2, 10, 100):
        exact = float(mp.besseljzero(nu, m))
        assert abs(z[m - 1] - exact) <= 2.0 * np.spacing(exact), m


def _bessel_Q_oracle(grid):
    """The Loewdin-orthonormalized Fourier-Bessel modes with every J_nu from
    ``jv``, written out as in the engine."""
    from scipy.special import jv

    from fcs.grid import _bessel_zeros
    from fcs.params import sphere_area

    N = grid.params.N
    nu = N / 2.0 - 1.0
    z = _bessel_zeros(nu, grid.M)
    k = z / grid.R
    norm = np.sqrt(sphere_area(N) * grid.R ** 2 / 2.0) * np.abs(jv(nu + 1.0, z))
    phi = grid.r[:, None] ** (-nu) * jv(nu, k[None, :] * grid.r[:, None]) / norm[None, :]
    B = phi * np.sqrt(grid.w)[:, None]
    evals, evecs = np.linalg.eigh(B.T @ B)
    return B @ (evecs * evals ** -0.5) @ evecs.T


@pytest.mark.parametrize("N, alpha", [(2, 1.5), (4, 2.5), (5, 3.0), (6, 2.0)])
def test_bessel_modes_match_the_jv_oracle(N, alpha):
    from fcs.grid import _BesselEngine

    g = make_grid(ProblemParams(N, 0.75, alpha), 10.0, 64)
    Q = _BesselEngine(g)._Q
    oracle = _bessel_Q_oracle(g)
    if N in (2, 4):  # J_0 / J_1 from j0 / j1
        assert np.max(np.abs(Q - oracle)) <= 1e-13
    else:
        assert np.array_equal(Q, oracle)


@pytest.mark.parametrize("N,s,alpha", [(4, 0.6, 2.5), (5, 0.9, 3.0)])
def test_higher_dimension_transform_and_riesz(N, s, alpha):
    from fcs import forward_transform
    from fcs.operators import gaussian_riesz_profile, riesz_potential

    p = ProblemParams(N, s, alpha)
    g = make_grid(p, 10.0, 96)
    u = g.field(np.exp(-g.r ** 2))
    b = forward_transform(u)
    direct = float(np.sum(g.w * u.values ** 2))
    assert abs(float(np.sum(b.coefficients ** 2)) - direct) <= 1e-10 * direct
    assert np.max(np.abs(g.transform().inverse(b.coefficients) - u.values)) <= 1e-10
    pot = riesz_potential(u).values
    exact = gaussian_riesz_profile(N, alpha, g.r)
    rel = math.sqrt(np.sum(g.w * (pot - exact) ** 2) / np.sum(g.w * exact ** 2))
    assert rel < 1e-4


# measured max |error| / max |exact| on r < 3 at M = 128 and 512 (R = 20) of
# the cases whose Loewdin-orthonormalized J_nu modes (integer nu, even N)
# put a smooth field's weight on high k; ROADMAP item 9
_POINTWISE_MISSES = {
    (2, 0.75): (8.0e-1, 5.9), (2, 0.25): (8.2e-2, 1.9e-1), (4, 0.75): (1.6e-1, 1.3), (6, 0.75): (8.9e-2, 7.0e-1),
}


@pytest.mark.parametrize("N, s, alpha", [
    pytest.param(
        N, s, alpha,
        marks=pytest.mark.xfail(
            (N, s) in _POINTWISE_MISSES, strict=True,
            reason="(-Delta)^s exp(-r^2) off the closed form by {:.1e} (M = 128) and {:.1e} (M = 512) "
            "of its maximum".format(*_POINTWISE_MISSES.get((N, s), (0.0, 0.0))),
        ),
    )
    for N, s, alpha in [(2, 0.75, 1.5), (2, 0.25, 1.5), (3, 0.75, 2.0), (4, 0.75, 2.0), (5, 0.75, 2.5), (6, 0.75, 2.0)]
])
def test_fractional_laplacian_of_gaussian_pointwise(N, s, alpha):
    # (-Delta)^s exp(-|x|^2) = 4^s Gamma(s + N/2) / Gamma(N/2) 1F1(s + N/2; N/2; -r^2)
    # node by node on r < 3, where the profile lives; alpha does not enter,
    # it only has to be admissible.  Measured 8.9e-8 / 8.6e-8 (N = 3) and
    # 3.3e-10 at both M (N = 5); the error may not grow with M
    from scipy.special import gamma, hyp1f1

    errors = []
    for M in (128, 512):
        g = make_grid(ProblemParams(N, s, alpha), 20.0, M)
        eng = g.transform()
        mine = eng.lap(eng.forward(np.exp(-g.r ** 2)))
        exact = 4.0 ** s * gamma(s + N / 2) / gamma(N / 2) * hyp1f1(s + N / 2, N / 2, -g.r ** 2)
        sel = g.r < 3.0
        errors.append(np.max(np.abs(mine[sel] - exact[sel])) / np.max(np.abs(exact[sel])))
    assert max(errors) <= 1e-6
    assert errors[1] <= 2.0 * errors[0]


def _critical_mountain_pass(p, g):
    # the critical family caches the Sobolev extremal on the grid
    exps = compute_exponents(p)
    qs = (exps.two_star_s_alpha, 3.5, exps.two_star_s)
    spec = NonlinearitySpec.of(*(PowerTerm(1.0, q) for q in qs))
    mountain_pass(p, g, spec, find_negative_energy_point(p, g, spec))


@pytest.mark.parametrize(
    "N,s,alpha,solve",
    [
        pytest.param(3, 0.75, 2.0, eigen1, id="3-0.75-2.0"),
        pytest.param(4, 0.75, 2.5, eigen1, id="4-0.75-2.5"),
        pytest.param(3, 0.8, 2.0, _critical_mountain_pass, id="3-0.8-2.0-critical-mountain-pass"),
    ],
)
def test_solved_grid_is_freed_by_reference_counting(N, s, alpha, solve):
    # the grid caches its transform, Riesz kernel, dense Laplacian and Sobolev
    # extremal; none of them may point back at it, or each finished solve
    # leaves its M x M matrices alive until the cycle collector happens to run
    import gc
    import weakref

    p = ProblemParams(N, s, alpha)
    gc.collect()
    gc.disable()
    try:
        g = make_grid(p, 20.0, 64)
        ref = weakref.ref(g)
        solve(p, g)
        del g
        assert ref() is None
    finally:
        gc.enable()
