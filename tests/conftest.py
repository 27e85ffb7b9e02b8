import numpy as np
import pytest

from fcs import ProblemParams, make_grid
from fcs.operators import frac_seminorm_sq, hartree_potential_sym
from fcs.params import compute_exponents


@pytest.fixture(scope="session")
def pstar():
    """Reference parameter triple used throughout."""
    return ProblemParams(3, 0.75, 2.0)


@pytest.fixture(scope="session")
def grid_small(pstar):
    """Cheap grid for unit tests."""
    return make_grid(pstar, 20.0, 192)


@pytest.fixture(scope="session")
def grid_n2():
    p = ProblemParams(2, 0.6, 1.5)
    return make_grid(p, 12.0, 160)


def smooth_random_field(grid, rng, band_fraction=0.33, amplitude=1.0, windowed=True):
    """Random band-limited field: low-wavenumber coefficients only.

    ``windowed`` tapers the tail so the boundary-decay flag is set, which
    the scaling operations require.
    """
    eng = grid.transform()
    b = np.zeros(grid.M)
    cut = max(4, int(band_fraction * grid.M))
    b[:cut] = rng.standard_normal(cut) * np.exp(-np.arange(cut) / (0.15 * cut))
    vals = eng.inverse(b)
    if windowed:
        vals = vals * np.exp(-((grid.r / (0.45 * grid.R)) ** 8))
    peak = np.max(np.abs(vals))
    return grid.field(amplitude * vals / peak if peak > 0 else vals)


def rayleigh_quotient(u):
    """<A(u), u> / <B(u), u> = (S + Q) / sum_j w_j |u_j|^(q*), straight from
    the operators: the reference for the eigen points of ``fcs.solvers``."""
    p = compute_exponents(u.grid.params).two_star_s_alpha
    Q = float(np.sum(u.grid.w * u.values ** 2 * hartree_potential_sym(u)))
    return (frac_seminorm_sq(u) + Q) / float(np.sum(u.grid.w * np.abs(u.values) ** p))
