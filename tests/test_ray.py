"""Amplitude-ray calculus: closed-form h(a) and Phi(a u) against brute force."""

import numpy as np
import pytest

from fcs import ProblemParams, make_grid
from fcs import operators
from fcs.diagnostics import nehari_residual, pohozaev_residual
from fcs.energy import (
    DampedPowerTerm,
    F_integral,
    I_functional,
    NonlinearitySpec,
    PowerTerm,
    WeightedPowerTerm,
    _Ray,
    pure_power,
)
from fcs.grid import Field
from fcs.operators import apply_A, coulomb_energy, frac_seminorm_sq
from fcs.params import riesz_constant
from fcs.solvers import _nehari_amplitude

GRIDS = {
    "N3-dst": (ProblemParams(3, 0.8, 2.0), 20.0, 128),
    "N4-fourier-bessel": (ProblemParams(4, 0.75, 2.5), 12.0, 64),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    return make_grid(*GRIDS[request.param])


# brute force, independent of the ray: Phi'(v) v through the strong form
# A(v) (one more inverse transform), and I through the Coulomb double integral
def _nehari_brute(v, spec):
    return apply_A(v).pair(v) - float(np.sum(v.grid.w * spec.f(v.values, v.grid.r) * v.values))


def _I_brute(v):
    c_a = riesz_constant(v.grid.params.N, v.grid.params.alpha)
    return 0.5 * frac_seminorm_sq(v) + 0.25 * c_a * coulomb_energy(v)


def _specs(grid):
    return {
        "power": NonlinearitySpec.of(PowerTerm(1.0, 3.6)),
        "damped": NonlinearitySpec.of(DampedPowerTerm(1.0, 4.5, 0.8)),
        "weighted": NonlinearitySpec.of(
            WeightedPowerTerm.from_profile(0.7, 3.2, np.exp(-grid.r / 3.0))
        ),
    }


@pytest.mark.parametrize("kind", ["power", "damped", "weighted"])
def test_ray_matches_brute_force(grid, kind):
    spec = _specs(grid)[kind]
    u = Field(grid, (1.0 - 0.3 * grid.r ** 2) * np.exp(-0.5 * grid.r ** 2))
    ray = _Ray(u, spec)
    amps = np.array([0.05, 0.4, 1.0, 2.5, 7.0])
    hs = ray.nehari(amps)
    phis = ray.phi(amps)
    assert hs.shape == phis.shape == amps.shape
    for i, a in enumerate(amps):
        v = Field(grid, a * u.values)
        f_part = float(np.sum(grid.w * spec.f(v.values, grid.r) * v.values))
        h_size = apply_A(v).pair(v) + abs(f_part)
        phi_size = _I_brute(v) + abs(F_integral(v, spec))
        for got in (hs[i], ray.nehari(float(a))):
            assert abs(got - _nehari_brute(v, spec)) <= 1e-12 * h_size
        for got in (phis[i], ray.phi(float(a))):
            assert abs(got - (_I_brute(v) - F_integral(v, spec))) <= 1e-12 * phi_size
    assert np.ndim(ray.nehari(1.0)) == np.ndim(ray.phi(1.0)) == 0


@pytest.fixture(scope="module")
def mp_grid():
    return make_grid(ProblemParams(3, 0.8, 2.0), 20.0, 128)


def _unit_gaussian(grid):
    g = np.exp(-grid.r ** 2)
    return g / np.sqrt(np.sum(grid.w * g ** 2))


def test_nehari_amplitude_is_outermost_sign_change(mp_grid):
    spec = pure_power(1.0, 4.1)
    shape = _unit_gaussian(mp_grid)
    amp = _nehari_amplitude(_Ray(Field(mp_grid, shape), spec))
    assert amp is not None

    def h(a):
        return _nehari_brute(Field(mp_grid, a * shape), spec)

    assert h(amp * (1.0 - 1e-6)) > 0.0 >= h(amp * (1.0 + 1e-6))
    assert all(h(a) < 0.0 for a in amp * np.logspace(0.01, 2.0, 8))
    # without a nonlinearity h(a) = a^2 S + a^4 Q never changes sign
    assert _nehari_amplitude(_Ray(Field(mp_grid, shape), NonlinearitySpec())) is None


@pytest.mark.parametrize(
    "c3, c45, outer_wins",
    [
        # the outer maximum lies at a negative level, far below the inner one
        (11.7, 0.038, False),
        # the outer maximum (3.3e3) lies above the inner one (0.11), but Phi
        # falls so fast past it that the 0.1-decade scan node just beyond
        # reads -2.3e4: ranking the crossings by scanned Phi takes the inner
        (11.0, 0.03852, True),
    ],
)
def test_nehari_amplitude_takes_the_ray_maximum_among_its_crossings(mp_grid, c3, c45, outer_wins):
    # a^3 beats a^2 S early, a^4 Q brings h back above 0 and a^4.5 takes it
    # below again: two + -> - crossings, each a local maximum of Phi
    spec = NonlinearitySpec.of(PowerTerm(c3, 3.0), PowerTerm(c45, 4.5))
    ray = _Ray(Field(mp_grid, _unit_gaussian(mp_grid)), spec)
    amps = np.logspace(-3.0, 3.0, 6001)
    hs = ray.nehari(amps)
    crossings = np.flatnonzero((hs[:-1] > 0.0) & (hs[1:] <= 0.0))
    assert crossings.size == 2
    phis = ray.phi(amps)
    assert (phis[crossings[1]] > phis[crossings[0]] > 0.0) if outer_wins else (phis[crossings[0]] > 0.0 > phis[crossings[1]])
    amp = _nehari_amplitude(ray)
    assert (amp > amps[crossings[1]]) == outer_wins
    assert ray.nehari(amp * (1.0 - 1e-6)) > 0.0 >= ray.nehari(amp * (1.0 + 1e-6))
    assert ray.phi(amp) >= phis.max()


@pytest.fixture
def counts(mp_grid, monkeypatch):
    """Forward/inverse transforms and kernel matvecs made on ``mp_grid``."""
    calls = {"forward": 0, "inverse": 0, "matvec": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    eng = mp_grid.transform()
    monkeypatch.setattr(eng, "forward", counting(eng.forward, "forward"))
    monkeypatch.setattr(eng, "inverse", counting(eng.inverse, "inverse"))
    kernel = operators._RieszKernel
    monkeypatch.setattr(kernel, "sym_potential", counting(kernel.sym_potential, "matvec"))
    return calls


def test_nehari_amplitude_uses_one_matvec(mp_grid, counts):
    shape = Field(mp_grid, _unit_gaussian(mp_grid))
    amp = _nehari_amplitude(_Ray(shape, pure_power(1.0, 4.1)))
    assert amp is not None
    # 61 scan points and the root refinement share the shape's transform and
    # its single kernel matvec
    assert counts["forward"] + counts["inverse"] <= 2
    assert counts["matvec"] == 1


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda u, spec: I_functional(u), id="I_functional"),
        pytest.param(nehari_residual, id="nehari_residual"),
        pytest.param(pohozaev_residual, id="pohozaev_residual"),
    ],
)
def test_homogeneous_parts_cost_one_transform_and_one_matvec(mp_grid, counts, evaluate):
    # S and Q are read from one ray: no inverse transform through A(u), no
    # second forward transform or matvec for the Pohozaev sides
    evaluate(Field(mp_grid, _unit_gaussian(mp_grid)), pure_power(1.0, 4.1))
    assert counts == {"forward": 1, "inverse": 0, "matvec": 1}


@pytest.mark.parametrize(
    "params", [(2, 0.75, 1.5), (3, 0.75, 2.0), (4, 0.75, 2.5)], ids=["N2", "N3", "N4"]
)
@pytest.mark.parametrize("amp", [0.05, 1.0, 30.0])
def test_on_manifold_is_the_ray_through_I_equal_one(params, amp):
    # the closed-form retraction lands on {I = 1}; it and the ray at another
    # amplitude (``at``) carry exactly what a fresh evaluation of the field
    # computes
    p = ProblemParams(*params)
    g = make_grid(p, 20.0, 96)
    u = Field(g, amp * (1.0 - 0.3 * g.r ** 2) * np.exp(-0.5 * g.r ** 2))
    on = _Ray(u).on_manifold()
    assert abs(on.I - 1.0) <= 1e-14
    at = _Ray(u).at(0.25)
    assert np.array_equal(at.u, 0.5 * u.values)
    for pt in (on, at):
        a = pt.u[0] / u.values[0]
        assert np.allclose(pt.u, a * u.values, rtol=1e-15, atol=0.0)
        fresh = _Ray(Field(g, pt.u))
        for key in ("S", "Q"):
            assert abs(getattr(pt, key) - getattr(fresh, key)) <= 1e-13 * abs(getattr(fresh, key))
        for key in ("pot", "Au"):
            got, want = getattr(pt, key), getattr(fresh, key)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
