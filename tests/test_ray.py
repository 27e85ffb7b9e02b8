"""Amplitude-ray calculus: closed-form h(a) and Phi(a u) against brute force."""

import numpy as np
import pytest

from fcs import ProblemParams, make_grid
from fcs import operators
from fcs.diagnostics import nehari_residual
from fcs.energy import (
    DampedPowerTerm,
    F_integral,
    I_functional,
    NonlinearitySpec,
    Phi,
    PowerTerm,
    WeightedPowerTerm,
    pure_power,
)
from fcs.grid import Field
from fcs.operators import apply_A
from fcs.solvers import _nehari_amplitude, _Ray

GRIDS = {
    "N3-dst": (ProblemParams(3, 0.8, 2.0), 20.0, 128),
    "N4-fourier-bessel": (ProblemParams(4, 0.75, 2.5), 12.0, 64),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    return make_grid(*GRIDS[request.param])


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
        phi_size = I_functional(v) + abs(F_integral(v, spec))
        for got in (hs[i], ray.nehari(float(a))):
            assert abs(got - nehari_residual(v, spec)) <= 1e-12 * h_size
        for got in (phis[i], ray.phi(float(a))):
            assert abs(got - Phi(v, spec)) <= 1e-12 * phi_size
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
    amp = _nehari_amplitude(mp_grid, spec, shape)
    assert amp is not None

    def h(a):
        return nehari_residual(Field(mp_grid, a * shape), spec)

    assert h(amp * (1.0 - 1e-6)) > 0.0 >= h(amp * (1.0 + 1e-6))
    assert all(h(a) < 0.0 for a in amp * np.logspace(0.01, 2.0, 8))
    # without a nonlinearity h(a) = a^2 S + a^4 Q never changes sign
    assert _nehari_amplitude(mp_grid, NonlinearitySpec(), shape) is None


def test_nehari_amplitude_uses_one_matvec(mp_grid, monkeypatch):
    calls = {"transform": 0, "matvec": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    eng = mp_grid.transform()
    monkeypatch.setattr(eng, "forward", counting(eng.forward, "transform"))
    monkeypatch.setattr(eng, "inverse", counting(eng.inverse, "transform"))
    kernel = operators._RieszKernel
    monkeypatch.setattr(kernel, "sym_potential", counting(kernel.sym_potential, "matvec"))

    amp = _nehari_amplitude(mp_grid, pure_power(1.0, 4.1), _unit_gaussian(mp_grid))
    assert amp is not None
    # 61 scan points and 60 bisection steps share the shape's transform and
    # its single kernel matvec
    assert calls["transform"] <= 2
    assert calls["matvec"] == 1
