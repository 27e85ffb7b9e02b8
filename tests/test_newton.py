"""The dense Newton matrices: the N = 3 Laplacian from its symbol, the
in-place Jacobian assembly, their memory footprint, and the operator calls
of a Newton step.

The oracles are the direct constructions: the Laplacian as a DST of the
identity, and the Hartree Jacobian diag(I_alpha * u^2) + 2 u K u from
separate temporaries.
"""

import tracemalloc
import types

import numpy as np
import pytest
from scipy.fft import dst

import fcs.solvers as solvers
from fcs import ProblemParams, energy, make_grid, operators
from fcs.energy import I_functional, _Ray, pure_power
from fcs.operators import (
    _riesz_kernel,
    apply_A,
    dense_fractional_matrix,
    dual_norm,
    hartree_potential_sym,
)
from fcs.params import compute_exponents
from fcs.scaling import project_to_M

from conftest import rayleigh_quotient


def _dense_lap_oracle(grid):
    """N = 3: diag(1/r) S^T diag(k^(2s)) S diag(r), S the orthonormal DST-I."""
    S = dst(np.eye(grid.M), type=1, norm="ortho", axis=0)
    core = S.T @ (S * (grid.k ** (2.0 * grid.params.s))[:, None])
    return (1.0 / grid.r)[:, None] * core * grid.r[None, :]


def _hartree_jacobian_oracle(u):
    """Jacobian of u -> (I_alpha * u^2) u at u."""
    K = _riesz_kernel(u.grid, u.grid.params.alpha).sym_matrix()
    return np.diag(hartree_potential_sym(u)) + 2.0 * (u.values[:, None] * K * u.values[None, :])


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("M", [64, 1024])
@pytest.mark.parametrize("s", [0.3, 0.75])
def test_laplacian_from_symbol_matches_dst_of_identity(M, s):
    g = make_grid(ProblemParams(3, s, 2.0), 20.0, M)
    assert _rel(dense_fractional_matrix(g), _dense_lap_oracle(g)) <= 1e-12


def _captured_jacobians(monkeypatch, run):
    """Matrices handed to ``np.linalg.solve`` inside ``fcs.solvers`` by ``run()``."""
    seen = []
    linalg = types.SimpleNamespace(
        solve=lambda a, b: seen.append(a.copy()) or np.linalg.solve(a, b),
        LinAlgError=np.linalg.LinAlgError,
    )
    view = types.ModuleType("numpy")
    view.__dict__.update(np.__dict__)
    view.linalg = linalg
    monkeypatch.setattr(solvers, "np", view)
    run()
    return seen


@pytest.fixture(params=[(3, 0.75, 2.0), (4, 0.75, 2.5)], ids=["N3", "N4"])
def manifold_point(request):
    p = ProblemParams(*request.param)
    g = make_grid(p, 20.0, 96)
    return project_to_M(g.field(np.exp(-g.r ** 2)))


def test_bordered_eigen_jacobian_matches_oracle(monkeypatch, manifold_point):
    u = manifold_point
    g = u.grid
    p = compute_exponents(g.params).two_star_s_alpha
    lam = rayleigh_quotient(u)
    seen = _captured_jacobians(monkeypatch, lambda: solvers._newton_eigen(solvers._eigen_point(u, p, lam), 0.0, max_iter=1))
    assert len(seen) == 1
    Au = apply_A(u).values
    Bu = np.abs(u.values) ** (p - 2.0) * u.values
    Jh = dense_fractional_matrix(g) + _hartree_jacobian_oracle(u) - lam * (p - 1.0) * np.diag(
        np.abs(u.values) ** (p - 2.0)
    )
    oracle = np.vstack([np.hstack([Jh, -Bu[:, None]]), np.concatenate([g.w * Au, [0.0]])[None, :]])
    assert seen[0].shape == oracle.shape
    assert _rel(seen[0], oracle) <= 1e-13
    assert seen[0][-1, -1] == 0.0


def test_gradient_jacobian_matches_oracle(monkeypatch, manifold_point):
    u = manifold_point
    g = u.grid
    spec = pure_power(1.0, 3.6)
    seen = _captured_jacobians(monkeypatch, lambda: solvers._newton_gradient(_Ray(u, spec), 0.0, max_iter=1))
    assert len(seen) == 1
    oracle = dense_fractional_matrix(g) + _hartree_jacobian_oracle(u) - np.diag(spec.fprime(u.values, g.r))
    assert _rel(seen[0], oracle) <= 1e-13


# ---------------------------------------------------------------------------
# operator calls: a point accepted by the line search is carried over
# ---------------------------------------------------------------------------

def test_eigen_point_matches_the_direct_evaluation(manifold_point):
    # carried values are bitwise those of A(u) - lam B(u), its norm and I(u)
    u = manifold_point
    p = compute_exponents(u.grid.params).two_star_s_alpha
    lam = rayleigh_quotient(u)
    pt = solvers._eigen_point(u, p, lam)
    resid = apply_A(u).values - lam * (np.abs(u.values) ** (p - 2.0) * u.values)
    assert np.array_equal(pt.resid, resid)
    assert pt.res == dual_norm(u.grid.field(resid))
    assert np.array_equal(pt.pot, hartree_potential_sym(u))
    assert pt.I == I_functional(u)


def _newton_calls(monkeypatch, u, run):
    """Transforms, kernel matvecs and evaluated points (one dual norm each)
    of ``run()``; the kernel, the engine and the dense Laplacian exist first."""
    rayleigh_quotient(u)
    dense_fractional_matrix(u.grid)
    calls = {"transform": 0, "matvec": 0, "points": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    eng = u.grid.transform()
    monkeypatch.setattr(eng, "forward", counting(eng.forward, "transform"))
    monkeypatch.setattr(eng, "inverse", counting(eng.inverse, "transform"))
    kernel = operators._RieszKernel
    monkeypatch.setattr(kernel, "sym_potential", counting(kernel.sym_potential, "matvec"))
    monkeypatch.setattr(energy, "dual_norm", counting(energy.dual_norm, "points"))
    _, it = run()
    assert it == 2
    return calls


def test_newton_eigen_step_evaluates_each_point_once(monkeypatch, manifold_point):
    u = manifold_point
    p = compute_exponents(u.grid.params).two_star_s_alpha
    lam = rayleigh_quotient(u)
    # every evaluated point (the start and each line-search trial) takes one
    # dual norm; the top of a step re-evaluates nothing
    calls = _newton_calls(monkeypatch, u, lambda: solvers._newton_eigen(solvers._eigen_point(u, p, lam), 0.0, max_iter=2))
    assert calls["points"] >= 3
    assert calls["matvec"] == calls["points"]
    assert calls["transform"] == 3 * calls["points"]


def test_newton_gradient_step_evaluates_each_point_once(monkeypatch, manifold_point):
    u = manifold_point
    spec = pure_power(1.0, 3.6)
    # the Jacobian's Hartree potential is the point's own: one matvec per
    # evaluated point (the start and each line-search trial), none per step
    calls = _newton_calls(monkeypatch, u, lambda: solvers._newton_gradient(_Ray(u, spec), 0.0, max_iter=2))
    assert calls["points"] >= 3
    assert calls["matvec"] == calls["points"]
    assert calls["transform"] == 3 * calls["points"]


# ---------------------------------------------------------------------------
# memory, in units of one M x M matrix of doubles
# ---------------------------------------------------------------------------

def _peak_units(fn, M):
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * M * M)


def _grid512():
    g = make_grid(ProblemParams(3, 0.75, 2.0), 20.0, 512)
    g.transform()
    return g


def test_laplacian_build_peak_memory():
    g = _grid512()
    assert _peak_units(lambda: dense_fractional_matrix(g), g.M) <= 3.0


def test_newton_eigen_peak_memory():
    g = _grid512()
    u = project_to_M(g.field(np.exp(-g.r ** 2)))
    p = compute_exponents(g.params).two_star_s_alpha
    lam = rayleigh_quotient(u)  # builds the Riesz kernel
    dense_fractional_matrix(g)

    def newton():
        return solvers._newton_eigen(solvers._eigen_point(u, p, lam), 0.0, max_iter=3)

    assert _peak_units(newton, g.M) <= 1.5
