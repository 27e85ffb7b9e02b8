"""The Newton matrices: the N = 3 Laplacian from its symbol, the in-place
Jacobian assembly and the matrix-free product that replaces it above the
dense cutoff, their memory footprint, the operator calls of a Newton step,
and the exits of a step that fails.

The oracles are the direct constructions: the Laplacian as a DST of the
identity, and the Hartree Jacobian diag(I_alpha * u^2) + 2 u K u from
separate temporaries.
"""

import json
import tracemalloc
import types

import numpy as np
import pytest
from scipy.fft import dst

import fcs.solvers as solvers
from fcs import ProblemParams, energy, make_grid, operators
from fcs.cli import cli_main
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
    K = _riesz_kernel(u.grid).sym_matrix()
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


def _newton_system(kind, u):
    """A constructor of the Newton start of ``kind`` at u, and the oracle's
    f'(u) of its system: lam (p - 1) |u|^(p-2) for the eigen point at the
    Rayleigh quotient, the derivative of a pure power for a plain point."""
    if kind == "eigen":
        p = compute_exponents(u.grid.params).two_star_s_alpha
        lam = rayleigh_quotient(u)
        return (lambda: _Ray(u).eigen(lam)), lam * (p - 1.0) * np.abs(u.values) ** (p - 2.0)
    spec = pure_power(1.0, 3.6)
    return (lambda: _Ray(u, spec)), spec.fprime(u.values, u.grid.r)


def _jacobian_oracle(kind, u, fprime):
    """L + H(u) - diag(f'(u)), for an eigen point bordered by -B(u) and
    w A(u) for the multiplier and I(u) = 1."""
    g = u.grid
    oracle = dense_fractional_matrix(g) + _hartree_jacobian_oracle(u) - np.diag(fprime)
    if kind == "eigen":
        p = compute_exponents(g.params).two_star_s_alpha
        Au = apply_A(u).values
        Bu = np.abs(u.values) ** (p - 2.0) * u.values
        oracle = np.vstack([np.hstack([oracle, -Bu[:, None]]), np.concatenate([g.w * Au, [0.0]])[None, :]])
    return oracle


@pytest.mark.parametrize("kind", ["eigen", "gradient"])
def test_newton_jacobian_matches_oracle(kind, monkeypatch, manifold_point):
    u = manifold_point
    start, fprime = _newton_system(kind, u)
    seen = _captured_jacobians(monkeypatch, lambda: solvers._newton(start(), 0.0, 0.0, max_iter=1))
    assert len(seen) == 1
    oracle = _jacobian_oracle(kind, u, fprime)
    if kind == "eigen":
        assert seen[0][-1, -1] == 0.0
    assert seen[0].shape == oracle.shape
    assert _rel(seen[0], oracle) <= 1e-13


@pytest.mark.parametrize("kind", ["eigen", "gradient"])
def test_matrix_free_jacobian_matches_oracle(kind, manifold_point):
    # the product GMRES runs on above the dense cutoff is the dense
    # Jacobian's conjugated by the transform, preconditioned by
    # (-Delta)^(-s) on the field rows: c -> forward(J inverse(c)) / k^(2s),
    # the multiplier entry untransformed; on smooth and rough coefficient
    # vectors alike.  The comparison multiplies the field rows back by
    # k^(2s): the oracle's dense product rounds at eps ||J x|| in every
    # mode, which dividing by k^(2s) would magnify on the lowest ones
    u = manifold_point
    g = u.grid
    eng, M = g.transform(), g.M
    start, fprime = _newton_system(kind, u)
    oracle = _jacobian_oracle(kind, u, fprime)
    matvec = solvers._jacobian_matvec(start())
    rng = np.random.default_rng(7)
    for c in (rng.standard_normal(oracle.shape[0]), np.append(eng.forward(u.values), 1.0)[: oracle.shape[0]]):
        y = oracle @ np.concatenate((eng.inverse(c[:M]), c[M:]))
        got = matvec(c)
        assert _rel(np.concatenate((g.k2s * got[:M], got[M:])), np.concatenate((eng.forward(y[:M]), y[M:]))) <= 1e-13


# ---------------------------------------------------------------------------
# operator calls: a point accepted by the line search is carried over
# ---------------------------------------------------------------------------

def test_eigen_point_matches_the_direct_evaluation(manifold_point):
    # carried values are bitwise those of A(u) - lam B(u), its norm and I(u)
    u = manifold_point
    p = compute_exponents(u.grid.params).two_star_s_alpha
    lam = rayleigh_quotient(u)
    pt = _Ray(u).eigen(lam)
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


@pytest.mark.parametrize("kind", ["eigen", "gradient"])
def test_newton_step_evaluates_each_point_once(kind, monkeypatch, manifold_point):
    u = manifold_point
    start, _ = _newton_system(kind, u)
    # every evaluated point (the start and each line-search trial) takes one
    # dual norm and one matvec; the top of a step re-evaluates nothing, and
    # the Jacobian's Hartree potential is the point's own.  The one transform
    # more per call is the rounding floor's dual norm of the start's A(u)
    calls = _newton_calls(monkeypatch, u, lambda: solvers._newton(start(), 0.0, 0.0, max_iter=2))
    assert calls["points"] >= 3
    assert calls["matvec"] == calls["points"]
    assert calls["transform"] == 3 * calls["points"] + 1


def _counted_gmres(monkeypatch):
    """(iterations, info) of every ``solvers._gmres`` call."""
    gmres, calls = solvers._gmres, []

    def counted(*args):
        out = gmres(*args)
        calls.append(out[1:])
        return out

    monkeypatch.setattr(solvers, "_gmres", counted)
    return calls


def test_krylov_step_transforms_once_each_way_per_iteration(monkeypatch):
    # the eigen1 Newton step at M = 1024 from its hand-over point: each GMRES
    # product is one inverse and one forward transform; the set-up is the
    # forward transforms of the right-hand side and of the border B(u) and
    # the inverse of the iterate.  Preconditioned by (-Delta)^(-s) the step
    # takes 13 iterations (22 by the metric 1/(1 + k^(2s)))
    p = ProblemParams(3, 0.75, 2.0)
    g = make_grid(p, 20.0, 1024)
    start = _Ray(g.field(np.exp(-g.r ** 2))).on_manifold()
    pt = solvers._ascend_J(start, 100, solvers._EIGEN_HANDOVER_REL)[0].eigen()
    rhs = -np.append(pt.resid, pt.I - 1.0)  # reads A(u), the border row, too
    calls = {"forward": 0, "inverse": 0, "products": 0}

    def counting(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    eng, matvec = g.transform(), solvers._jacobian_matvec
    monkeypatch.setattr(eng, "forward", counting(eng.forward, "forward"))
    monkeypatch.setattr(eng, "inverse", counting(eng.inverse, "inverse"))
    monkeypatch.setattr(solvers, "_jacobian_matvec", lambda q: counting(matvec(q), "products"))
    gmres = _counted_gmres(monkeypatch)
    delta, its, info = solvers._krylov_step(pt, rhs)
    assert gmres == [(its, info)]
    assert info == 0 and its <= 16
    assert calls["products"] == its
    assert (calls["forward"], calls["inverse"]) == (its + 2, its + 1)
    assert np.all(np.isfinite(delta)) and delta.shape == rhs.shape


def test_krylov_work_per_newton_step_is_capped(monkeypatch):
    # GMRES runs one cycle of at most _KRYLOV_MAXITER iterations.  With the
    # cap lowered to 5 every M = 1024 Newton step is cut short, goes to the
    # line search unconverged, and the solve still returns
    monkeypatch.setattr(solvers, "_KRYLOV_MAXITER", 5)
    gmres = _counted_gmres(monkeypatch)
    p = ProblemParams(3, 0.75, 2.0)
    try:
        rep = solvers.eigen1(p, make_grid(p, 20.0, 1024))
    except energy.DegenerateSeedError:  # a typed failure is a bounded end too
        rep = None
    assert gmres and all(its <= 5 for its, _ in gmres)
    assert any(info != 0 for _, info in gmres)
    assert rep is None or rep.extras["iterations_newton"] <= 40  # the polish's own cap
    if rep is not None:  # the report counts the capped steps
        assert max(rep.extras["krylov_iterations"]) <= 5 and rep.extras["krylov_capped"] >= 1


@pytest.mark.parametrize("M", [operators._DENSE_MAX_M, operators._DENSE_MAX_M + 1])
def test_a_report_counts_its_krylov_work(M):
    # a Newton that ran GMRES reports the iterations of each step and how
    # many steps ended at the cap; a factorizing Newton adds no key
    p = ProblemParams(3, 0.75, 2.0)
    rep = solvers.eigen1(p, make_grid(p, 20.0, M))
    assert rep.converged
    if M <= operators._DENSE_MAX_M:
        assert "krylov_iterations" not in rep.extras and "krylov_capped" not in rep.extras
    else:
        its = rep.extras["krylov_iterations"]
        assert 1 <= len(its) <= rep.extras["iterations_newton"]  # the last iteration may only check
        assert all(type(i) is int and 1 <= i <= 16 for i in its)
        assert rep.extras["krylov_capped"] == 0


def test_a_wide_shallow_well_takes_no_capped_krylov_step():
    # the beta = 2.7 subscaled minimizer at R = 160: its well is ~3e-3 deep
    # and spread over the ball.  By the metric 1/(1 + k^(2s)) its Newton
    # steps took 74-124 GMRES iterations; by (-Delta)^(-s), with no length
    # scale, at most 12
    p = ProblemParams(3, 0.75, 2.0)
    rep = solvers.minimize_subscaled(p, make_grid(p, 160.0, 4096), pure_power(1.0, 2.7))
    assert rep.converged and rep.energy < 0.0
    assert rep.extras["krylov_capped"] == 0
    assert max(rep.extras["krylov_iterations"]) <= 20


def test_krylov_iterations_stay_flat_far_above_the_dense_cutoff():
    # eigen1 at R = 160, M = 16384 (test_eigen1_far_above_the_dense_cutoff
    # holds its multiplier): 17 iterations per step, 68 by the old metric
    p = ProblemParams(3, 0.75, 2.0)
    rep = solvers.eigen1(p, make_grid(p, 160.0, 16384))
    assert rep.converged
    assert rep.extras["krylov_capped"] == 0
    assert max(rep.extras["krylov_iterations"]) <= 25


# ---------------------------------------------------------------------------
# GMRES itself, against dense linear algebra
# ---------------------------------------------------------------------------

def _system(n, spread, seed):
    """I + spread randn / sqrt(n): nonsymmetric, its spectrum in a disc of
    radius ~spread about 1."""
    rng = np.random.default_rng(seed)
    return np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal(n)


def _counting(A):
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    return matvec, calls


def test_gmres_matches_a_dense_solve():
    A, b = _system(200, 0.1, 3)
    matvec, calls = _counting(A)
    x, its, info = solvers._gmres(matvec, b, 1e-13, 240)
    assert info == 0 and its <= 60
    assert len(calls) == its  # no product past the last column
    assert _rel(x, np.linalg.solve(A, b)) <= 1e-10


def test_gmres_one_cycle_solves_past_sixty_columns():
    # a spectrum of radius ~0.8 about 1: one cycle converges past the 60
    # columns a restarted GMRES(60) would keep (it needs 84 iterations over
    # two cycles; one cycle needs 77), without a residual product
    A, b = _system(300, 0.8, 4)
    matvec, calls = _counting(A)
    x, its, info = solvers._gmres(matvec, b, 1e-10, 240)
    assert info == 0 and 60 < its <= 240
    assert len(calls) == its
    assert _rel(x, np.linalg.solve(A, b)) <= 1e-8


def test_gmres_stops_at_its_cap():
    # a cap of 5 on a system whose spectrum surrounds the origin
    A, b = _system(200, 2.0, 4)
    matvec, calls = _counting(A)
    x, its, info = solvers._gmres(matvec, b, 1e-10, 5)
    assert (its, info) == (5, 1)
    assert len(calls) == 5
    assert np.all(np.isfinite(x))


def test_gmres_zero_rhs_costs_no_product():
    def matvec(v):
        raise AssertionError("no product for b = 0")

    x, its, info = solvers._gmres(matvec, np.zeros(7), 1e-10, 240)
    assert (its, info) == (0, 0) and not x.any()


def test_gmres_identity_converges_in_one_iteration():
    # the Krylov basis breaks down at once: no division by the zero norm
    b = np.random.default_rng(5).standard_normal(50)
    with np.errstate(all="raise"):
        x, its, info = solvers._gmres(lambda v: v.copy(), b, 1e-10, 240)
    assert (its, info) == (1, 0)
    assert _rel(x, b) <= 1e-15


def test_gmres_non_finite_product_gives_a_non_finite_iterate():
    # _newton ends the call at a non-finite step
    b = np.ones(20)
    x, its, info = solvers._gmres(lambda v: np.full(v.shape, np.nan), b, 1e-10, 240)
    assert its == 1 and info != 0
    assert not np.all(np.isfinite(x))


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
    lam = rayleigh_quotient(u)  # builds the Riesz kernel
    dense_fractional_matrix(g)

    def newton():
        return solvers._newton(_Ray(u).eigen(lam), 0.0, 0.0, max_iter=3)

    assert _peak_units(newton, g.M) <= 1.5


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize(
    "fault, M",
    [
        pytest.param("singular-lu", 128, id="singular-lu"),
        pytest.param("inf-lu-step", 128, id="inf-lu-step"),  # every trial is non-finite
        pytest.param("nan-gmres-step", 1024, id="nan-gmres-step"),
    ],
)
def test_a_failed_newton_step_ends_the_polish(fault, M, tmp_path, capsys, monkeypatch):
    # the q = 4.1 mountain pass hands Newton a point short of tol; a step that
    # cannot be taken ends the call at its first iteration, and the run
    # reports that point unconverged: exit 2, no traceback
    if fault == "singular-lu":
        monkeypatch.setattr(np.linalg, "solve", _singular)
    elif fault == "inf-lu-step":
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.inf))
    else:
        monkeypatch.setattr(solvers, "_gmres", lambda matvec, b, *args: (np.full(b.shape, np.nan), 1, -1))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        f"[params]\nN = 3\ns = 0.8\nalpha = 2.0\n[grid]\nR = 20.0\nM = {M}\n"
        "[nonlinearity]\nterm = power coef=1.0 q=4.1\n[solver]\nmethod = mountain-pass\n[output]\njson = out.json\n"
    )
    assert cli_main(["solve", "--config", "run.cfg"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out.json").read_text())["report"]
    assert (report["converged"], report["iterations_newton"]) == (False, 1)
