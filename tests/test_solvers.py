import math

import numpy as np
import pytest

from fcs import ProblemParams, make_grid
from fcs.diagnostics import nehari_residual, pohozaev_residual
from fcs.energy import (
    DampedPowerTerm,
    I_functional,
    J_functional,
    NonlinearitySpec,
    Phi,
    Phi_lambda,
    PowerTerm,
    _Ray,
    critical_family,
    eigen_spec,
    grad_Phi,
    pure_power,
)
from fcs.operators import _DENSE_MAX_M, apply_A, apply_B, dual_norm
from fcs.params import compute_exponents
from fcs.scaling import scale
from fcs.solvers import (
    DegenerateSeedError,
    NoPassError,
    RegimeMismatchError,
    SolverOptions,
    eigen1,
    eigen_deflated,
    find_negative_energy_point,
    minimize_subscaled,
    mountain_pass,
    sweep,
)
from fcs.grid import Field

from conftest import rayleigh_quotient


@pytest.fixture(scope="module")
def grid(pstar):
    return make_grid(pstar, 20.0, 160)


@pytest.fixture(scope="module")
def eigen_report(pstar, grid):
    return eigen1(pstar, grid)


def _eigen_residual_dual(rep):
    u = rep.solution
    lam = rep.multiplier
    rho = Field(u.grid, apply_A(u).values - lam * apply_B(u).values)
    return dual_norm(rho)


# ---------------------------------------------------------------------------
# eigen solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "N, s, alpha, M, lam",
    [
        (3, 0.75, 2.0, 1024, 2.5213932450118346),
        (4, 0.75, 2.5, 256, 2.8189259065993646),
        (2, 0.75, 1.5, 256, 3.0785379520702905),
    ],
)
def test_eigen1_pinned_multiplier(N, s, alpha, M, lam):
    # pinned at R = 20; where the ascent hands over must not move them
    p = ProblemParams(N, s, alpha)
    rep = eigen1(p, make_grid(p, 20.0, M))
    assert rep.converged
    assert abs(rep.multiplier - lam) <= 1e-12 * lam


@pytest.fixture(scope="module")
def grid256(pstar):
    return make_grid(pstar, 20.0, 256)


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_eigen1_multiplier_does_not_depend_on_the_seed_width(pstar, grid256, width):
    # the ascent only has to reach Newton's basin; where it stops must not
    # move the eigenvalue
    rep = eigen1(pstar, grid256, SolverOptions(seed_width=width))
    assert rep.converged
    assert abs(rep.multiplier - 2.521393247982033) <= 1e-12 * 2.521393247982033


def test_eigen1_ascent_projects_a_bounded_number_of_times(pstar, grid256, monkeypatch):
    # the bound is zero, for every solver: the eigen path reaches {I = 1}
    # along amplitude rays, the minimizer's seed bank scans amplitude rays
    # and the mountain pass moves along rays to the Nehari set; none of them
    # dilates, so all four converge with the dilation map refusing to exist
    import sys

    from fcs import diagnostics, scaling, solvers

    def refuse(*args, **kwargs):
        raise AssertionError("no solver may dilate")

    # every dilation builds a _Fiber; each module that binds the name (the
    # dilation API in scaling, linking_probe in diagnostics, the CLI) gets
    # the refusing one, and no solver holds its own reference to the API
    assert not {"_Fiber", "project_to_M", "scale"} & set(vars(solvers))
    binders = [m for name, m in sys.modules.items() if name.split(".")[0] == "fcs" and hasattr(m, "_Fiber")]
    assert scaling in binders and diagnostics in binders
    for module in binders:
        monkeypatch.setattr(module, "_Fiber", refuse)
    exps = compute_exponents(pstar)
    damped = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
    assert eigen1(pstar, grid256).converged
    assert [rep.converged for rep in eigen_deflated(pstar, grid256, 3)] == [True, True, True]
    rep = minimize_subscaled(pstar, make_grid(pstar, 20.0, 128), damped)
    assert rep.converged and rep.energy < 0.0
    assert mountain_pass(*_mp_input("critical")).converged


def test_ascent_transforms_each_gradient_once(grid256, monkeypatch):
    # each step transforms its gradient -B(u) forward once, the potential
    # part of the normal A(u) forward once, and its direction back once: the
    # tangent direction, its slope and the tangent gradient's dual norm share
    # them.  A line-search trial carries its coefficients and transforms
    # nothing
    from fcs import solvers

    start = _Ray(grid256.field(np.exp(-grid256.r ** 2))).on_manifold()
    calls = {"forward": 0, "inverse": 0, "trials": 0}
    eng = grid256.transform()

    def counted(fn, key):
        def wrapped(v):
            calls[key] += 1
            return fn(v)

        return wrapped

    class Trial(_Ray):
        def __init__(self, *args):
            calls["trials"] += 1
            super().__init__(*args)

    monkeypatch.setattr(eng, "forward", counted(eng.forward, "forward"))
    monkeypatch.setattr(eng, "inverse", counted(eng.inverse, "inverse"))
    monkeypatch.setattr(solvers, "_Ray", Trial)
    _, _, it, stop = solvers._ascend_J(start, 3, solvers._HANDOVER_REL)
    assert (it, stop) == (3, "max_iter")
    assert calls["trials"] >= it
    assert (calls["forward"], calls["inverse"]) == (2 * it, it)


def test_every_solver_runs_the_one_first_order_phase(pstar, monkeypatch):
    from fcs import solvers

    engine = solvers._first_order
    seen = []
    monkeypatch.setattr(solvers, "_first_order", lambda *a, **k: seen.append(1) or engine(*a, **k))
    g = make_grid(pstar, 20.0, 64)
    exps = compute_exponents(pstar)
    damped = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
    mp_p, mp_g, mp_spec, e = _mp_input(4.1)
    runs = {
        "eigen1": lambda: eigen1(pstar, g),
        "eigen_deflated": lambda: eigen_deflated(pstar, g, 2),
        "minimize_subscaled": lambda: minimize_subscaled(pstar, g, damped),
        "mountain_pass": lambda: mountain_pass(mp_p, mp_g, mp_spec, e),
    }
    for name, run in runs.items():
        seen.clear()
        run()
        assert seen, f"{name} did not run _first_order"


def _count_solves(monkeypatch) -> list:
    solve = np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


@pytest.mark.parametrize(
    "N, s, alpha, width",
    [
        (3, 0.75, 2.0, 0.5),
        (3, 0.75, 2.0, 1.0),
        (3, 0.75, 2.0, 2.0),
        (4, 0.75, 2.5, 1.0),
        (2, 0.75, 1.5, 1.0),
    ],
)
def test_eigen1_factorizes_one_newton_jacobian(N, s, alpha, width, monkeypatch):
    # the ascent hands over at _EIGEN_HANDOVER_REL = 1e-7, close enough to
    # the ground state that Newton's first step lands at rounding and its
    # second only checks: one dense LU factorization per eigenpair
    calls = _count_solves(monkeypatch)
    p = ProblemParams(N, s, alpha)
    rep = eigen1(p, make_grid(p, 20.0, 256), SolverOptions(seed_width=width))
    assert rep.converged
    assert len(calls) == 1


@pytest.mark.parametrize(
    "M, solves", [(_DENSE_MAX_M, 1), (_DENSE_MAX_M + 1, 0), (1024, 0)]
)
def test_eigen1_factorizes_only_up_to_the_dense_cutoff(M, solves, monkeypatch):
    # above the cutoff Newton runs GMRES on the matrix-free Jacobian and the
    # kernel product is an FFT: no factorization, and no M x M array, cached
    # (the Riesz kernel, the dense Laplacian) or transient (the Jacobian)
    # (test_eigen1_pinned_multiplier holds the M=1024 multiplier)
    import tracemalloc

    calls = _count_solves(monkeypatch)
    p = ProblemParams(3, 0.75, 2.0)
    g = make_grid(p, 20.0, M)
    tracemalloc.start()
    try:
        rep = eigen1(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert len(calls) == solves
    assert ("dense_lap" in g._caches) == bool(solves)
    cached = [a for c in g._caches.values() for a in [c, *getattr(c, "__dict__", {}).values()]]
    assert any(isinstance(a, np.ndarray) and a.size == M * M for a in cached) == bool(solves)
    assert (peak >= 8 * M * M) == bool(solves)  # peak / 8 M^2: 3.1 at M = 768, 0.14 at 769


def test_eigen1_far_above_the_dense_cutoff():
    # an N = 3 grid whose dense kernel alone would take 2 GB; the multiplier
    # is within discretization error of the M = 4096 one
    p = ProblemParams(3, 0.75, 2.0)
    rep = eigen1(p, make_grid(p, 160.0, 16384))
    assert rep.converged
    assert abs(rep.multiplier - 2.556274796783449) <= 1e-9 * 2.556274796783449


def test_eigen1_n4_ascent_takes_few_steps(monkeypatch):
    # the eigen1-n4 golden configuration.  To a 1e-3 hand-over the L-BFGS
    # ascent takes 20 steps, where a plain preconditioned-gradient ascent
    # takes twice as many; eigen1 runs on to 1e-7 (32 steps) and then
    # factorizes one Newton Jacobian
    from fcs import solvers

    p = ProblemParams(4, 0.75, 2.5)
    g = make_grid(p, 20.0, 256)
    start = _Ray(g.field(np.exp(-g.r ** 2))).on_manifold()  # eigen1's start
    _, _, it, stop = solvers._ascend_J(start, SolverOptions().max_iter, 1e-3)
    assert stop == "handover"
    assert it <= 25
    calls = _count_solves(monkeypatch)
    rep = eigen1(p, g)
    assert rep.converged
    assert rep.extras["iterations_ascent"] <= 36
    assert len(calls) == 1


@pytest.mark.parametrize("N, s, alpha, width", [(3, 0.75, 2.0, 1.0), (4, 0.75, 2.5, 2.0)])
def test_eigen1_handover_ignores_tol(N, s, alpha, width, monkeypatch):
    # eigen1's ascent hands over at _EIGEN_HANDOVER_REL whatever tol is, so
    # a loose and a tight tolerance both end in one Newton factorization at
    # the same multiplier
    calls = _count_solves(monkeypatch)
    p = ProblemParams(N, s, alpha)
    g = make_grid(p, 20.0, 256)
    lams = []
    for tol in (1e-3, 1e-9):
        calls.clear()
        rep = eigen1(p, g, SolverOptions(tol=tol, seed_width=width))
        assert rep.converged
        assert len(calls) == 1
        lams.append(rep.multiplier)
    assert abs(lams[0] - lams[1]) <= 1e-14 * lams[1]


@pytest.mark.parametrize(
    "N, s, alpha, M, seed, width",
    [
        (4, 0.75, 2.5, 256, "gaussian", 2.0),
        (3, 0.75, 2.0, 512, "gaussian", 3.0),
        (3, 0.75, 2.0, 512, "bump", 1.0),
    ],
    ids=["eigen-n4-width2", "eigen-n3-width3", "eigen-n3-bump"],
)
def test_eigen1_capped_run_keeps_a_newton_reserve(N, s, alpha, M, seed, width):
    # the benchmark's eigen probe inputs under their 20-step cap: the first
    # ascent stops _NEWTON_RESERVE = 3 steps short of it, and the Newton
    # polish in those steps still converges
    p = ProblemParams(N, s, alpha)
    rep = eigen1(p, make_grid(p, 20.0, M), SolverOptions(max_iter=20, seed=seed, seed_width=width))
    assert rep.converged
    assert rep.iterations <= 20
    assert (rep.extras["iterations_ascent"], rep.extras["ascent_stop"]) == (17, "max_iter")
    assert 1 <= rep.extras["iterations_newton"] <= 3


def test_first_order_first_step_is_the_preconditioned_gradient(pstar):
    # with an empty memory the first trial is u - eta P g, with
    # eta = min(2, 1/||g||_*), bit for bit
    from fcs import solvers

    g = make_grid(pstar, 20.0, 128)
    spec = NonlinearitySpec.of(DampedPowerTerm(4.5, compute_exponents(pstar).two_star_s_alpha, 0.3))
    pt = _Ray(g.field(0.3 * np.exp(-g.r ** 2)), spec)
    trials = []

    def retract(v, c):
        trials.append((v, c))
        return _Ray(g.field(v), spec)

    eng, k_den = g.transform(), 1.0 + g.k2s
    solvers._first_order(pt, lambda q: q.action, lambda q: eng.forward(q.resid), retract, 1, 1e-2)
    b = eng.forward(pt.resid)
    eta = min(2.0, 1.0 / math.sqrt(float(np.sum(b * b / k_den))))
    # the trial's node values, and the coefficients it carries untransformed
    np.testing.assert_array_equal(trials[0][0], pt.u - eta * eng.inverse(b / k_den))
    np.testing.assert_array_equal(trials[0][1], pt._b - eta * (b / k_den))


def test_first_order_directions_are_tangent_to_the_manifold(grid256, monkeypatch):
    # on {I = 1} every direction d, the two-loop ones included, satisfies
    # <A(u), d> = 0 to rounding: it is projected back onto the tangent space
    from fcs import solvers

    engine, two_loop = solvers._first_order, solvers._two_loop
    dirs, loops = [], []

    def spy(pt, value, grad, retract, *args, **kwargs):
        here = []

        def grad_at(q):
            here[:] = [q]
            return grad(q)

        def first_trial(v, b):
            if here:  # the first trial of a step is u - eta d, eta > 0
                q = here.pop()
                dirs.append((q, q.u - v))
            return retract(v, b)

        return engine(pt, value, grad_at, first_trial, *args, **kwargs)

    monkeypatch.setattr(solvers, "_first_order", spy)
    monkeypatch.setattr(solvers, "_two_loop", lambda *a: loops.append(1) or two_loop(*a))
    start = _Ray(grid256.field(np.exp(-grid256.r ** 2))).on_manifold()
    _, _, it, _ = solvers._ascend_J(start, 8, solvers._HANDOVER_REL)
    assert len(dirs) == it >= 6
    assert len(loops) >= it - 2
    w = grid256.w
    for q, d in dirs:
        scale = math.sqrt(float(np.sum(w * q.Au ** 2)) * float(np.sum(w * d ** 2)))
        assert abs(float(np.sum(w * q.Au * d))) <= 1e-12 * scale


@pytest.mark.parametrize("N, s, alpha", [(3, 0.75, 2.0), (4, 0.75, 2.5)], ids=["N3-DST", "N4-Bessel"])
def test_first_order_trial_coefficients_are_the_transform_of_its_values(N, s, alpha, monkeypatch):
    # a trial carries u_b - eta r untransformed next to its node values
    # u - eta inverse(r): the iteration relies on forward(inverse(r)) = r,
    # which an engine that is not an orthogonal pair would break
    from fcs import solvers

    p = ProblemParams(N, s, alpha)
    g = make_grid(p, 20.0, 128)
    eng = g.transform()
    engine = solvers._first_order
    carried = []

    def spy(pt, value, grad, retract, *args, **kwargs):
        def recorded(v, b):
            carried.append((v, b))
            return retract(v, b)

        return engine(pt, value, grad, recorded, *args, **kwargs)

    monkeypatch.setattr(solvers, "_first_order", spy)
    start = _Ray(g.field(np.exp(-g.r ** 2))).on_manifold()
    _, _, it, _ = solvers._ascend_J(start, 8, solvers._HANDOVER_REL)
    assert it >= 6 and len(carried) >= it
    for v, b in carried:
        assert float(np.max(np.abs(b - eng.forward(v)))) <= 1e-13 * float(np.max(np.abs(b)))


def test_first_order_drops_a_two_loop_direction_that_does_not_descend(grid256, monkeypatch):
    # a two-loop direction of non-positive slope gives way to the
    # preconditioned gradient: the search runs as with an empty memory
    from fcs import solvers

    start = _Ray(grid256.field(np.exp(-grid256.r ** 2))).on_manifold()
    uphill = []
    monkeypatch.setattr(solvers, "_two_loop", lambda b, pairs, eng: uphill.append(1) or -b)
    got = solvers._ascend_J(start, 8, solvers._HANDOVER_REL)
    monkeypatch.setattr(solvers, "_LBFGS_MEMORY", 0)
    want = solvers._ascend_J(start, 8, solvers._HANDOVER_REL)
    assert uphill
    assert got[1:] == want[1:]
    np.testing.assert_array_equal(got[0].u, want[0].u)


def test_eigen1_reports_why_the_ascent_stopped(pstar, grid256):
    # at the reference configuration the tangent gradient drops to the
    # hand-over threshold, and Newton takes over from there
    rep = eigen1(pstar, grid256)
    assert rep.extras["ascent_stop"] == "handover"
    assert rep.to_dict()["ascent_stop"] == "handover"


@pytest.mark.parametrize(
    "N, s, alpha, M, seed, width, lam",
    [
        (3, 0.75, 2.0, 256, "gaussian", 3.0, 2.521393247982033),
        (3, 0.75, 2.0, 256, "gaussian", 5.0, 2.521393247982033),
        (3, 0.75, 2.0, 256, "bump", 1.0, 2.521393247982033),
        (3, 0.75, 2.0, 512, "gaussian", 3.0, 2.5213932451878898),
        (3, 0.75, 2.0, 512, "bump", 1.0, 2.5213932451878898),
        (4, 0.75, 2.5, 256, "gaussian", 2.0, 2.8189259065993646),
        (4, 0.75, 2.5, 256, "gaussian", 5.0, 2.8189259065993646),
        (2, 0.75, 1.5, 256, "gaussian", 3.0, 3.0785379520702905),
        # fuzz draws at the default width; lam is their width-0.7 value
        (6, 0.818, 3.343, 128, "gaussian", 1.0, 12.853435479235708),
        (5, 0.677, 2.714, 128, "gaussian", 1.0, 7.039606360132819),
    ],
)
def test_eigen1_hard_seeds_reach_the_ground_state(N, s, alpha, M, seed, width, lam):
    # seeds that used to stall, leave {I = 1}, land on an excited state or
    # need a dilation past the cutoff; lam is each ground state from an easy
    # seed, at R = 20
    p = ProblemParams(N, s, alpha)
    rep = eigen1(p, make_grid(p, 20.0, M), SolverOptions(seed=seed, seed_width=width))
    assert rep.converged
    assert rep.extras["iterations_ascent"] <= 100
    assert abs(rep.extras["I"] - 1.0) <= 1e-8
    assert abs(rep.multiplier - lam) <= 1e-10 * lam


def test_eigen1_from_a_converged_field_hands_over_at_once(pstar, grid256):
    # from a converged field the first tangent gradient and the residual are
    # rounding noise, so a drop relative to them never comes: the rounding
    # floor hands over at once, and Newton stops at its first check
    rep = eigen1(pstar, grid256)
    again = eigen1(pstar, grid256, SolverOptions(seed=rep.solution))
    assert again.converged
    assert (again.extras["iterations_ascent"], again.extras["ascent_stop"]) == (0, "handover")
    assert again.extras["iterations_newton"] <= 1
    assert abs(again.multiplier - rep.multiplier) <= 1e-14 * rep.multiplier


def test_eigen1_after_a_stalled_newton_ascends_on():
    # a narrow seed on a coarse grid: an ascent handing over at 1e-3 stopped
    # near a saddle of J on {I = 1}, where Newton stalled (lam = 2.3483,
    # I - 1 = 1.5e-3).  The ascent to _EIGEN_HANDOVER_REL = 1e-7 passes it,
    # and its one Newton polish reaches the ground state
    p = ProblemParams(5, 0.30078125, 3.875)
    g = make_grid(p, 20.0, 64)
    rep = eigen1(p, g, SolverOptions(seed_width=0.5625))
    assert rep.converged
    assert rep.extras["J_history_monotone"]
    assert abs(rep.multiplier - eigen1(p, g).multiplier) <= 1e-10 * rep.multiplier


@pytest.mark.parametrize("width", [1.0, 2.097])
def test_eigen1_converges_at_sigma_near_zero(width):
    # sigma = 4s + alpha - N = 1.35e-4: J is nearly flat along dilations, a
    # direction a plain gradient ascent crawls along; L-BFGS crosses it
    # (width 1: 80 ascent and 2 Newton steps, width 2.097: 94 and 2)
    p = ProblemParams(5, 0.4282336703906352, 3.2872006000442404)
    rep = eigen1(p, make_grid(p, 20.0, 128), SolverOptions(seed_width=width))
    assert rep.converged
    assert abs(rep.multiplier - 3.6074965831311) <= 1e-12 * 3.6074965831311
    assert rep.extras["iterations_newton"] <= 10


@pytest.mark.parametrize("params", [(3, 0.75, 2.0), (4, 0.75, 2.5)], ids=["N3", "N4"])
def test_eigen_point_reads_the_rayleigh_quotient(params):
    from fcs import solvers

    p = ProblemParams(*params)
    g = make_grid(p, 20.0, 96)
    pt = _Ray(g.field(np.exp(-g.r ** 2))).on_manifold()
    lam = rayleigh_quotient(pt.field)
    pt = pt.eigen()
    assert abs(pt.lam - lam) <= 1e-15 * lam


def test_eigen1_converges(pstar, eigen_report):
    rep = eigen_report
    assert rep.converged
    assert rep.multiplier > 0.0
    assert rep.residual_rel <= 1e-6
    assert abs(rep.extras["I"] - 1.0) <= 1e-8
    assert rep.extras["J_history_monotone"]


def test_eigen1_report_recomputes_from_field(eigen_report):
    # nothing may leak from solver internals: recompute every number
    rep = eigen_report
    u = rep.solution
    lam_again = apply_A(u).pair(u) / apply_B(u).pair(u)
    assert math.isclose(lam_again, rep.multiplier, rel_tol=1e-12)
    assert math.isclose(_eigen_residual_dual(rep), rep.residual_dual, rel_tol=1e-9, abs_tol=1e-18)
    assert math.isclose(
        I_functional(u) - rep.multiplier * J_functional(u),
        rep.energy,
        rel_tol=1e-9,
        abs_tol=1e-15,
    )


def test_eigen1_sign_normalization(eigen_report):
    assert eigen_report.solution.values[0] >= 0.0


def test_eigen1_nehari_vanishes(eigen_report):
    assert abs(eigen_report.nehari) <= 1e-10


def test_psi_bounded_below_by_first_eigenvalue(pstar, grid, eigen_report):
    # post-hoc check of the minimization property: every sampled manifold
    # point has reciprocal-J at or above the computed first eigenvalue
    from fcs.energy import Psi_tilde
    from fcs.scaling import project_to_M

    lam1 = eigen_report.multiplier
    rng = np.random.default_rng(77)
    r, R = grid.r, grid.R
    window = np.exp(-((r / (0.35 * R)) ** 8))
    profiles = [np.exp(-((r / w) ** 2)) for w in (0.3, 1.0, 3.0)]
    profiles += [(1.0 + (r / w) ** 2) ** (-1.75) * window for w in (1.0, 2.0)]
    for _ in range(5):
        b = rng.standard_normal(grid.M) * np.exp(-np.arange(grid.M) / 12.0)
        profiles.append(np.abs(grid.transform().inverse(b)) * window + 0.05 * window)
    for prof in profiles:
        u = project_to_M(grid.field(prof))
        assert Psi_tilde(u) >= lam1 * (1.0 - 1e-8)


def test_eigen1_multi_seed_agreement(pstar, grid, eigen_report):
    lam0 = eigen_report.multiplier
    for width in (0.5, 2.0):
        rep = eigen1(pstar, grid, SolverOptions(seed_width=width))
        assert abs(rep.multiplier - lam0) <= 1e-2 * lam0


def test_eigen1_rejects_zero_seed(pstar, grid):
    opts = SolverOptions(seed=grid.zero_field())
    with pytest.raises(DegenerateSeedError):
        eigen1(pstar, grid, opts)
    # on this coarse grid (h = 5.9) the width-0.23 Gaussian peaks at e^-654
    # and the width-0.31 one at 4e-157: neither is zero, but S and Q
    # underflow to 0 or S is subnormal, so no amplitude puts it on {I = 1}
    coarse = make_grid(pstar, 100.0, 16)
    for width in (0.23, 0.31):
        assert np.max(np.exp(-((coarse.r / width) ** 2))) > 0.0
        with pytest.raises(DegenerateSeedError, match="degenerate seed"):
            eigen1(pstar, coarse, SolverOptions(seed_width=width))


def test_deflation_skips_a_bank_seed_that_is_zero_on_the_grid(pstar):
    # h = 35: nodal{1} and gaussian{0.5} of the seed bank are zero on every
    # node; the search goes on with the other two
    g = make_grid(pstar, 600.0, 16)
    reps = eigen_deflated(pstar, g, 3, SolverOptions(seed_width=20.0))
    assert [r.seed_descriptor for r in reps] == ["gaussian{20.0}", "nodal{2.0}", "gaussian{2.0}"]
    assert all(r.converged for r in reps)


def test_eigen1_rejects_below_regime():
    p = ProblemParams(5, 0.3, 1.5)
    g = make_grid(p, 10.0, 32)
    with pytest.raises(ValueError, match="refuse"):
        eigen1(p, g)


def test_eigen1_scaled_pair_still_solves(eigen_report):
    # fibers of solutions are solutions.  The eigenfunction carries an
    # algebraic tail, so contracting it requires a tail window first (the
    # boundary-decay flag), and that surgery dominates the error budget: the
    # node-wise residual of the dilated pair sits at the percent level on
    # this cutoff.  The robust integral form of the statement is that the
    # dilated pair reproduces the same multiplier.
    u = eigen_report.solution
    grid = u.grid
    lam = eigen_report.multiplier
    window = np.exp(-((grid.r / (0.55 * grid.R)) ** 10))
    uw = Field(grid, u.values * window)
    assert uw.boundary_decay
    u2 = scale(uw, 2.0)
    rayleigh = apply_A(u2).pair(u2) / apply_B(u2).pair(u2)
    assert abs(rayleigh - lam) <= 3e-2 * lam


# ---------------------------------------------------------------------------
# deflation
# ---------------------------------------------------------------------------

def test_deflated_k1_reduces_to_eigen1(pstar, grid, eigen_report):
    reps = eigen_deflated(pstar, grid, 1)
    assert len(reps) == 1
    assert math.isclose(reps[0].multiplier, eigen_report.multiplier, rel_tol=1e-10)


@pytest.fixture(scope="module")
def deflated3(pstar, grid256):
    return eigen_deflated(pstar, grid256, 3)


def test_deflated_candidates_are_pinned(deflated3):
    # the three candidates, their order and their convergence do not depend
    # on how far each penalized ascent runs before Newton takes over
    pinned = [2.5213932479820316, 7.170197306688114, 4.115095469572799]
    assert [rep.converged for rep in deflated3] == [True, True, True]
    for rep, lam in zip(deflated3, pinned):
        assert abs(rep.multiplier - lam) <= 1e-10 * lam


def test_deflated_candidates_meet_the_eigen1_rule(deflated3):
    # one acceptance rule for eigen results: the relative residual with the
    # rounding floor, and I(u) = 1; deflation adds only distinctness
    from fcs import solvers

    opts = SolverOptions()
    for rep in deflated3:
        assert rep.converged
        res0 = rep.residual_dual / rep.residual_rel
        again = solvers._certify(rep.solution, None, opts, res0=res0, iterations=0, seed="", extras={})
        assert again.converged


def test_deflated_candidates_report_why_their_ascent_stopped(deflated3):
    for rep in deflated3:
        assert rep.extras["ascent_stop"] in ("handover", "line_search", "max_iter")


def test_deflated_candidates(pstar, grid, eigen_report):
    reps = eigen_deflated(pstar, grid, 2)
    lam1 = eigen_report.multiplier
    assert len(reps) >= 1
    for rep in reps:
        assert rep.converged
        assert rep.multiplier >= lam1 * (1.0 - 1e-2)
        assert rep.extras["ordering"] == "candidate, uncertified ordering"
    if len(reps) == 2:
        a, b = reps[0].solution.values, reps[1].solution.values
        cos = abs(np.sum(grid.w * a * b)) / (
            math.sqrt(np.sum(grid.w * a * a)) * math.sqrt(np.sum(grid.w * b * b))
        )
        assert cos < 0.99


# ---------------------------------------------------------------------------
# coercive minimization
# ---------------------------------------------------------------------------

def test_minimize_empty_spec_returns_zero(pstar, grid):
    rep = minimize_subscaled(pstar, grid, NonlinearitySpec())
    assert rep.converged and rep.energy == 0.0
    assert np.all(rep.solution.values == 0.0)


def test_minimize_rejects_superscaled(pstar, grid):
    with pytest.raises(RegimeMismatchError, match="subscaled"):
        minimize_subscaled(pstar, grid, pure_power(1.0, 3.2))


def test_minimize_rejects_out_of_window_exponent(pstar, grid):
    # subscaled but with a term below the lower embedding endpoint
    spec = NonlinearitySpec.of(DampedPowerTerm(1.0, 20.0 / 7.0, 0.5))
    with pytest.raises(RegimeMismatchError, match="open interval"):
        minimize_subscaled(pstar, grid, spec)


def test_minimize_damped_worked_example(pstar, grid, eigen_report):
    # scaling-critical power damped by (1 + |t|^0.3), lambda above the first
    # eigenvalue: a nontrivial negative-level minimizer exists at this cutoff
    exps = compute_exponents(pstar)
    lam = 4.5
    assert lam > eigen_report.multiplier
    spec = NonlinearitySpec.of(DampedPowerTerm(lam, exps.two_star_s_alpha, 0.3))
    rep = minimize_subscaled(
        pstar, grid, spec, SolverOptions(seed=eigen_report.solution)
    )
    assert rep.converged
    assert rep.energy < 0.0
    assert np.max(np.abs(rep.solution.values)) > 1e-3
    assert rep.residual_rel <= 1e-6


def test_minimize_damped_golden_config_takes_few_steps(pstar):
    # the minimize-damped golden configuration: 8 L-BFGS descent steps and
    # 3 Newton steps
    exps = compute_exponents(pstar)
    spec = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
    rep = minimize_subscaled(pstar, make_grid(pstar, 20.0, 128), spec)
    assert rep.converged
    assert rep.iterations <= 25


@pytest.mark.parametrize(
    "s, alpha, coef, q, level",
    [
        pytest.param(0.558659005139381, 1.5602482427490312, 7.118964372197348, 2.8099365924064217,
                     -20.55078971585351, id="q2.810"),
        pytest.param(0.7148242640794724, 1.5769343302001118, 21.807237291411663, 2.8437404350415,
                     -1641.1628298898077, id="q2.844"),
    ],
)
def test_minimize_wide_ball_descends_from_the_lowest_amplitude_start(s, alpha, coef, q, level):
    # N = 2, R = 160: the lowest level descends from a wide Gaussian on its
    # amplitude ray; dilated starts of other profiles, with lower starting
    # actions, would push it out of the seed bank's top three and end the
    # minimizer at -16.05 and -1053.8
    p = ProblemParams(2, s, alpha)
    rep = minimize_subscaled(p, make_grid(p, 160.0, 128), NonlinearitySpec.of(PowerTerm(coef, q)))
    assert rep.converged
    assert math.isclose(rep.energy, level, rel_tol=1e-10, abs_tol=0.0)


def test_minimize_pure_power_on_small_ball_is_trivial(pstar, grid):
    # at this cutoff the beta = 2.7 action is nonnegative, so the honest
    # global minimizer is the origin (negative wells need a far larger ball)
    rep = minimize_subscaled(pstar, grid, pure_power(1.0, 2.7))
    assert rep.converged
    assert rep.energy == 0.0
    assert np.all(rep.solution.values == 0.0)


def test_trivial_minimizer_of_a_zero_term_below_two_is_finite(pstar, grid):
    # |t|^(q-2) t with q < 2 is nan at t = 0; a zero coefficient leaves f = 0,
    # and the zero field's certificates are all exact zeros
    rep = minimize_subscaled(pstar, grid, pure_power(0.0, 1.5))
    assert rep.converged
    assert (rep.energy, rep.residual_dual, rep.nehari, rep.pohozaev_rel) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# mountain pass
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mp_setup():
    p = ProblemParams(3, 0.8, 2.0)
    g = make_grid(p, 20.0, 160)
    spec = pure_power(1.0, 4.1)
    e = find_negative_energy_point(p, g, spec)
    return p, g, spec, e


def test_negative_energy_endpoint(mp_setup):
    # the endpoint is the first negative doubling 2^k g of the width-1
    # Gaussian g, exactly: q = 4.1 and the critical family
    for p, g, spec, e in (mp_setup, _critical_family_setup()):
        gauss = np.exp(-g.r ** 2)
        k = math.log2(e.values[0] / gauss[0])
        assert k >= 1 and k == int(k)
        assert np.array_equal(e.values, 2.0 ** k * gauss)
        assert Phi(e, spec) <= 0.0 < Phi(g.field(e.values / 2.0), spec)


def test_negative_energy_endpoint_is_never_the_zero_field():
    # h = 35: the width-1 Gaussian is zero on every node, so Phi(a g) = 0 at
    # every a; that is no endpoint, not a negative-action point
    p = ProblemParams(3, 0.8, 2.0)
    g = make_grid(p, 600.0, 16)
    assert not np.any(np.exp(-g.r ** 2))
    with pytest.raises(NoPassError, match="no endpoint"):
        find_negative_energy_point(p, g, pure_power(1.0, 4.1))


def test_negative_energy_endpoint_checks_its_input_first(pstar, grid, mp_setup):
    with pytest.raises(RegimeMismatchError, match="mountain_pass requires"):
        find_negative_energy_point(pstar, grid, pure_power(1.0, 2.7))
    p, _, spec, _ = mp_setup
    with pytest.raises(ValueError, match="different problem parameters"):
        find_negative_energy_point(p, grid, spec)


def test_mountain_pass_positive_level(mp_setup):
    p, g, spec, e = mp_setup
    rep = mountain_pass(p, g, spec, e)
    assert rep.converged
    assert rep.energy > 0.0
    assert abs(rep.nehari) <= 1e-8 * max(1.0, rep.energy)
    assert rep.residual_rel <= 1e-6


def test_mountain_pass_endpoint_independence(mp_setup):
    p, g, spec, e = mp_setup
    a = mountain_pass(p, g, spec, e)
    b = mountain_pass(p, g, spec, find_negative_energy_point(p, g, spec, width=0.5))
    assert abs(a.energy - b.energy) <= 2e-2 * a.energy


def test_mountain_pass_reports_its_two_phases(mp_setup):
    p, g, spec, e = mp_setup
    rep = mountain_pass(p, g, spec, e).to_dict()
    assert rep["iterations"] == rep["iterations_nehari"] + rep["iterations_newton"]
    assert rep["iterations_newton"] >= 1
    assert rep["seed"] == "nehari[endpoint]"


def test_mountain_pass_wide_endpoint_has_no_pass(mp_setup):
    # the width-2 Gaussian ray never crosses the Nehari set inside the
    # amplitude scan window, so there is no barrier to reduce from
    p, g, spec, _ = mp_setup
    e = find_negative_energy_point(p, g, spec, width=2.0)
    with pytest.raises(NoPassError, match="no barrier crossing"):
        mountain_pass(p, g, spec, e)


# levels of the benchmark's mountain-pass inputs (N=3, s=0.8, alpha=2, R=20,
# M=128, CLI endpoint of width 1), as computed by the descent that ran to its
# 80-step cap before handing over to Newton
_MP_LEVELS = {
    4.0: 6.6923160432339355,
    4.05: 6.316904879032225,
    4.1: 5.979041488319221,
    4.15: 5.673426526625255,
    4.2: 5.395767685317579,
    4.25: 5.142537175549816,
    "critical": 1.5462926880509418,
}


def _mp_input(q):
    p = ProblemParams(3, 0.8, 2.0)
    g = make_grid(p, 20.0, 128)
    if q == "critical":
        exps = compute_exponents(p)
        spec = NonlinearitySpec.of(
            PowerTerm(1.0, exps.two_star_s_alpha), PowerTerm(1.0, 3.5), PowerTerm(1.0, exps.two_star_s)
        )
    else:
        spec = pure_power(1.0, q)
    return p, g, spec, find_negative_energy_point(p, g, spec)


@pytest.mark.parametrize("q", list(_MP_LEVELS))
def test_mountain_pass_benchmark_levels(q):
    rep = mountain_pass(*_mp_input(q))
    assert rep.converged
    assert math.isclose(rep.energy, _MP_LEVELS[q], rel_tol=1e-10, abs_tol=0.0)


def test_mountain_pass_level_above_the_dense_cutoff(monkeypatch):
    # q = 4.1 at the smallest M that Newton solves by GMRES; the level is
    # the one the dense Newton gives on this grid
    assert _DENSE_MAX_M + 1 == 769
    calls = _count_solves(monkeypatch)
    p = ProblemParams(3, 0.8, 2.0)
    g = make_grid(p, 20.0, 769)
    spec = pure_power(1.0, 4.1)
    rep = mountain_pass(p, g, spec, find_negative_energy_point(p, g, spec))
    assert rep.converged
    assert not calls
    assert math.isclose(rep.energy, 5.714313328665869, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("q", [4.0, 4.25])
def test_nehari_descent_hands_over_to_newton(q):
    # the first-order phase only has to reach Newton's basin: it stops on a
    # relative residual drop well before its 80-step cap
    rep = mountain_pass(*_mp_input(q)).to_dict()
    assert rep["converged"]
    assert rep["iterations_nehari"] < 80


def test_mountain_pass_superscaled_level():
    # q* < q = 3.43 < 2*_s at s = 0.75: no amplitude ray of a fixed shape has
    # negative action, so the endpoint is the dilated Gaussian 8 u_{2.5}
    p = ProblemParams(3, 0.75, 2.0)
    g = make_grid(p, 20.0, 256)
    spec = pure_power(1.0, 3.43)
    e = g.field(8.0 * scale(g.field(np.exp(-g.r ** 2)), 2.5).values)
    assert Phi(e, spec) < 0.0
    rep = mountain_pass(p, g, spec, e)
    assert rep.converged
    assert math.isclose(rep.energy, 13.429835705445665, rel_tol=1e-10, abs_tol=0.0)


# levels of the critical family near lam_1 (N=3, s=0.875, alpha=2, mu=1,
# q6=3.8667, R=20, CLI endpoint of width 1): its rays cross the Nehari set
# more than once, and the outermost crossing is not the ray's maximum
_NEAR_LAMBDA1_LEVELS = {
    (2.0, 64): 0.4493027406666341,
    (2.0, 128): 0.4492911399482944,
    (2.5, 64): 0.029834131218866133,
    (2.5, 128): 0.02983402494740217,
}


@pytest.mark.parametrize("lam, M", list(_NEAR_LAMBDA1_LEVELS))
def test_mountain_pass_critical_family_near_lambda1_converges(lam, M):
    # lam < lam_1 = 2.659 here, and every exponent is above 2, so
    # Phi >= (1 - lam/lam_1) I - higher powers is positive on a small sphere
    # around 0: the mountain-pass geometry holds and a pass at a positive
    # level exists
    p = ProblemParams(3, 0.875, 2.0)
    g = make_grid(p, 20.0, M)
    spec = critical_family(lam, 1.0, 3.8666666666666663, compute_exponents(p))
    rep = mountain_pass(p, g, spec, find_negative_energy_point(p, g, spec))
    assert rep.converged
    assert math.isclose(rep.energy, _NEAR_LAMBDA1_LEVELS[lam, M], rel_tol=1e-10, abs_tol=0.0)


# levels at sigma = 4s + alpha - N = 0.053 (N=6, R=20, CLI endpoint of
# width 1), where q* = 2.44804, q6 = 2.45269 and 2*_s = 2.45288 nearly
# coincide; the Nehari descent takes 28-30 of its 80 steps, Newton 4
_SMALL_SIGMA_LEVELS = {
    64: 0.34751867370163914,
    128: 0.34751881062592815,
    256: 0.34751881275213137,
}


@pytest.mark.parametrize("M", list(_SMALL_SIGMA_LEVELS))
def test_mountain_pass_converges_at_small_sigma(M):
    p = ProblemParams(6, 0.5538945091884342, 3.8372579236766784)
    g = make_grid(p, 20.0, M)
    exps = compute_exponents(p)
    spec = NonlinearitySpec.of(
        PowerTerm(2.276263964041046, exps.two_star_s_alpha),
        PowerTerm(2.346106376674073, 2.4526876820353665),
        PowerTerm(1.0, exps.two_star_s),
    )
    rep = mountain_pass(p, g, spec, find_negative_energy_point(p, g, spec))
    assert rep.converged
    assert math.isclose(rep.energy, _SMALL_SIGMA_LEVELS[M], rel_tol=1e-10, abs_tol=0.0)


def test_mountain_pass_rejects_positive_endpoint(mp_setup):
    p, g, spec, _ = mp_setup
    tiny = g.field(1e-3 * np.exp(-g.r ** 2))
    assert Phi(tiny, spec) > 0.0
    with pytest.raises(ValueError, match="Phi"):
        mountain_pass(p, g, spec, tiny)


def test_mountain_pass_rejects_subscaled(pstar, grid):
    e = grid.field(np.exp(-grid.r ** 2))
    with pytest.raises(RegimeMismatchError):
        mountain_pass(pstar, grid, pure_power(1.0, 2.7), e)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_single_step_equals_single_solve(pstar, grid, eigen_report):
    exps = compute_exponents(pstar)
    spec = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
    opts = SolverOptions(seed=eigen_report.solution)
    rows = sweep(pstar, grid, spec, 0, [4.5], opts, method="minimize")
    single = minimize_subscaled(pstar, grid, spec, opts)
    assert len(rows) == 1
    assert rows[0].converged
    assert math.isclose(rows[0].energy, single.energy, rel_tol=1e-6)


def test_sweep_warm_start_reduces_iterations(pstar, grid, eigen_report):
    exps = compute_exponents(pstar)
    spec = NonlinearitySpec.of(DampedPowerTerm(4.0, exps.two_star_s_alpha, 0.3))
    opts = SolverOptions(seed=eigen_report.solution)
    lams = [4.0, 4.25, 4.5, 4.75, 5.0]
    rows = sweep(pstar, grid, spec, 0, lams, opts, method="minimize")
    assert all(r.converged for r in rows)
    warm_iters = sum(r.iterations for r in rows[1:])
    cold_iters = 0
    for lam in lams[1:]:
        rep = minimize_subscaled(
            pstar,
            grid,
            spec.with_coef(0, lam),
            SolverOptions(seed=eigen_report.solution),
        )
        cold_iters += rep.iterations
    assert warm_iters < cold_iters


def test_sweep_rows_agree_with_single_solves(pstar):
    # below the first eigenvalue the warm descent from the previous row's
    # minimizer finds no negative level; the row must then report what a
    # single solve reports (the trivial minimizer), not a positive-level
    # critical point or a collapse
    g = make_grid(pstar, 20.0, 128)
    opts = SolverOptions(seed=eigen1(pstar, g).solution)
    exps = compute_exponents(pstar)
    spec = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
    lams = [4.5, 3.5, 2.5]
    rows = sweep(pstar, g, spec, 0, lams, opts, method="minimize")
    for row, lam in zip(rows, lams):
        single = minimize_subscaled(pstar, g, spec.with_coef(0, lam), opts)
        assert row.converged
        assert math.isclose(row.energy, single.energy, rel_tol=1e-6, abs_tol=1e-12)


def test_sweep_records_failures_and_continues(pstar, grid):
    # an out-of-window coefficient sweep: rows fail but the sweep finishes
    spec = pure_power(1.0, 3.2)  # superscaled: minimize refuses
    with pytest.warns(RuntimeWarning):
        rows = sweep(pstar, grid, spec, 0, [1.0, 2.0], method="minimize")
    assert len(rows) == 2
    assert all(not r.converged for r in rows)
    assert all(math.isnan(r.energy) for r in rows)


def test_mountain_pass_sweep_records_a_power_with_no_solution(pstar, grid):
    # q = 4.5 > 2*_s = 4: each row's entry check refuses the power (the
    # Pohozaev identity less (N-2s)/2 times the Nehari one), a NaN row
    with pytest.warns(RuntimeWarning, match="no solution exists"):
        rows = sweep(pstar, grid, pure_power(1.0, 4.5), 0, [1.0, 2.0], method="mountain-pass")
    assert [(math.isnan(r.energy), r.converged, r.iterations) for r in rows] == [(True, False, 0)] * 2


@pytest.mark.parametrize("error", [NoPassError, TypeError])
def test_sweep_records_only_the_failures_of_a_solve(error, pstar, grid, monkeypatch):
    # a solver failure (exit 2 from the CLI) is a NaN row and a warning; a
    # programming error is no row at all: it propagates out of the sweep
    from fcs import solvers

    def failing(*args, **kwargs):
        raise error("row failed")

    monkeypatch.setattr(solvers, "_minimize", failing)
    spec = pure_power(4.5, 2.7)
    if error is TypeError:
        with pytest.raises(TypeError, match="row failed"):
            sweep(pstar, grid, spec, 0, [4.5])
        return
    with pytest.warns(RuntimeWarning, match="row failed"):
        rows = sweep(pstar, grid, spec, 0, [4.5])
    assert len(rows) == 1 and not rows[0].converged and math.isnan(rows[0].energy)


# each bad input of a sweep and the start of its ValueError
_BAD_SWEEPS = {
    "unknown-method": "unknown sweep method 'minimise'",
    # eigen1 never reads the nonlinearity: all its rows would be one problem
    "eigen1-method": "unknown sweep method 'eigen1'",
    "other-grid": "grid was built for different problem parameters",
    "below-regime": "solver-facing modules refuse parameters with 4s \\+ alpha < N",
    "term-index-negative": "term index -1 out of range",
    "term-index-past-end": "term index 1 out of range",
}


@pytest.mark.parametrize("case", list(_BAD_SWEEPS))
def test_sweep_rejects_bad_input_before_its_rows(case, pstar, grid, recwarn):
    params, g, term, method = pstar, grid, 0, "minimize"
    if case.endswith("-method"):
        method = "minimise" if case == "unknown-method" else "eigen1"
    elif case == "other-grid":
        params = ProblemParams(3, 0.8, 2.0)
    elif case == "below-regime":
        params = ProblemParams(5, 0.3, 1.5)
        g = make_grid(params, 20.0, 32)
    else:
        term = -1 if case == "term-index-negative" else 1
    with pytest.raises(ValueError, match=_BAD_SWEEPS[case]):
        sweep(params, g, pure_power(1.0, 2.7), term, [1.0, 2.0], method=method)
    assert len(recwarn) == 0  # no row was attempted and recorded as failed


def test_sweep_requires_monotone_range(pstar, grid):
    with pytest.raises(ValueError, match="monotone"):
        sweep(pstar, grid, pure_power(1.0, 2.7), 0, [1.0, 3.0, 2.0])


def test_deflated_partial_list_warns(pstar, grid):
    # the seed bank is finite: asking for more candidates than it can
    # deliver yields a partial list plus a warning
    with pytest.warns(RuntimeWarning, match="distinct candidates"):
        reps = eigen_deflated(pstar, grid, 7)
    assert 1 <= len(reps) < 7


@pytest.mark.parametrize("method", ["eigen1", "eigen-deflated", "minimize", "mountain-pass"])
def test_max_iter_caps_every_solver(method, pstar, monkeypatch):
    # a first-order phase stops _NEWTON_RESERVE steps short of max_iter and
    # Newton takes what is left, so no report the solver builds (every
    # deflation candidate included) counts more than max_iter steps
    from fcs import solvers

    cap = 5
    opts = SolverOptions(max_iter=cap)
    counted = []
    certify = solvers._certify
    monkeypatch.setattr(solvers, "_certify", lambda *a, **kw: counted.append(kw["iterations"]) or certify(*a, **kw))
    g = make_grid(pstar, 20.0, 128)
    if method == "eigen1":
        eigen1(pstar, g, opts)
    elif method == "eigen-deflated":
        with pytest.warns(RuntimeWarning, match="deflation found"):
            eigen_deflated(pstar, g, 3, opts)
    elif method == "minimize":
        spec = NonlinearitySpec.of(DampedPowerTerm(5.0, compute_exponents(pstar).two_star_s_alpha, 0.2))
        minimize_subscaled(pstar, g, spec, opts)
    else:
        p, _, spec, _ = _mp_input(4.1)
        g = make_grid(p, 20.0, 128)
        mountain_pass(p, g, spec, find_negative_energy_point(p, g, spec), opts)
    assert counted and max(counted) <= cap


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    for width in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="seed width"):
            SolverOptions(seed_width=width)


# ---------------------------------------------------------------------------
# certificate contract
# ---------------------------------------------------------------------------

def _critical_family_setup():
    p = ProblemParams(3, 0.8, 2.0)
    g = make_grid(p, 20.0, 128)
    exps = compute_exponents(p)
    qs = (exps.two_star_s_alpha, 3.5, exps.two_star_s)
    spec = NonlinearitySpec.of(*(PowerTerm(1.0, q) for q in qs))
    return p, g, spec, find_negative_energy_point(p, g, spec)


@pytest.mark.parametrize(
    "entry",
    ["eigen1", "eigen_deflated", "minimize", "minimize-trivial", "mountain-pass", "mountain-pass-critical"],
)
def test_reports_are_recomputed_from_the_stored_field(entry, pstar, grid, eigen_report, mp_setup):
    # every certificate equals, bit for bit, the public function evaluated
    # on report.solution: nothing may leak from solver internals
    exps = compute_exponents(pstar)
    if entry == "eigen1":
        reports = [eigen_report]
    elif entry == "eigen_deflated":
        reports = eigen_deflated(pstar, grid, 2)
    elif entry == "minimize":
        spec = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
        opts = SolverOptions(seed=eigen_report.solution)
        reports = [minimize_subscaled(pstar, grid, spec, opts)]
    elif entry == "minimize-trivial":
        spec = pure_power(1.0, 2.7)
        reports = [minimize_subscaled(pstar, grid, spec)]
    else:
        p, g, spec, e = mp_setup if entry == "mountain-pass" else _critical_family_setup()
        reports = [mountain_pass(p, g, spec, e)]
    for rep in reports:
        u = rep.solution
        if rep.multiplier is not None:
            spec = eigen_spec(rep.multiplier, compute_exponents(u.grid.params))
            energy, residual = Phi_lambda(u, rep.multiplier), _eigen_residual_dual(rep)
        else:
            energy, residual = Phi(u, spec), dual_norm(grad_Phi(u, spec))
        assert rep.nehari == nehari_residual(u, spec)
        assert rep.pohozaev_rel == pohozaev_residual(u, spec).pohozaev_rel
        assert rep.energy == energy
        assert rep.residual_dual == residual
        assert (rep.extras["I"], rep.extras["J"]) == (I_functional(u), J_functional(u))


@pytest.mark.parametrize("entry", ["eigen1", "mountain-pass", "minimize", "minimize-trivial"])
def test_report_evaluates_the_returned_field_once(entry, pstar, grid, eigen_report, mp_setup, monkeypatch):
    # from the field the solver returns to its report: one kernel matvec, the
    # one evaluation of the sign-normalized field that every number of the
    # report (level, residual, convergence floor, Nehari, Pohozaev) is read from
    from fcs import operators, solvers

    calls = {"matvec": 0}
    kernel = operators._RieszKernel
    sym_potential = kernel.sym_potential

    def counting(self, v):
        calls["matvec"] += 1
        return sym_potential(self, v)

    returned = []
    normalize = solvers._normalize_sign
    monkeypatch.setattr(kernel, "sym_potential", counting)
    monkeypatch.setattr(solvers, "_normalize_sign", lambda u: returned.append(calls["matvec"]) or normalize(u))
    if entry == "eigen1":
        rep = eigen1(pstar, grid)
    elif entry == "mountain-pass":
        rep = mountain_pass(*mp_setup)
    elif entry == "minimize-trivial":
        rep = minimize_subscaled(pstar, grid, pure_power(1.0, 2.7))
    else:
        exps = compute_exponents(pstar)
        spec = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
        rep = minimize_subscaled(pstar, grid, spec, SolverOptions(seed=eigen_report.solution))
    assert rep.converged
    assert len(returned) == 1
    assert calls["matvec"] - returned[0] == 1
