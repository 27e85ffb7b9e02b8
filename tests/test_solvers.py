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
    eigen_spec,
    grad_Phi,
    pure_power,
)
from fcs.operators import apply_A, apply_B, dual_norm
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
    # pinned at R = 20; the fiber projection's root finder must not move them
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
    # a line search that cannot succeed ends the ascent after a few trials
    # instead of halving the step dozens of times, one projection each
    from fcs import solvers

    calls = {"project": 0}
    project = solvers.project_to_M

    def counting(*args, **kwargs):
        calls["project"] += 1
        return project(*args, **kwargs)

    monkeypatch.setattr(solvers, "project_to_M", counting)
    rep = eigen1(pstar, grid256)
    assert rep.converged
    assert calls["project"] <= 20


def test_eigen1_reports_why_the_ascent_stopped(pstar, grid256):
    # at the reference configuration the Armijo search runs out of trials
    # before the ascent's residual reaches the hand-over threshold
    rep = eigen1(pstar, grid256)
    assert rep.extras["ascent_stop"] == "line_search"
    assert rep.to_dict()["ascent_stop"] == "line_search"


@pytest.mark.parametrize("params", [(3, 0.75, 2.0), (4, 0.75, 2.5)], ids=["N3", "N4"])
def test_eigen_point_reads_the_rayleigh_quotient(params):
    from fcs import solvers
    from fcs.scaling import project_to_M

    p = ProblemParams(*params)
    g = make_grid(p, 20.0, 96)
    u = project_to_M(g.field(np.exp(-g.r ** 2)))
    lam = rayleigh_quotient(u)
    pt = solvers._eigen_point(u, compute_exponents(p).two_star_s_alpha)
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
    opts = SolverOptions(seed="field", seed_field=grid.zero_field())
    with pytest.raises(DegenerateSeedError):
        eigen1(pstar, grid, opts)


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
    pinned = [2.521393247982033, 11.836618300439465, 4.1150954695728]
    assert [rep.converged for rep in deflated3] == [True, True, True]
    for rep, lam in zip(deflated3, pinned):
        assert abs(rep.multiplier - lam) <= 1e-10 * lam


def test_deflated_candidates_report_why_their_ascent_stopped(deflated3):
    for rep in deflated3:
        assert rep.extras["ascent_stop"] in ("handover", "line_search", "slope", "max_iter")


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
        pstar, grid, spec, SolverOptions(seed="field", seed_field=eigen_report.solution)
    )
    assert rep.converged
    assert rep.energy < 0.0
    assert np.max(np.abs(rep.solution.values)) > 1e-3
    assert rep.residual_rel <= 1e-6


def test_minimize_pure_power_on_small_ball_is_trivial(pstar, grid):
    # at this cutoff the beta = 2.7 action is nonnegative, so the honest
    # global minimizer is the origin (negative wells need a far larger ball)
    rep = minimize_subscaled(pstar, grid, pure_power(1.0, 2.7))
    assert rep.converged
    assert rep.energy == 0.0
    assert np.all(rep.solution.values == 0.0)


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
    p, g, spec, e = mp_setup
    assert Phi(e, spec) <= 0.0
    assert np.max(np.abs(e.values)) > 0.0


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
    opts = SolverOptions(seed="field", seed_field=eigen_report.solution)
    rows = sweep(pstar, grid, spec, 0, [4.5], opts, method="minimize")
    single = minimize_subscaled(pstar, grid, spec, opts)
    assert len(rows) == 1
    assert rows[0].converged
    assert math.isclose(rows[0].energy, single.energy, rel_tol=1e-6)


def test_sweep_warm_start_reduces_iterations(pstar, grid, eigen_report):
    exps = compute_exponents(pstar)
    spec = NonlinearitySpec.of(DampedPowerTerm(4.0, exps.two_star_s_alpha, 0.3))
    opts = SolverOptions(seed="field", seed_field=eigen_report.solution)
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
            SolverOptions(seed="field", seed_field=eigen_report.solution),
        )
        cold_iters += rep.iterations
    assert warm_iters < cold_iters


def test_sweep_rows_agree_with_single_solves(pstar):
    # below the first eigenvalue the warm descent from the previous row's
    # minimizer finds no negative level; the row must then report what a
    # single solve reports (the trivial minimizer), not a positive-level
    # critical point or a collapse
    g = make_grid(pstar, 20.0, 128)
    opts = SolverOptions(seed="field", seed_field=eigen1(pstar, g).solution)
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


def test_sweep_rejects_an_unknown_method_before_its_rows(pstar, grid, recwarn):
    with pytest.raises(ValueError, match="unknown sweep method 'minimise'"):
        sweep(pstar, grid, pure_power(1.0, 2.7), 0, [1.0, 2.0], method="minimise")
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
        opts = SolverOptions(seed="field", seed_field=eigen_report.solution)
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


@pytest.mark.parametrize("entry", ["eigen1", "mountain-pass", "minimize"])
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
    else:
        exps = compute_exponents(pstar)
        spec = NonlinearitySpec.of(DampedPowerTerm(4.5, exps.two_star_s_alpha, 0.3))
        rep = minimize_subscaled(pstar, grid, spec, SolverOptions(seed="field", seed_field=eigen_report.solution))
    assert rep.converged
    assert len(returned) == 1
    assert calls["matvec"] - returned[0] == 1
