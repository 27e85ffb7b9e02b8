"""Property-based robustness map of ``eigen1`` over admissible (N, s, alpha).

Every draw either certifies a result or fails with a typed error: below the
threshold 4s + alpha = N a ``ValueError``; above it a converged report on
{I = 1} whose multiplier is the Rayleigh quotient of the stored field.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fcs import ProblemParams, make_grid
from fcs.params import Regime
from fcs.solvers import SolverOptions, eigen1

from conftest import rayleigh_quotient


@st.composite
def eigen_draws(draw):
    N = draw(st.integers(2, 6))
    s = draw(st.floats(0.3, 0.95, exclude_min=True, exclude_max=True))
    alpha = draw(st.floats(1.05, N - 0.05, exclude_min=True, exclude_max=True))
    width = draw(st.floats(0.5, 3.0, exclude_min=True, exclude_max=True))
    M = draw(st.sampled_from([64, 128]))
    return ProblemParams(N, s, alpha), width, M


@settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(eigen_draws())
def test_eigen1_certifies_or_raises_a_typed_error(draw):
    params, width, M = draw
    grid = make_grid(params, 20.0, M)
    opts = SolverOptions(seed_width=width)
    if params.regime is Regime.BELOW:
        with pytest.raises(ValueError, match="4s \\+ alpha < N"):
            eigen1(params, grid, opts)
        return
    rep = eigen1(params, grid, opts)
    assert rep.converged
    assert abs(rep.extras["I"] - 1.0) <= 1e-8
    lam = rayleigh_quotient(rep.solution)
    assert abs(rep.multiplier - lam) <= 1e-10 * lam
