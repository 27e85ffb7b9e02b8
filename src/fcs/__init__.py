"""Numerical variational toolkit for radial fractional
Schrodinger-Poisson-Slater equations on a truncated radial grid."""

from .params import (
    ProblemParams,
    ExponentTable,
    NonlinearityRegime,
    compute_exponents,
    classify_nonlinearity,
)
from .grid import Field, RadialGrid, SpectralField, make_grid, forward_transform, lp_norm
from .operators import (
    apply_A,
    apply_B,
    coulomb_energy,
    dual_norm,
    frac_seminorm_sq,
    quadrilinear_T,
    riesz_potential,
)
from .energy import (
    DampedPowerTerm,
    NonlinearitySpec,
    PowerTerm,
    WeightedPowerTerm,
    I_functional,
    J_functional,
    Phi,
    Phi_lambda,
    Psi_tilde,
    grad_Phi,
)
from .scaling import project_to_M, scale
from .solvers import (
    SolveReport,
    SolverOptions,
    eigen1,
    eigen_deflated,
    find_negative_energy_point,
    minimize_subscaled,
    mountain_pass,
    sweep,
)
from .diagnostics import (
    DiagnosticsRecord,
    estimate_sobolev_constant,
    linking_probe,
    nehari_residual,
    pohozaev_residual,
    ps_threshold,
)

__version__ = "0.1.0"
