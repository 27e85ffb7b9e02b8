"""Numerical variational toolkit for radial fractional
Schrodinger-Poisson-Slater equations on a truncated radial grid."""

from . import _entry
_entry._cap_threads()  # before numpy loads: its thread pools read the caps once

from .params import (  # noqa: E402
    ProblemParams,
    ExponentTable,
    NonlinearityRegime,
    compute_exponents,
    classify_nonlinearity,
)
from .grid import Field, RadialGrid, SpectralField, make_grid, forward_transform, lp_norm  # noqa: E402
from .operators import (  # noqa: E402
    apply_A,
    apply_B,
    coulomb_energy,
    dual_norm,
    frac_seminorm_sq,
    quadrilinear_T,
    riesz_potential,
)
from .energy import (  # noqa: E402
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
from .scaling import project_to_M, scale  # noqa: E402
from .solvers import (  # noqa: E402
    SolveReport,
    SolverOptions,
    eigen1,
    eigen_deflated,
    find_negative_energy_point,
    minimize_subscaled,
    mountain_pass,
    sweep,
)
from .diagnostics import (  # noqa: E402
    DiagnosticsRecord,
    estimate_sobolev_constant,
    linking_probe,
    nehari_residual,
    pohozaev_residual,
    ps_threshold,
)

__version__ = "0.1.0"
