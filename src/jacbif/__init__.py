"""Jacobi spectral data and bifurcation-branch tracing for the interval ODE

    (1 - t^2) u'' + (beta - alpha - (alpha+beta+2) t) u' - lambda (u - u^q) = 0

with the weight (1-t)^alpha (1+t)^beta, including the sphere-parameter map,
exact-rational polynomial oracles, expansion-coefficient sign analysis, and
fold localization.
"""

from .continuation import (
    Branch,
    BranchPoint,
    ContinuationSettings,
    FoldRecord,
    ProblemSpec,
    SpectralFunction,
    bifurcation_lambda,
    boundary_residual,
    branch_switch,
    continue_branch,
    count_critical_points,
    count_crossings,
    critical_point_list,
    detect_fold,
    endpoint_label,
    find_degenerate,
    jacobian,
    lambda_prime_zero,
    solve_at_phase,
)
from .errors import (
    JacbifError,
    NewtonDivergenceError,
    NoFoldBracketError,
    NonpositiveStateError,
    NumericalBreakdownError,
    NumericalError,
    ParameterError,
    StructureViolationError,
    TangencyError,
)
from .geometry import params_from_sphere, sphere_eigenvalue
from .jacobi import (
    ExactPolynomial,
    JacobiParams,
    QuadratureRule,
    apply_L,
    endpoint_value,
    eval_jacobi,
    exact_coeffs,
    exact_poly,
    gauss_jacobi_rule,
    jacobi_params,
    jacobi_series,
    jacobi_table,
    jacobi_zeros,
    weighted_norm_sq,
)
from .linearization import (
    GasperQuartic,
    LinearizationTable,
    SignReport,
    cube_integral,
    gasper_quartic,
    linearization_coeffs,
    quartic_sign_structure,
    sign_classification,
    supercritical_threshold,
)

__version__ = "0.1.0"
