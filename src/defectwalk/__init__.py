"""defectwalk: point spectrum and dynamics of a one-defect discrete-time walk.

A single coin defect of real strength omega at the origin of an otherwise
homogeneous two-component walk produces, for omega outside {0, 1}, exactly
four point eigenvalues in closed form. This package computes those closed
forms (eigenvalues, bound states, transfer-matrix machinery, spectral-region
classification) and verifies them independently (dense truncations, blind
root scans, extended-precision identity checks, residual decay fits).
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, Tolerances
from .sqrtbranch import principal_sqrt, sqrt_cartesian
from .walk import (
    Trajectory,
    WaveFunction,
    apply_U,
    coin,
    delta_state,
    eigen_residual,
    evolve,
    growth_rate,
)
from .spectrum import (
    EigenvectorProfile,
    Family,
    Region,
    SpectralQuadruple,
    abs_imag_part,
    abs_real_part,
    bulk_eigenvectors,
    bulk_multipliers,
    bulk_slopes,
    classify,
    dependence_det_minus,
    dependence_det_plus,
    det_parameter_minus,
    det_parameter_plus,
    eigenvalue_modulus_squared,
    eigenvalues,
    eigenvector,
    eigenvector_profile,
    essential_spectrum_arcs,
    transfer_matrix,
)
from .oracle import (
    DecayFit,
    HighPrecReport,
    RootScan,
    build_dense,
    find_eigenvalues_numeric,
    highprec_check,
    residual_decay,
    state_to_vector,
    vector_to_state,
)

__all__ = [
    "__version__",
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "principal_sqrt",
    "sqrt_cartesian",
    "WaveFunction",
    "Trajectory",
    "coin",
    "delta_state",
    "apply_U",
    "eigen_residual",
    "evolve",
    "growth_rate",
    "Region",
    "Family",
    "SpectralQuadruple",
    "EigenvectorProfile",
    "abs_real_part",
    "abs_imag_part",
    "eigenvalues",
    "eigenvalue_modulus_squared",
    "bulk_multipliers",
    "bulk_slopes",
    "bulk_eigenvectors",
    "transfer_matrix",
    "classify",
    "det_parameter_plus",
    "det_parameter_minus",
    "dependence_det_plus",
    "dependence_det_minus",
    "eigenvector_profile",
    "eigenvector",
    "essential_spectrum_arcs",
    "RootScan",
    "HighPrecReport",
    "DecayFit",
    "build_dense",
    "state_to_vector",
    "vector_to_state",
    "find_eigenvalues_numeric",
    "highprec_check",
    "residual_decay",
]
