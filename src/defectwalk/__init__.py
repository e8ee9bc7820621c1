"""defectwalk: point spectrum and dynamics of a one-defect discrete-time walk.

A single coin defect of real strength omega at the origin of an otherwise
homogeneous two-component walk produces, for omega outside {0, 1}, exactly
four point eigenvalues in closed form. This package computes those closed
forms (eigenvalues, bound states, transfer-matrix machinery, spectral-region
classification) and verifies them independently (dense truncations, blind
root scans, extended-precision identity checks, residual decay fits). Each
public name serves a command, a validate suite or a raw-versus-closed
cross-check. No threshold is settable: the region tolerance is a constant of
``spectrum``, the oracles' precisions, thresholds, windows and seed grid are
constants of ``oracle``, and the acceptance bounds of ``validate`` are
constants of ``cli``.

The names below and the submodules are imported on first use (PEP 562), so a
command pays only for what it runs: numpy loads with ``walk`` or
``spectrum``, mpmath only with ``oracle``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names re-exported from it
_REEXPORTS = {
    "sqrtbranch": ("principal_sqrt", "sqrt_cartesian"),
    "walk": (
        "WaveFunction",
        "Trajectory",
        "delta_state",
        "apply_U",
        "eigen_residual",
        "evolve",
    ),
    "spectrum": (
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
    ),
    "oracle": (
        "RootScan",
        "DecayFit",
        "build_dense",
        "find_eigenvalues_numeric",
        "highprec_check",
        "residual_decay",
    ),
}
_HOME = {name: module for module, names in _REEXPORTS.items() for name in names}
_SUBMODULES = ("cli", "config", "figure", "oracle", "spectrum", "sqrtbranch", "walk")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
