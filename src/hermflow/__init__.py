"""Solenoidal Hermite spectral machinery for self-similar parabolic flows.

The package splits into exact-arithmetic layers (multi-indices, rational
polynomials, operator pairs, moments, divergence-free bases) and numeric
layers (radial kernel tables with WKBJ envelopes, the periodized Fourier
grid with the Leray projector on its frequency lattice, coefficient
dynamics with nodal-set and zero-type diagnostics, and an independent
semigroup verifier). The `cli` module exposes all of it as the `hermflow`
command.
"""
from __future__ import annotations

from .errors import EmptyCloudError, NonConvergenceError, ValidationError
from .multiindex import enumerate_level
from .polynomial import Polynomial, VectorPolyField
from .operators import (
    EigenPair,
    OperatorParams,
    apply_B_star,
    eigen_coefficients,
    eigenfunction,
    level_enumerate,
    level_membership,
    pairing,
)
from .moments import kernel_moment, moment_of_poly
from .solenoidal import (
    CompositeBasis,
    SolenoidalBasis,
    composite_basis,
    divfree_kernel,
    fixture,
    fixture_basis,
    level_basis,
    validate_basis_field,
)
from .kernel import (
    KernelTable,
    WkbjConstants,
    envelope_fit,
    kernel_values,
    wkbj_constants,
)
from .grid import (
    GridSpec,
    InteractionTensor,
    convection_poly,
    interaction_tensor,
)
from .dynamics import (
    CoefficientTrajectory,
    Expansion,
    ResonanceReport,
    ZeroType,
    classify_zero,
    detect_resonance,
    diagonal_flow,
    diagonal_trajectory,
    expand,
    nodal_compare,
    nodal_extract,
    nse_galerkin,
    rate_check,
    semigroup_verify,
    unique_continuation_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTrajectory",
    "CompositeBasis",
    "EigenPair",
    "EmptyCloudError",
    "Expansion",
    "GridSpec",
    "InteractionTensor",
    "KernelTable",
    "NonConvergenceError",
    "OperatorParams",
    "Polynomial",
    "ResonanceReport",
    "SolenoidalBasis",
    "ValidationError",
    "VectorPolyField",
    "WkbjConstants",
    "ZeroType",
    "apply_B_star",
    "classify_zero",
    "composite_basis",
    "convection_poly",
    "detect_resonance",
    "diagonal_flow",
    "diagonal_trajectory",
    "divfree_kernel",
    "eigen_coefficients",
    "eigenfunction",
    "enumerate_level",
    "envelope_fit",
    "expand",
    "fixture",
    "fixture_basis",
    "interaction_tensor",
    "kernel_moment",
    "kernel_values",
    "level_basis",
    "level_enumerate",
    "level_membership",
    "moment_of_poly",
    "nodal_compare",
    "nodal_extract",
    "nse_galerkin",
    "pairing",
    "rate_check",
    "semigroup_verify",
    "unique_continuation_diagnostic",
    "validate_basis_field",
    "wkbj_constants",
]
