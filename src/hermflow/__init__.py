"""Solenoidal Hermite spectral machinery for self-similar parabolic flows.

The package splits into exact-arithmetic layers (multi-indices, rational
polynomials, operator pairs, moments, divergence-free bases) and numeric
layers (radial kernel tables with WKBJ envelopes, the periodized Fourier
grid with a Leray projector, coefficient dynamics with nodal-set and
zero-type diagnostics, and an independent semigroup verifier). The `cli`
module exposes all of it as the `hermflow` command.
"""
from __future__ import annotations

from .errors import EmptyCloudError, NonConvergenceError, ValidationError
from .multiindex import enumerate_level
from .polynomial import Polynomial, VectorPolyField
from .operators import (
    EigenPair,
    OperatorParams,
    apply_B,
    apply_B_star,
    apply_B_weighted,
    eigen_coefficients,
    eigenfunction,
    level_enumerate,
    level_membership,
    pairing,
)
from .moments import kernel_moment, moment_of_poly, weighted_pairing
from .solenoidal import (
    CompositeBasis,
    SolenoidalBasis,
    composite_basis,
    divfree_kernel,
    fixture,
    fixture_basis,
    level_basis,
    validate_basis_field,
    weighted_dual,
)
from .kernel import (
    KernelTable,
    WkbjConstants,
    envelope_fit,
    gaussian_kernel,
    kernel_values,
    ode_residual,
    wkbj_constants,
)
from .grid import (
    GridSpec,
    GridVectorField,
    InteractionTensor,
    convection,
    convection_poly,
    interaction_tensor,
    pair_fields,
    project,
    sample,
    spectral_divergence,
    synth_duals,
    synth_weighted,
    to_grid,
    to_spectral,
    weighted_transform,
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
    "GridVectorField",
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
    "apply_B",
    "apply_B_star",
    "apply_B_weighted",
    "classify_zero",
    "composite_basis",
    "convection",
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
    "gaussian_kernel",
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
    "ode_residual",
    "pair_fields",
    "pairing",
    "project",
    "rate_check",
    "sample",
    "semigroup_verify",
    "spectral_divergence",
    "synth_duals",
    "synth_weighted",
    "to_grid",
    "to_spectral",
    "unique_continuation_diagnostic",
    "validate_basis_field",
    "weighted_dual",
    "weighted_pairing",
    "weighted_transform",
    "wkbj_constants",
]
