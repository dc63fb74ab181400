"""Reference implementations the tests compare the library against.

None of these is used by the package or the CLI. Each is an independent
route to a number the library computes another way: grid fields
synthesized by inverse FFT and paired by grid quadrature, the Leray
projector and the pseudo-spectral convection applied through FFT round
trips, the kernel-weighted Gram inverse, the closed-form Gaussian kernel
and its radial ODE residual, and the operator B in its expanded and
divergence forms.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from hermflow import grid
from hermflow.errors import ValidationError
from hermflow.grid import (
    GridSpec,
    GridVectorField,
    _eta_axes,
    _lattice_spectrum,
    dual_cubes,
    lattice_weight,
    project_spectral,
    to_spectral,
    weighted_transform,
)
from hermflow.kernel import KernelTable
from hermflow.moments import moment_of_poly
from hermflow.multiindex import MultiIndex, enumerate_level, unit
from hermflow.operators import OperatorParams, euler_degree_op
from hermflow.polynomial import Polynomial, VectorPolyField, laplacian
from hermflow.rational_linalg import dependent_columns, fd_weights, inverse, rref
from hermflow.solenoidal import CompositeBasis, SolenoidalBasis, _gram, validate_basis_field


# -- multi-indices, moments and exact linear algebra --------------------------


def mi_le(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def enumerate_up_to(kmax: int, dim: int) -> Iterator[MultiIndex]:
    for k in range(kmax + 1):
        yield from enumerate_level(k, dim)


def weighted_pairing(p: Polynomial, q: Polynomial, m: int) -> Fraction:
    """int p q F dy."""
    return moment_of_poly(p * q, m)


def rank(A: Sequence[Sequence]) -> int:
    return len(rref(A)[1])


# -- operators and the kernel -------------------------------------------------


def apply_B(p: Polynomial, params: OperatorParams) -> Polynomial:
    m, N = params.m, params.N
    sign = 1 if (m + 1) % 2 == 0 else -1
    lap_m = p
    for _ in range(m):
        lap_m = laplacian(lap_m)
    return (
        lap_m.scale(sign)
        + euler_degree_op(p).scale(Fraction(1, 2 * m))
        + p.scale(Fraction(N, 2 * m))
    )


def apply_B_weighted(p: Polynomial, params: OperatorParams) -> Polynomial:
    """Divergence form (1/rho) div(rho grad p) for the Gaussian rho, m=1 only.

    Expanding by the product rule with grad(rho)/rho = -y/2 gives
    Delta p - (1/2) y.grad p, which must coincide with apply_B_star.
    """
    if params.m != 1:
        raise ValidationError("divergence form is specific to m=1")
    dim = p.dim
    out = laplacian(p)
    for i in range(dim):
        di = p.derive(unit(dim, i))
        yi = Polynomial.variable(dim, i)
        out = out - (yi * di).scale(Fraction(1, 2))
    return out


def gaussian_kernel(r: np.ndarray | float) -> np.ndarray | float:
    """Closed form for m=1: (4 pi)^(-3/2) exp(-r^2/4)."""
    return (4 * math.pi) ** (-1.5) * np.exp(-np.asarray(r, dtype=float) ** 2 / 4.0)


def ode_residual(table: KernelTable, window: tuple = (0.5, 4.0)) -> float:
    """Max | -(-Delta)^m F + (1/2m) r F' + (N/2m) F | on the window.

    Radial forms for N=3: Delta f = f'' + (2/r) f' and
    Delta^2 f = f'''' + (4/r) f'''. Ninth-point exact-degree stencils keep
    truncation far below the quadrature noise they amplify.
    """
    m, N = table.m, table.N
    if m not in (1, 2):
        raise ValidationError("radial residual implemented for m in {1, 2}")
    r, f = table.radii, table.values
    h = np.diff(r)
    if not np.allclose(h, h[0], rtol=1e-12, atol=1e-14):
        raise ValidationError("uniform radial grid required")
    h = float(h[0])
    half = 4
    offsets = tuple(range(-half, half + 1))

    def deriv(order: int) -> np.ndarray:
        w = np.array([float(x) for x in fd_weights(offsets, order)]) / h**order
        out = np.full_like(f, np.nan)
        core = sum(w[i] * f[i : len(f) - 2 * half + i] for i in range(2 * half + 1))
        out[half:-half] = core
        return out

    d1 = deriv(1)
    if m == 1:
        lap = deriv(2) + 2.0 * d1 / np.where(r == 0, np.nan, r)
        resid = lap + r * d1 / 2.0 + (N / 2.0) * f
    else:
        d3 = deriv(3)
        bilap = deriv(4) + 4.0 * d3 / np.where(r == 0, np.nan, r)
        resid = -bilap + r * d1 / 4.0 + (N / 4.0) * f
    lo, hi = window
    mask = (r >= lo) & (r <= hi) & ~np.isnan(resid)
    if not mask.any():
        raise ValidationError("window does not intersect the table interior")
    return float(np.max(np.abs(resid[mask])))


# -- bases and duals ----------------------------------------------------------


def realization_gram(
    fields: Sequence[VectorPolyField], k: int, params: OperatorParams
) -> List[List[Fraction]]:
    """Gram of the derivative-dual pairing: G~_ij = sum_c sum_b a^i a^j b!."""
    return _gram([validate_basis_field(v, k, params) for v in fields])


def weighted_dual(basis: SolenoidalBasis) -> List[List[Fraction]]:
    """Inverse of the kernel-weighted Gram G_ij = <v*_i, v*_j F>.

    Exact for every m via kernel moments. Raises when G is singular and
    names the offending fields; for m >= 2 this happens on every odd level
    (all contributing moments vanish), where the basis's own derivative
    duals are the usable alternative.
    """
    m = basis.params.m
    n = basis.count
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = Fraction(0)
            for c in range(basis.params.N):
                s += weighted_pairing(
                    basis.fields[i].components[c], basis.fields[j].components[c], m
                )
            G[i][j] = G[j][i] = s
    if rank(G) < n:
        dep = dependent_columns(G)
        raise ValidationError(
            f"kernel-weighted Gram is singular at level {basis.level} (m={m}); "
            f"dependent fields: {dep}"
        )
    return inverse(G)


def dual_closed_form_m1(basis: SolenoidalBasis) -> List[VectorPolyField]:
    """m=1 only: W_j = 2^(-k) v*_j F, as polynomial factors of F."""
    if basis.params.m != 1:
        raise ValidationError("closed-form duals are specific to m=1")
    return [v.scale(Fraction(1, 2**basis.level)) for v in basis.fields]


def block_slices(cb: CompositeBasis) -> List[Tuple[SolenoidalBasis, slice]]:
    out, start = [], 0
    for b in cb.blocks:
        out.append((b, slice(start, start + b.count)))
        start += b.count
    return out


# -- grid fields by FFT -------------------------------------------------------


def _phase3(spec: GridSpec) -> np.ndarray:
    p = np.exp(1j * math.pi * grid._kint(spec.n) * (1.0 / spec.n - 1.0))
    return p[:, None, None] * p[None, :, None] * p[None, None, :]


def to_grid(spec: GridSpec, g: np.ndarray) -> np.ndarray:
    """Exact inverse of `to_spectral`; complex output, callers take .real."""
    return np.fft.ifftn(g * _phase3(spec)) / spec.h**3


def _synth(spec: GridSpec, spectra: Sequence[np.ndarray]) -> GridVectorField:
    """The grid field with the given component spectra."""
    out = np.empty((3,) + (spec.n,) * 3)
    for c, g in enumerate(spectra):
        out[c] = to_grid(spec, g).real
    return GridVectorField(spec, out)


def synth_weighted(v: VectorPolyField, spec: GridSpec, m: int) -> GridVectorField:
    """Grid samples of v F via its closed-form transform (all m; exact up to
    periodization and the lattice Riemann sum)."""
    return _synth(spec, weighted_transform(v, spec, m))


def synth_duals(basis: SolenoidalBasis, spec: GridSpec) -> List[GridVectorField]:
    """Grid samples of the derivative-dual fields W_j of one basis level,
    from their closed-form spectra on the frequency lattice."""
    w, _ = lattice_weight(spec, basis.params.m)
    return [
        _synth(spec, [_lattice_spectrum(H, spec, w) for H in cubes])
        for cubes in dual_cubes([basis])
    ]


def project(u: GridVectorField) -> GridVectorField:
    """Divergence-free part of u; the zero mode is left unchanged."""
    spec = u.spec
    gs = project_spectral([to_spectral(spec, u.data[c]) for c in range(3)], spec)
    out = np.empty_like(u.data)
    for c, g in enumerate(gs):
        out[c] = to_grid(spec, g).real
    return GridVectorField(spec, out)


def spectral_divergence(u: GridVectorField) -> np.ndarray:
    """div u evaluated through the frequency domain."""
    spec = u.spec
    e1, e2, e3 = _eta_axes(spec)
    gs = [to_spectral(spec, u.data[c]) for c in range(3)]
    return to_grid(spec, 1j * (e1 * gs[0] + e2 * gs[1] + e3 * gs[2])).real


def _dealias_mask(spec: GridSpec) -> np.ndarray:
    k = np.abs(grid._kint(spec.n))
    keep = k < spec.n / 3.0
    return (keep[:, None, None] & keep[None, :, None] & keep[None, None, :]).astype(float)


def convection(u: GridVectorField) -> GridVectorField:
    """(u . grad) u, pseudo-spectral with the 2/3 rule. For polynomial
    fields, whose periodized samples have no usable spectral derivative,
    sample `convection_poly` instead."""
    spec = u.spec
    mask = _dealias_mask(spec)
    e1, e2, e3 = _eta_axes(spec)
    gs = [to_spectral(spec, u.data[c]) * mask for c in range(3)]
    uf = [to_grid(spec, g).real for g in gs]
    out = []
    for i in range(3):
        acc = np.zeros((spec.n,) * 3)
        for j, ej in enumerate((e1, e2, e3)):
            acc += uf[j] * to_grid(spec, 1j * ej * gs[i]).real
        out.append(acc)
    return GridVectorField(spec, np.stack(out))


def pair_fields(a: GridVectorField, b: GridVectorField) -> float:
    """Grid quadrature of the pointwise dot product."""
    if a.spec != b.spec:
        raise ValidationError("fields live on different grids")
    return float(a.spec.h**3 * np.sum(a.data * b.data))
