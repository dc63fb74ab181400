"""Reference implementations the tests compare the library against.

None of these is used by the package or the CLI. Each is an independent
route to a number the library computes another way: grid fields sampled
pointwise or synthesized by inverse FFT, transformed by FFT and paired by
grid quadrature, the Leray projector and the pseudo-spectral convection
applied through FFT round trips, the kernel-weighted Gram inverse, the
closed-form Gaussian kernel and its radial ODE residual, the pinned
envelope fit by scipy's MINPACK Levenberg-Marquardt, the operator B in its expanded and
divergence forms, the grid L2 norm, finite-difference weights from a
Vandermonde solve, the Hausdorff distance between nodal point clouds by
scipy's k-d tree, zero-type classification with stencil sums accumulated
in `Fraction`s, and the Galerkin trajectory
integrated by scipy's RK45 with its Duhamel residual by scipy's cumulative
Simpson rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from hermflow import grid
from hermflow.dynamics import Expansion, ZeroType, _decay_rate
from hermflow.errors import EmptyCloudError, ValidationError
from hermflow.grid import (
    GridSpec,
    InteractionTensor,
    _eta_axes,
    _lattice_spectrum,
    dual_cubes,
    lattice_weight,
    project_spectral,
    weighted_transform,
)
from hermflow.kernel import KernelTable
from hermflow.moments import moment_of_poly
from hermflow.multiindex import MultiIndex, enumerate_level, unit
from hermflow.operators import OperatorParams, euler_degree_op
from hermflow.polynomial import Polynomial, VectorPolyField, laplacian
from hermflow.rational_linalg import dependent_columns, inverse, rref
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


@lru_cache(maxsize=128)
def fd_weights(offsets: Tuple[int, ...], order: int) -> Tuple[Fraction, ...]:
    """Exact finite-difference weights for the order-th derivative at 0 on
    integer offsets, exact on polynomials of degree < len(offsets): the
    solution of the Vandermonde moment system sum_j w_j o_j^i = order! [i ==
    order], by `rref`. Cached, since the oracles reuse a dozen or so
    stencils hundreds of times; the tuple may be shared."""
    n = len(offsets)
    if order >= n:
        raise ValueError("stencil too short for derivative order")
    aug = [
        [Fraction(o) ** i for o in offsets] + [Fraction(math.factorial(order) if i == order else 0)]
        for i in range(n)
    ]
    R, pivots = rref(aug)
    assert pivots == list(range(n))  # distinct offsets: the system is regular
    return tuple(row[n] for row in R)


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


def pinned_fit_scipy(r: np.ndarray, logr: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The (c, d0, alpha) of `kernel._pinned_fit` by scipy's
    `least_squares(method="lm")` from the same start: MINPACK, which stops
    at its default xtol = 1e-8 rather than at roundoff."""
    from scipy.optimize import least_squares

    sol = least_squares(lambda q: q[0] - q[1] * r ** q[2] - target, x0=[0.0, 0.5, 1.5], method="lm")
    assert sol.success
    return sol.x


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


@dataclass
class GridVectorField:
    """Samples of a 3-vector field."""

    spec: GridSpec
    data: np.ndarray  # shape (3, n, n, n)

    def __post_init__(self):
        n = self.spec.n
        if self.data.shape != (3, n, n, n):
            raise ValidationError("grid data must have shape (3, n, n, n)")


def sample(v: VectorPolyField, spec: GridSpec) -> GridVectorField:
    """Pointwise evaluation of a polynomial field on the grid."""
    ax = spec.axes()
    comps = [p.evaluate_grid([ax, ax, ax]) for p in v.components]
    return GridVectorField(spec, np.stack(comps))


def to_spectral(spec: GridSpec, f: np.ndarray) -> np.ndarray:
    """Riemann-sum approximation of int f(y) exp(-i y.eta) dy per mode.

    The nodes start at -L + h/2, so the FFT carries the phase
    exp(-i eta_k (h/2 - L)) per axis; it is applied one axis at a time, in
    place, and no complex lattice array besides the result is made."""
    out = np.fft.fftn(f)
    phase = np.exp(-1j * math.pi * grid._kint(spec.n) * (1.0 / spec.n - 1.0))
    out *= (spec.h**3 * phase)[:, None, None]
    out *= phase[None, :, None]
    out *= phase[None, None, :]
    return out


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


def norm(u: GridVectorField) -> float:
    """Grid L2 norm: sqrt(h^3 sum |u|^2)."""
    return float(math.sqrt(u.spec.h**3 * np.sum(u.data**2)))


# -- nodal sets ----------------------------------------------------------------


def hausdorff(cloud_a: np.ndarray, cloud_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point clouds, by scipy's
    k-d tree: the cloud-to-cloud figure `nodal_compare` replaced."""
    from scipy.spatial import cKDTree

    a, b = np.asarray(cloud_a, float), np.asarray(cloud_b, float)
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloudError("empty nodal cloud: Hausdorff distance undefined")
    d_ab = float(np.max(cKDTree(b).query(a)[0]))
    d_ba = float(np.max(cKDTree(a).query(b)[0]))
    return max(d_ab, d_ba)


# -- zero-type classification -------------------------------------------------


def fraction_classify_zero(
    sampler: Callable,
    max_order: int = 6,
    delta: float = 0.125,
    threshold: float = 1e-7,
) -> ZeroType:
    """Vanishing orders of a space-time zero at (x, t) = (0, 0^-).

    M is the smallest total spatial order with a nonvanishing mixed
    difference of u(., 0) at 0; K the smallest temporal order from
    one-sided differences of u(0, .) into t <= 0. Stencils use exact
    rational weights on 2*max_order+1 nodes and the accumulation is done
    in exact rational arithmetic over the sampled values, so differences
    of polynomial samplers that should vanish do so exactly; `threshold`
    (relative to the largest sampled magnitude) only matters for
    transcendental samplers. The spacing `delta` must be positive, so that
    the temporal stencil stays in t <= 0; it defaults to an exact binary
    fraction for the same reason.
    """
    if max_order < 1:
        raise ValidationError("max_order must be >= 1")
    if not delta > 0.0:
        raise ValidationError(f"stencil spacing delta must be positive, got {delta!r}")
    r = max_order
    cache: Dict[Tuple[float, float, float, float], np.ndarray] = {}

    def val(ix: int, iy: int, iz: int, jt: int) -> np.ndarray:
        key = (ix * delta, iy * delta, iz * delta, jt * delta)
        got = cache.get(key)
        if got is None:
            got = np.atleast_1d(np.asarray(sampler((key[0], key[1], key[2]), key[3]), float))
            cache[key] = got
        return got

    # probe the full stencil lattice once for the normalization scale
    for i in range(-r, r + 1):
        val(i, 0, 0, 0), val(0, i, 0, 0), val(0, 0, i, 0)
    for j in range(0, 2 * r + 1):
        val(0, 0, 0, -j)
    umax = max(float(np.max(np.abs(v))) for v in cache.values())
    if umax == 0.0:
        return ZeroType(None, None, None, "", "zero-field")
    if float(np.max(np.abs(val(0, 0, 0, 0)))) > threshold * umax:
        raise ValidationError("sampled field does not vanish at the base point")

    ncomp = len(val(0, 0, 0, 0))
    axis_nodes = tuple(range(-r, r + 1))

    def spatial_diff(sigma: Tuple[int, int, int]) -> List[Fraction]:
        per_axis = [
            list(zip(axis_nodes, fd_weights(axis_nodes, s))) if s else [(0, Fraction(1))]
            for s in sigma
        ]
        acc = [Fraction(0)] * ncomp
        for n1, w1 in per_axis[0]:
            for n2, w2 in per_axis[1]:
                for n3, w3 in per_axis[2]:
                    w = w1 * w2 * w3
                    if not w:
                        continue
                    u = val(n1, n2, n3, 0)
                    for c in range(ncomp):
                        acc[c] += w * Fraction(float(u[c]))
        return acc

    M = None
    for s in range(1, max_order + 1):
        hit = False
        for sigma in enumerate_level(s, 3):
            dif = spatial_diff(tuple(sigma))
            if any(abs(float(x)) > threshold * umax for x in dif):
                hit = True
                break
        if hit:
            M = s
            break
    if M is None:
        return ZeroType(None, None, None, "", "order-exceeds-bound")

    t_nodes = tuple(range(-2 * r, 1))  # t = j*delta, one-sided into t <= 0
    K = None
    for q in range(1, max_order + 1):
        w = fd_weights(t_nodes, q)
        acc = [Fraction(0)] * ncomp
        for node, wj in zip(t_nodes, w):
            if not wj:
                continue
            u = val(0, 0, 0, node)
            for c in range(ncomp):
                acc[c] += wj * Fraction(float(u[c]))
        if any(abs(float(x)) > threshold * umax for x in acc):
            K = q
            break
    if K is None:
        return ZeroType(M, None, None, "", "temporal-degenerate")
    gamma = Fraction(K, M)
    rescale = f"z = x / (-t)^({gamma.numerator}/{gamma.denominator})"
    return ZeroType(M, K, gamma, rescale, "classified")


# -- Galerkin integration -------------------------------------------------------


def galerkin_rhs(e0: Expansion, tensor: InteractionTensor) -> Tuple[Callable, np.ndarray]:
    """The right-hand side (t, c) -> lam c + d(c, c) of the Galerkin system
    of `dynamics.nse_galerkin`, and its linear rates lam."""
    lam = np.array([_decay_rate(e0.basis.params.m, k) for k, _ in e0.labels])
    d = tensor.values
    return (lambda _t, c: lam * c + np.einsum("agb,a,g->b", d, c, c)), lam


def galerkin_scipy(e0: Expansion, tensor: InteractionTensor, tau_end: float, rtol: float,
                   n_out: int) -> dict:
    """The Galerkin system of `dynamics.nse_galerkin` integrated by scipy's
    `solve_ivp(method="RK45", dense_output=True)`, sampled at the same output
    times, with the Duhamel residual cumulated by scipy's `cumulative_simpson`.
    Returns the scipy result `sol`, the output times, the coefficient rows
    and the residual (None when the run stopped early)."""
    from scipy.integrate import cumulative_simpson, solve_ivp

    rhs, lam = galerkin_rhs(e0, tensor)
    d = tensor.values
    c0 = e0.vector()
    with np.errstate(all="ignore"):
        sol = solve_ivp(rhs, (0.0, tau_end), c0, method="RK45", rtol=rtol,
                        atol=rtol * 1e-4, dense_output=True)
    out = {"sol": sol, "taus": None, "C": None, "residual": None}
    if len(sol.t) < 2:
        return out
    taus = np.linspace(0.0, tau_end, n_out)
    taus = taus[taus <= float(sol.t[-1]) + 1e-12]
    C = sol.sol(taus).T
    out.update(taus=taus, C=C)
    if sol.success and len(taus) > 2:
        s = np.linspace(taus[0], taus[-1], 4 * (len(taus) - 1) + 1)
        Cs = sol.sol(s).T
        W = np.exp(-np.outer(s, lam)) * np.einsum("agb,ta,tg->tb", d, Cs, Cs)
        I = cumulative_simpson(W, x=s, axis=0, initial=0.0)
        duh = np.exp(np.outer(taus, lam)) * (c0[None, :] + I[::4])
        out["residual"] = float(np.max(np.abs(C - duh)))
    return out
