"""Periodic-grid Fourier machinery: closed-form spectra on the frequency
lattice, the Leray projector there, polynomial convection, and the
quadratic interaction tensor of the coefficient dynamics.

Grid convention: cell-centered nodes x_j = -L + (j + 1/2) h with h = 2L/n on
[-L, L)^3, discrete frequencies eta_k = pi k / L for integer k in the usual
FFT ordering (0, 1, ..., n/2 - 1, -n/2, ..., -1). Fields enter in closed
form and never leave the frequency lattice: the tensor, the expansion
residuals and the projector diagnostic work on lattice spectra, and no FFT
runs.

The interaction tensor follows the adjoint arrangement: the projector
symbol is real and symmetric per mode, so the discrete Parseval identity
gives <P q, w> = <q, P w> exactly in grid arithmetic, and the projector
acts on the duals instead of on every convection product. A pairing of a
polynomial q with a projected dual then needs only the dual's grid
moments h^3 sum_y y^d (P W)_c(y), and those follow from its lattice
spectrum through per-axis tables sum_j y_j^d exp(i eta_k y_j): no FFT runs
for the tensor. Every dual spectrum is a polynomial times the weight
w = exp(-|eta|^2m), and its longitudinal (pressure) part a polynomial times
w/|eta|^2, so one lattice table per weight and grid serves every dual of
every operator order, and each dual is a small contraction of its exact
coefficients against those tables. Those coefficients and the Gram
inverses are read from the blocks of the basis (`SolenoidalBasis`), which
derives them once, when it is built.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .polynomial import CubeRows, Polynomial, VectorPolyField, evaluate_cube, row_blocks
from .solenoidal import SolenoidalBasis

# -- grid spec and transforms --------------------------------------------------


# the largest box half-width L and Nyquist frequency pi n / (2L) of a grid:
# lattice sums raise both to powers up to about 16 (moment tables, |eta|^2m,
# h^3, the verifier's image separation), and float64 overflows past 2^1024
_SCALE_MAX = 2.0**64


@dataclass(frozen=True)
class GridSpec:
    """A periodic grid: n nodes per axis on [-L, L)^3. A box whose L or
    Nyquist frequency exceeds `_SCALE_MAX` is out of floating-point range
    and refused here, before any lattice array exists."""

    L: float
    n: int

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValidationError("box half-width L must be positive and finite")
        if self.n < 16 or self.n % 2:
            raise ValidationError("n must be an even integer >= 16")
        if not (self.L <= _SCALE_MAX and math.pi * self.n / (2.0 * self.L) <= _SCALE_MAX):
            raise ValidationError(
                f"box half-width L={self.L!r} on an n={self.n} grid is out of "
                f"floating-point range: L and the Nyquist frequency "
                f"pi n / (2L) must both be at most 2^64"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    def axes(self) -> np.ndarray:
        return _axes(self.L, self.n)

    def freqs(self) -> np.ndarray:
        return _eta(self.L, self.n)

    def refined(self) -> "GridSpec":
        """The refinement grid: box and point count doubled, spacing kept."""
        return GridSpec(L=self.L * 2.0, n=self.n * 2)

    def to_json_dict(self) -> dict:
        return {"L": self.L, "n": self.n}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_CACHE: Dict[tuple, np.ndarray] = {}


def _cached(key, build):
    """The read-only array under key = (name, L, n, ...), built once. 3-D
    lattice arrays stay cached for one grid at a time: building one for
    another grid drops them, so a refined grid does not stay resident after
    its last use."""
    out = _CACHE.get(key)
    if out is None:
        out = _frozen(build())
        if out.ndim == 3:
            for k, a in list(_CACHE.items()):
                if a.ndim == 3 and k[1:3] != key[1:3]:
                    del _CACHE[k]
        _CACHE[key] = out
    return out


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits(n: float, arrays: float, what: str, dims: int = 3) -> None:
    """Refuse up front a computation whose working set, `arrays` float64
    arrays of n^dims, exceeds physical memory: lattice arrays of an n-point
    grid by default, or, with dims=1, values per point of a 1-D grid of n
    points, which `what` names."""
    try:
        need = arrays * 8.0 * float(n) ** dims
    except OverflowError:  # a count beyond the float range
        need = math.inf
    have = _physical_memory()
    if need > have:
        where = f" on an n={n} grid" if dims == 3 else ""
        raise ValidationError(
            f"{what}{where} needs about {need / 2**30:.3g} GiB, more "
            f"than the {have / 2**30:.3g} GiB of physical memory"
        )


def _axes(L: float, n: int) -> np.ndarray:
    h = 2.0 * L / n
    return _cached(("axes", L, n), lambda: -L + (np.arange(n) + 0.5) * h)


def _kint(n: int) -> np.ndarray:
    """The integer wavenumbers of an n-point axis in FFT ordering, as exact
    floats."""
    half = n // 2
    return _cached(("kint", n), lambda: np.r_[0:half, -half:0].astype(float))


def _eta(L: float, n: int) -> np.ndarray:
    return _cached(("eta", L, n), lambda: math.pi * _kint(n) / L)


def _eta_diff(L: float, n: int) -> np.ndarray:
    """Frequencies for differentiation-type symbols. The Nyquist slot holds
    both +n/2 and -n/2, so an odd symbol evaluated there is not even under
    the index mirror and would break Hermitian symmetry of real fields; the
    usual remedy is to zero it."""

    def build():
        e = _eta(L, n).copy()
        e[n // 2] = 0.0
        return e

    return _cached(("eta_diff", L, n), build)


def _eta_sq(L: float, n: int) -> np.ndarray:
    def build():
        e = _eta(L, n)
        return (
            e[:, None, None] ** 2 + e[None, :, None] ** 2 + e[None, None, :] ** 2
        )

    return _cached(("eta_sq", L, n), build)


def freq_sq(spec: GridSpec) -> np.ndarray:
    """|eta|^2 on the full frequency lattice (read-only)."""
    return _eta_sq(spec.L, spec.n)


# exp(-x) is exactly 0.0 in float64 for every x above 745.1332191019412
_EXP_ZERO = 746.0


def _runs(mask: np.ndarray) -> List[slice]:
    """The maximal runs of True in a 1-D boolean mask, as slices."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return [slice(int(lo), int(hi)) for lo, hi in zip(edges[::2], edges[1::2])]


def lattice_weight(
    spec: GridSpec, m: int, b: float = 1.0, out: np.ndarray | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """exp(-b|eta|^2m) on the frequency lattice, in `out` (default: a fresh
    array), and the live indices of a lattice axis, where it can be
    nonzero. |eta|^2m >= eta_i^2m on every axis i, so the weight is exactly
    0.0 wherever one coordinate alone has b eta_i^2m > _EXP_ZERO; the
    exponential runs only on the boxes of live indices, with the same bits
    as on the whole lattice, and makes no other lattice array."""
    if out is None:
        out = np.empty((spec.n,) * 3)
    eta_sq = freq_sq(spec)
    live = b * spec.freqs() ** (2 * m) <= _EXP_ZERO
    runs = _runs(live)
    out.fill(0.0)
    for box in itertools.product(runs, runs, runs):
        w = out[box]
        if m == 1:
            np.multiply(eta_sq[box], -b, out=w)
        else:
            np.power(eta_sq[box], m, out=w)
            w *= -b
        np.exp(w, out=w)
    return out, live


# -- closed-form transforms of poly x kernel fields ------------------------------

_Q_CACHE: Dict[tuple, Polynomial] = {}


def _q_poly(m: int, beta: Tuple[int, int, int]) -> Polynomial:
    """Real polynomial Q with d^beta exp(-|xi|^2m) = Q exp(-|xi|^2m)."""
    key = (m, beta)
    got = _Q_CACHE.get(key)
    if got is not None:
        return got
    if not any(beta):
        out = Polynomial.constant(3, 1)
    else:
        j = next(i for i, b in enumerate(beta) if b)
        prev = _q_poly(m, tuple(b - (1 if i == j else 0) for i, b in enumerate(beta)))
        r2 = Polynomial.zero(3)
        for i in range(3):
            e2 = [0, 0, 0]
            e2[i] = 2
            r2 = r2 + Polynomial.monomial(e2, 1)
        phi_j = Polynomial.variable(3, j).scale(2 * m)
        for _ in range(m - 1):
            phi_j = phi_j * r2
        out = prev.derive(tuple(1 if i == j else 0 for i in range(3))) - phi_j * prev
    _Q_CACHE[key] = out
    return out


def hermitian_transform(p: Polynomial, m: int) -> Polynomial:
    """The real H with FT[p F](xi) = exp(-|xi|^2m) sum_d i^|d| H[d] xi^d.

    Monomial rule: FT[y^gamma F] = i^|gamma| Q_gamma exp(-|xi|^2m). Every
    term xi^d of Q_gamma has the parity of |gamma|, so the phase folds in
    exactly: i^|gamma| = i^|d| (-1)^((|gamma| - |d|)/2).
    """
    out: Dict[Tuple[int, ...], Fraction] = {}
    for gamma, c in p.terms.items():
        for d, q in _q_poly(m, gamma).terms.items():
            s = c * q if (sum(gamma) - sum(d)) % 4 == 0 else -c * q
            out[d] = out.get(d, Fraction(0)) + s
    return Polynomial(p.dim, out)


def spectrum_cubes(fields: Sequence[VectorPolyField], m: int) -> np.ndarray:
    """Hermitian coefficient cubes (F, 3, D+1, D+1, D+1) of FT[v F] for
    each field v, D the largest power of any variable among them."""
    return _cubes([[hermitian_transform(p, m) for p in v.components] for v in fields])


def dual_cubes(blocks: Sequence[SolenoidalBasis]) -> np.ndarray:
    """Hermitian coefficient cubes (J, 3, D+1, D+1, D+1) of the derivative
    duals of `blocks`: FT[W_c] = (-i)^k A_c w with A_c homogeneous of degree
    k, so the Hermitian polynomial of a level-k dual is (-1)^k A_c."""
    return _cubes(
        [[p.scale((-1) ** b.level) for p in A] for b in blocks for A in b.dual_transform_polys()]
    )


def _cubes(polys: Sequence[Sequence[Polynomial]]) -> np.ndarray:
    """Coefficient cubes of `polys` (per field, per component), all with
    the largest power D of any variable among them."""
    D = max((max(d) for comps in polys for p in comps for d in p.terms), default=0)
    return np.array([[p.coeff_cube(D) for p in comps] for comps in polys])


def _lattice_spectrum(H: np.ndarray, spec: GridSpec, w: np.ndarray) -> np.ndarray:
    """w sum_d i^|d| H[d] eta^d on the frequency lattice, for a weight w."""
    out = np.zeros((spec.n,) * 3, dtype=complex)
    for part, A in zip((out.real, out.imag), hermitian_parts(H)):
        if A is not None:
            part[...] = evaluate_cube(A, [spec.freqs()] * 3)
    out *= w
    return out


def weighted_transform(v: VectorPolyField, spec: GridSpec, m: int) -> List[np.ndarray]:
    """FT[v_c F] evaluated on the frequency lattice, one complex array per
    component."""
    w, _ = lattice_weight(spec, m)
    return [_lattice_spectrum(H, spec, w) for H in spectrum_cubes([v], m)[0]]


# -- frequency-space pairings of closed-form spectra --------------------------------
#
# Every closed-form spectrum above has the shape
#     S(eta) = w(eta) sum_d i^|d| P[d] eta^d,    w = exp(-b |eta|^2m),
# with a real "Hermitian coefficient" array P[d1, d2, d3] (the rounded
# `hermitian_transform`): the phase i^|d| is what makes the field real in
# physical space. By the discrete Parseval identity the grid pairing
# h^3 sum_x f g of two lattice spectra is
# (2L)^-3 Re sum_eta F conj(G), so the pairing of two such fields is a
# finite contraction of their coefficients against the lattice moments
# sum_eta eta^n w1(eta) w2(eta), and a field is evaluated on the lattice by
# separable per-axis power sums. Neither step runs an FFT.


def _contract_axes(arr: np.ndarray, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """out[a, b, c] = sum_(i,j,k) arr[i,j,k] t1[i,a] t2[j,b] t3[k,c], one axis
    at a time. A real `arr` meets a complex t3 as two real products, so the
    large first step never makes a complex copy of it."""
    if np.iscomplexobj(t3) and not np.iscomplexobj(arr):
        t = np.tensordot(arr, t3.real, axes=([2], [0]))
        t = t + 1j * np.tensordot(arr, t3.imag, axes=([2], [0]))  # (n, n, D3)
    else:
        t = np.tensordot(arr, t3, axes=([2], [0]))
    t = np.tensordot(t, t2, axes=([1], [0]))  # (n, D3, D2)
    t = np.tensordot(t, t1, axes=([0], [0]))  # (D3, D2, D1)
    return t.transpose(2, 1, 0)


def _axis_moments(
    arr: np.ndarray, x: np.ndarray, dmax: int, tables: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """T[d1, d2, d3] = sum_(i,j,k) arr[i,j,k] x_i^d1 x_j^d2 x_k^d3 for powers
    <= dmax, by separable per-axis contractions. With one (n, X) table per
    axis, each power carries that axis's table along:
    T[d1, x1, d2, x2, d3, x3] = sum arr prod_a x^d_a tables[a][., x_a]."""
    P = np.stack([x**d for d in range(dmax + 1)], axis=1)  # (n, D)
    if tables is None:
        return _contract_axes(arr, P, P, P)
    n, D = P.shape
    X = tables[0].shape[1]
    axes = [(P[:, :, None] * E[:, None, :]).reshape(n, D * X) for E in tables]
    return _contract_axes(arr, *axes).reshape(D, X, D, X, D, X)


def lattice_moments(w: np.ndarray, spec: GridSpec, dmax: int) -> np.ndarray:
    """T[n] = sum over the frequency lattice of eta^n w(eta), |n_i| <= dmax."""
    return _axis_moments(w, spec.freqs(), dmax)


def _degree_cube(dmax: int) -> np.ndarray:
    r = np.arange(dmax + 1)
    return r[:, None, None] + r[None, :, None] + r[None, None, :]


def _i_power(deg: np.ndarray, part: str) -> np.ndarray:
    """Real or imaginary part of i^deg."""
    table = (1.0, 0.0, -1.0, 0.0) if part == "re" else (0.0, 1.0, 0.0, -1.0)
    return np.array(table)[deg % 4]


def dilate_coeffs(P: np.ndarray, sigma: float) -> np.ndarray:
    """Hermitian coefficients of S(sigma eta), given those of S(eta)."""
    return sigma ** _degree_cube(P.shape[-1] - 1) * P


def moment_pairings(
    X: np.ndarray, Y: np.ndarray, table: np.ndarray, spec: GridSpec
) -> np.ndarray:
    """(2L)^-3 Re sum_eta S_x conj(S_y) for every x in X and y in Y.

    X (F, 3, D1+1, ...) and Y (G, 3, D2+1, ...) are Hermitian coefficient
    arrays, `table` the lattice moments of the product of their two weights
    up to degree D1 + D2. With n = d + e, Re(i^|d| conj(i^|e|)) =
    Re(i^|n|) (-1)^|e|, so both phases fold into the table and Y.
    """
    D1, D2 = X.shape[-1] - 1, Y.shape[-1] - 1
    Tr = table * _i_power(_degree_cube(table.shape[-1] - 1), "re")
    i1 = np.indices((D1 + 1,) * 3).reshape(3, -1)
    i2 = np.indices((D2 + 1,) * 3).reshape(3, -1)
    H = Tr[tuple(a[:, None] + b[None, :] for a, b in zip(i1, i2))]
    Ys = Y * (-1.0) ** _degree_cube(D2)
    out = np.einsum(
        "fck,kl,gcl->fg",
        X.reshape(X.shape[0], 3, -1),
        H,
        Ys.reshape(Y.shape[0], 3, -1),
    )
    return out / (2.0 * spec.L) ** 3


def hermitian_parts(P: np.ndarray) -> Tuple[np.ndarray | None, np.ndarray | None]:
    """Coefficient cubes of the real and imaginary parts of
    sum_d i^|d| P[d] eta^d (None for a part that vanishes)."""
    deg = _degree_cube(P.shape[-1] - 1)
    out = []
    for part in ("re", "im"):
        A = P * _i_power(deg, part)
        out.append(A if A.any() else None)
    return out[0], out[1]


# -- the expansion residual ------------------------------------------------------
#
# A spectrum is given by six parts, the real and imaginary parts of its
# components, each None or a triple (rows_of, w, live): rows_of(rows) gives
# fresh values on a block of lattice rows, the weight w (if any) multiplies
# them, and a block whose rows are all dead in `live` (if any) is 0.0.


def closed_form_rows(P: np.ndarray, w: np.ndarray, live: np.ndarray, spec: GridSpec) -> list:
    """The parts of w sum_d i^|d| P_c[d] eta^d over the components c of P,
    with w and live from `lattice_weight`."""
    eta = [spec.freqs()] * 3
    return [None if A is None else (CubeRows(A, eta), w, live) for Pc in P for A in hermitian_parts(Pc)]


def sampled_rows(U: Sequence[np.ndarray]) -> list:
    """The parts of spectra held as lattice arrays, one complex array per
    component."""
    return [(lambda rows, a=a: a[rows].copy(), None, None) for Uc in U for a in (Uc.real, Uc.imag)]


def residual_norm(spec: GridSpec, data: list, model: list | None = None) -> float:
    """Grid norm of the field with spectrum `data` minus `model`: by
    Parseval, (2L)^-3 sum_eta |data - model|^2, in one sweep of row blocks.
    Each block of every part is evaluated, weighted, subtracted and squared
    while it is in cache; no lattice array is made."""
    pairs = [[p for p in pair if p is not None] for pair in zip(data, model or [None] * len(data))]
    total = 0.0
    for rows in row_blocks((spec.n,) * 3):
        for parts in pairs:
            diff = None
            for rows_of, w, live in parts:
                if live is None or live[rows].any():
                    v = rows_of(rows)
                    if w is not None:
                        v *= w[rows]
                    if diff is None:
                        diff = v
                    else:
                        diff -= v  # the sign drops out of the norm
            if diff is not None:
                # numpy's own summation, not BLAS: its order does not
                # depend on the thread count, so the bytes do not either
                total += float(np.sum(np.square(diff, out=diff)))
    return math.sqrt(total / (2.0 * spec.L) ** 3)


def parallel_map(fn: Callable, items: Sequence, workers: int | None) -> list:
    """[fn(x) for x in items] on up to `workers` threads, in input order."""
    nw = max(1, workers or 1)
    if nw > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=nw) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


# -- Leray projection and convection ---------------------------------------------


def _eta_axes(spec: GridSpec):
    e = _eta_diff(spec.L, spec.n)
    return e[:, None, None], e[None, :, None], e[None, None, :]


def _inv_eta_sq(spec: GridSpec) -> np.ndarray:
    """1/|eta|^2 with zeros wherever the differentiation frequencies vanish
    (the zero mode and pure-Nyquist modes pass through the projector)."""

    def build():
        e1, e2, e3 = _eta_axes(spec)
        r2 = e1**2 + e2**2 + e3**2
        sing = r2 == 0.0
        r2[sing] = 1.0
        inv = 1.0 / r2
        inv[sing] = 0.0
        return inv

    return _cached(("inv_eta_sq", spec.L, spec.n), build)


def _eta_dot(gs: Sequence[np.ndarray], spec: GridSpec) -> np.ndarray:
    e1, e2, e3 = _eta_axes(spec)
    return e1 * gs[0] + e2 * gs[1] + e3 * gs[2]


def project_spectral(gs: Sequence[np.ndarray], spec: GridSpec) -> Sequence[np.ndarray]:
    """Apply the solenoidal symbol I - eta eta^T/|eta|^2 per mode, in place."""
    common = _eta_dot(gs, spec) * _inv_eta_sq(spec)
    for e, g in zip(_eta_axes(spec), gs):
        g -= e * common
    return gs


def lattice_divergence(gs: Sequence[np.ndarray], spec: GridSpec) -> np.ndarray:
    """i eta . g per mode: the spectrum of the divergence of the field with
    component spectra gs, with the frequencies the projector uses."""
    return 1j * _eta_dot(gs, spec)


def convection_poly(v: VectorPolyField, w: VectorPolyField | None = None) -> VectorPolyField:
    """(v . grad) w, exact polynomial arithmetic; w defaults to v."""
    if w is None:
        w = v
    comps = []
    for i in range(3):
        acc = Polynomial.zero(3)
        for j in range(3):
            gj = [0, 0, 0]
            gj[j] = 1
            acc = acc + v.components[j] * w.components[i].derive(gj)
        comps.append(acc)
    return VectorPolyField(comps)


# -- interaction tensor -----------------------------------------------------------


@dataclass
class InteractionTensor:
    """Couplings d_{alpha gamma beta} of one basis: all three axes are
    indexed by its `labels`."""

    m: int
    N: int
    spec: GridSpec
    labels: List[Tuple[int, int]]
    values: np.ndarray  # (n, n, n)
    errors: np.ndarray
    refined: dict = field(default_factory=dict)

    def max_error(self) -> float:
        return float(np.max(self.errors)) if self.errors.size else 0.0

    def flagged(self, tol: float = 1e-3) -> List[Tuple[int, int, int]]:
        """Index triples whose refinement disagreement exceeds tol (absolute,
        or relative for entries above 1): these pairings are box-sensitive
        and their values should not be trusted beyond the error bar."""
        scale = np.maximum(1.0, np.abs(self.values))
        bad = np.argwhere(self.errors > tol * scale)
        return [tuple(map(int, t)) for t in bad]

    def to_json_dict(self) -> dict:
        labs = self.labels
        triples = [
            {
                "alpha": list(labs[a]),
                "gamma": list(labs[g]),
                "beta": list(labs[b]),
                "value": float(self.values[a, g, b]),
                "error": float(self.errors[a, g, b]),
            }
            for a, g, b in np.ndindex(self.values.shape)
        ]
        return {
            "m": self.m,
            "N": self.N,
            "grid": self.spec.to_json_dict(),
            "refined": self.refined,
            "entries": triples,
        }


def _degree(p: Polynomial) -> int:
    d = p.degree()
    return int(d) if d != -math.inf else 0


def _y_moments(spec: GridSpec, dmax: int) -> np.ndarray:
    """E[k, d] = sum_j y_j^d exp(i eta_k y_j), shape (n, dmax + 1): the
    per-axis table that takes a lattice spectrum F of a field f to its
    moments, h^3 sum_y y^d f(y) = n^-3 Re sum_eta F prod_axes E.

    The phases are reduced exactly: eta_k y_j = pi k (2j + 1 - n) / n, and
    the index k (2j + 1 - n) is taken mod 2n in integers before `exp`."""
    n = spec.n
    k = _kint(n).astype(np.int64)
    r = np.outer(k, 2 * np.arange(n) + 1 - n) % (2 * n)
    phase = np.exp(1j * math.pi * np.arange(2 * n) / n)
    Y = np.stack([spec.axes() ** d for d in range(dmax + 1)], axis=1)
    return phase[r] @ Y


def _divergence_poly(A: Sequence[Polynomial]) -> Polynomial:
    """sigma = sum_c xi_c A_c, exact: eta . FT[W] = (-i)^k sigma w."""
    out = Polynomial.zero(3)
    for c, p in enumerate(A):
        out = out + Polynomial.variable(3, c) * p
    return out


def interaction_tensor(basis, spec: GridSpec, refine: bool = True) -> InteractionTensor:
    """Quadratic coupling d_{alpha gamma beta} of the coefficient dynamics
    over `basis`.

    For each (alpha, gamma) the convection q = (v*_alpha . grad) v*_gamma
    is built symbolically and paired against every projected
    derivative-dual field P W_j of the blocks of `basis` (the projector
    moves onto the duals by the discrete Parseval identity). The
    pairings are the grid quadratures h^3 sum_y q(y) . (P W_j)(y), i.e.
    contractions of q's coefficients with the moments
    h^3 sum_y y^d (P W_j)_c(y), and those moments come straight from the
    lattice spectrum through the per-axis tables E of `_y_moments`: no FFT
    runs and no grid field is stored. They split in two parts, each a
    polynomial in eta times a weight, and each weight is contracted once
    per grid against the per-axis tables eta^d E:

    - the unprojected dual, W_c = (-i)^k A_c w with w = exp(-|eta|^2m);
    - the longitudinal part eta_c (-i)^k sigma_j w / |eta|^2, with
      sigma_j = sum_c xi_c A_c, from one table of w / |eta|^2 per
      component c. This is where the pressure acts; sigma_j is zero,
      exactly, for the divergence-free duals.

    Each dual is then a contraction of the real coefficients of A_c and
    sigma_j against those tables, times (-i)^k; nothing depends on m but
    the weight, and no lattice array is built per dual.

    The pairings are mapped to coefficients by the block-diagonal assembly
    of the blocks' exact Gram inverses, with an overall minus sign from the
    convection side of the dynamics. The tensor covers m=1, the
    Navier-Stokes dynamics, or a single dual block; other operator orders
    over several levels raise, and so does a grid whose lattice arrays
    would not fit in physical memory, before any is built. `refine`
    repeats the computation with both box and point count doubled (fixed
    spacing); the per-entry error
    estimate is twice the disagreement, which makes box sensitivity
    directly visible: entries whose pairing integrals converge slowly, or
    not at all, carry error bars of their own size rather than a false
    precision. A box so small or so large that a value or an error is not
    finite raises, naming L and n.
    """
    params = basis.params
    if params.m != 1 and len(basis.blocks) > 1:
        raise ValidationError(
            f"the interaction tensor over several levels covers m=1 only, "
            f"got m={params.m} with {len(basis.blocks)} dual blocks"
        )
    # the refined grid is refused, like the given one, before any lattice
    # work; |eta|^2, w, 1/|eta|^2, w/|eta|^2 and transients at the finest grid
    sp_fine = spec.refined() if refine else None
    check_fits(2 * spec.n if refine else spec.n, 6, "the interaction tensor")
    fields, count = basis.fields, basis.count
    ginv = np.zeros((count, count))
    start = 0
    for b in basis.blocks:
        stop = start + b.count
        ginv[start:stop, start:stop] = np.array(b.gram_inv, dtype=float)
        start = stop
    # exact per-dual data: the phase (-i)^k of FT[W_j] = (-i)^k A_j w, and
    # the real coefficient cubes of every A_jc and of the divergence symbol
    # sigma_j = sum_c xi_c A_jc, powers up to D
    duals = [(b.level, A) for b in basis.blocks for A in b.dual_transform_polys()]
    phase = np.array([(-1j) ** k for k, _ in duals])[:, None, None, None, None]
    cubes = _cubes([A + [_divergence_poly(A)] for _, A in duals])
    A, sig, D = cubes[:, :3], cubes[:, 3], cubes.shape[-1] - 1
    qs = [[convection_poly(va, vg) for vg in fields] for va in fields]
    dmax = max(_degree(p) for row in qs for q in row for p in q.components)

    def compute(sp: GridSpec) -> np.ndarray:
        eta = sp.freqs()
        E = _y_moments(sp, dmax)
        w, _ = lattice_weight(sp, params.m)
        # sum_eta FT[W_jc] prod_axes E, from one table of w per grid
        t = np.einsum("jcabd,axbydz->jcxyz", A, _axis_moments(w, eta, D, (E, E, E)))
        # minus the longitudinal part eta_c sigma_j w / |eta|^2 (the
        # pressure), from one table of w / |eta|^2 per component c
        etaE = _eta_diff(sp.L, sp.n)[:, None] * E
        w_inv = w * _inv_eta_sq(sp)
        for c in range(3):
            U = _axis_moments(w_inv, eta, D, [etaE if a == c else E for a in range(3)])
            t[:, c] -= np.einsum("jabd,axbydz->jxyz", sig, U)
        tables = (phase * t).real / sp.n**3
        raw = np.zeros((count, count, count))
        for a, g in np.ndindex(count, count):
            for c, p in enumerate(qs[a][g].components):
                for gamma, coef in p.terms.items():
                    raw[a, g] += float(coef) * tables[(slice(None), c) + gamma]
        return -np.einsum("agj,bj->agb", raw, ginv)

    coarse = compute(spec)
    if refine:
        fine = compute(sp_fine)
        values = fine
        errors = 2.0 * np.abs(fine - coarse)
        refined = sp_fine.to_json_dict()
    else:
        values = coarse
        errors = np.zeros_like(coarse)
        refined = {}
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(errors))):
        raise ValidationError(
            f"the interaction tensor is not finite on the L={spec.L!r}, "
            f"n={spec.n} grid: the box is out of floating-point range"
        )
    return InteractionTensor(
        m=params.m, N=params.N, spec=spec, labels=basis.labels, values=values, errors=errors,
        refined=refined,
    )
