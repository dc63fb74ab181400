"""Fourier machinery on the frequency lattice eta_k = pi k / L of the box
[-L, L)^3: closed-form spectra, the Leray projector there, polynomial
convection, and the quadratic interaction tensor of the coefficient
dynamics. Fields enter in closed form and never leave the lattice: the
tensor and the semigroup verifier's pairings and residuals are contractions
of exact coefficients against lattice moment tables, the projector
diagnostic sweeps lattice spectra, and no FFT runs. Every sum stops where
the weight exp(-b|eta|^2m) underflows, at the live prefix of each axis
(`_live_eta`), which depends on L, m and b alone; the verifier sums over
the whole lattice pi Z^3 / L up to it.

The tensor and the projector diagnostic work on a periodic grid
(`GridSpec`): nodes x_j = -L + (j + 1/2) h, h = 2L/n, and the n
frequencies of its lattice in FFT order (0, 1, ..., n/2 - 1, -n/2, ..., -1).
Their lattice arrays are even in each coordinate and held on the octant
|k_i| = 0..n/2, a weight on its live box: their sums contract it with
per-axis tables folded over k and -k (`_fold`), and the projector
diagnostic copies a block of its rows into FFT order by index.

The interaction tensor follows the adjoint arrangement: the projector
symbol is real and symmetric per mode, so the discrete Parseval identity
gives <P q, w> = <q, P w> exactly in grid arithmetic, and the projector
acts on the duals instead of on every convection product. A pairing of a
polynomial q with a projected dual then needs only the dual's grid
moments h^3 sum_y y^d (P W)_c(y), and those follow from its lattice
spectrum through per-axis tables sum_j y_j^d exp(i eta_k y_j): no FFT runs
for the tensor. Every dual spectrum is a polynomial times the weight
w = exp(-|eta|^2m), and its longitudinal (pressure) part a polynomial times
w/|eta|^2, so one octant table per weight and grid serves every dual of
every operator order, and each dual is a small contraction of its exact
coefficients against those tables. Those coefficients and the Gram
inverses are read from the blocks of the basis (`SolenoidalBasis`), which
derives them once, when it is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ._lazy import np
from .errors import ValidationError, check_fits
from .polynomial import Polynomial, VectorPolyField, evaluate_cube, row_blocks

if TYPE_CHECKING:
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
    """The read-only per-axis array under key = (name, L, n, ...), built
    once."""
    out = _CACHE.get(key)
    if out is None:
        out = _CACHE[key] = _frozen(build())
    return out


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
    k -> -k and would break Hermitian symmetry of real fields; the
    usual remedy is to zero it."""

    def build():
        e = _eta(L, n).copy()
        e[n // 2] = 0.0
        return e

    return _cached(("eta_diff", L, n), build)


# exp(-x) is exactly 0.0 in float64 for every x above 745.1332191019412
_EXP_ZERO = 746.0


def _live_bound(L: float, m: int, b: float) -> int:
    """More lattice indices k = 0, 1, ... than have b (pi k / L)^2m <=
    `_EXP_ZERO`: the closed-form edge plus a margin for rounding."""
    return int(L / math.pi * (_EXP_ZERO / b) ** (0.5 / m)) + 2


def _live_eta(L: float, m: int, b: float, n: int | None = None) -> np.ndarray:
    """eta_k = pi k / L for k = 0, 1, ... while b eta_k^2m <= `_EXP_ZERO`:
    past it exp(-b eta^2m) underflows to 0.0 on one axis alone, and so does
    every weight exp(-b|eta|^2m) with a coordinate there. An n-point grid
    keeps its octant, the first n/2 + 1 at most: pi k / L rounds the same
    way for k and -k, so |eta| at FFT index i is this at |k_i|, bit for
    bit, and so is every even function of eta computed from it."""
    size = _live_bound(L, m, b)
    if n is not None:
        size = min(size, n // 2 + 1)
    e = math.pi * np.arange(size) / L
    return e[: int(np.count_nonzero(b * e ** (2 * m) <= _EXP_ZERO))]


def octant_weight(L: float, m: int, b: float = 1.0, n: int | None = None) -> np.ndarray:
    """exp(-b|eta|^2m) on the live box of the nonnegative octant of the
    frequency lattice: the prefix indices 0..live-1 of every axis
    (`_live_eta`, cut to the octant of an n-point grid when n is given),
    the array's shape (live,)*3. |eta|^2m >= eta_i^2m on every axis i, so
    the weight is exactly 0.0 past the box, and the box holds the same
    bits as the exponential of the whole lattice there. |eta|^2 is summed
    on the box from the per-axis prefix, and every later step runs in
    place: the box is the only 3-D array made."""
    e = _live_eta(L, m, b, n)
    w = e[:, None, None] ** 2 + e[None, :, None] ** 2 + e[None, None, :] ** 2
    if m > 1:
        np.power(w, m, out=w)
    w *= -b
    return np.exp(w, out=w)


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
    return np.array([[p.coeff_cube((D + 1,) * 3) for p in comps] for comps in polys])


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
# sum_eta eta^n w1(eta) w2(eta), where w1 w2 = exp(-(b1 + b2) |eta|^2m) is
# one weight again (`weight_moments`), a squared norm is the pairing of a
# field with itself, and a field is evaluated on the lattice by separable
# per-axis power sums. Neither step runs an FFT.


def _contract_axes(arr: np.ndarray, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """out[a, b, c] = sum_(i,j,k) arr[i,j,k] t1[i,a] t2[j,b] t3[k,c], one axis
    at a time. A real `arr` meets a complex t3 as two real products, so the
    large first step never makes a complex copy of it."""
    if np.iscomplexobj(t3) and not np.iscomplexobj(arr):
        t = np.tensordot(arr, t3.real, axes=([2], [0]))
        t = t + 1j * np.tensordot(arr, t3.imag, axes=([2], [0]))  # (N1, N2, D3)
    else:
        t = np.tensordot(arr, t3, axes=([2], [0]))
    t = np.tensordot(t, t2, axes=([1], [0]))  # (N1, D3, D2)
    t = np.tensordot(t, t1, axes=([0], [0]))  # (D3, D2, D1)
    return t.transpose(2, 1, 0)


def _fold(t: np.ndarray) -> np.ndarray:
    """A per-axis table t of an n-point grid, rows k in FFT order, folded
    over k and -k onto the octant indices |k| = 0..n/2: rows 1..n/2-1 each
    add their partner row n-k, and rows 0 and n/2 (the Nyquist row) are
    taken once. The sum over an axis of an even array times t is the sum
    over its octant times the fold."""
    h = t.shape[0] // 2
    out = t[: h + 1].copy()
    out[1:h] += t[:h:-1]
    return out


def _axis_moments(
    octant: np.ndarray, x: np.ndarray, dmax: int, tables: Sequence[np.ndarray]
) -> np.ndarray:
    """T[d1, x1, d2, x2, d3, x3] = sum a prod_a x^d_a tables[a][., x_a]
    over the lattice of a grid, powers <= dmax, x and the (n, X) tables in
    FFT order, for an array a even in each coordinate given by a prefix box
    of its octant: the box against the first rows of the folded tables."""
    live = octant.shape[0]
    P = np.stack([x**d for d in range(dmax + 1)], axis=1)  # (n, D)
    n, D = P.shape
    X = tables[0].shape[1]
    axes = [_fold((P[:, :, None] * E[:, None, :]).reshape(n, D * X))[:live] for E in tables]
    return _contract_axes(octant, *axes).reshape(D, X, D, X, D, X)


def _axis_powers(e: np.ndarray, dmax: int) -> np.ndarray:
    """F[k, d] = eta^d summed over the lattice wavenumbers +k and -k of
    one axis, for the live prefix e = eta_0, eta_1, ... and d <= dmax: row
    0 is taken once, and a row k >= 1 is e^d + (-e)^d, exactly 2 e^d for
    an even d and exactly 0.0 for an odd one. The sum over an axis of an
    even array times eta^d is the sum over its prefix times F."""
    F = np.stack([e**d for d in range(dmax + 1)], axis=1)
    F[1:, 1::2] = 0.0
    F[1:, ::2] *= 2.0
    return F


def weight_moments(L: float, m: int, b: float, dmax: int) -> np.ndarray:
    """T_b[n] = sum over the frequency lattice pi Z^3 / L of
    eta^n exp(-b|eta|^2m), |n_i| <= dmax, cut only where the weight
    underflows: the per-axis power table of the live prefix
    (`_axis_powers`) meets the weight, so the odd moments are exactly 0.0.
    The product of two weights is the weight of the summed exponents, so
    the pairing of spectra with weights b1 and b2 reads T_(b1+b2). At m=1
    the weight factors over the axes, exp(-b|eta|^2) = prod_i exp(-b eta_i^2),
    and T_b is the outer product of one per-axis sum, one elementwise
    `np.einsum` (no BLAS): no 3-D array is made. At m >= 2 the live box of
    the weight (`octant_weight`) meets the power table on each axis."""
    e = _live_eta(L, m, b)
    F = _axis_powers(e, dmax)
    if m > 1:
        return _contract_axes(octant_weight(L, m, b), F, F, F)
    t = np.einsum("kd,k->d", F, np.exp(e**2 * -b))
    return t[:, None, None] * t[None, :, None] * t[None, None, :]


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


def moment_pairings(X: np.ndarray, Y: np.ndarray, table: np.ndarray, L: float) -> np.ndarray:
    """(2L)^-3 Re sum_eta S_x conj(S_y) for every x in X and y in Y, on the
    lattice of the box [-L, L)^3.

    X (F, 3, D1+1, ...) and Y (G, 3, D2+1, ...) are Hermitian coefficient
    arrays, `table` the lattice moments of the product of their two weights
    (`weight_moments`) up to degree D1 + D2 or beyond. With n = d + e,
    Re(i^|d| conj(i^|e|)) = Re(i^|n|) (-1)^|e|, so both phases fold into
    the table and Y, and the pairing table H[d, e] = Tr[d + e] is a window
    view of the phased table. X meets H first and the product meets Y,
    two elementwise `np.einsum` passes (no BLAS, so no thread count
    reaches the bytes) of F 3 K^3 J^3 and F 3 J^3 G multiply-adds, with
    K = D1 + 1 and J = D2 + 1.
    """
    K, J = X.shape[-1], Y.shape[-1]
    Tr = table * _i_power(_degree_cube(table.shape[-1] - 1), "re")
    H = np.lib.stride_tricks.sliding_window_view(Tr, (J,) * 3)[:K, :K, :K].reshape(K**3, J**3)
    Ys = Y * (-1.0) ** _degree_cube(J - 1)
    XH = np.einsum("fck,kl->fcl", X.reshape(X.shape[0], 3, -1), H)
    out = np.einsum("fcl,gcl->fg", XH, Ys.reshape(Y.shape[0], 3, -1))
    return out / (2.0 * L) ** 3


def hermitian_parts(P: np.ndarray) -> Tuple[np.ndarray | None, np.ndarray | None]:
    """Coefficient cubes of the real and imaginary parts of
    sum_d i^|d| P[d] eta^d (None for a part that vanishes)."""
    deg = _degree_cube(P.shape[-1] - 1)
    out = []
    for part in ("re", "im"):
        A = P * _i_power(deg, part)
        out.append(A if A.any() else None)
    return out[0], out[1]


# -- Leray projection and convection ---------------------------------------------


def _inv_eta_sq(spec: GridSpec, live: int) -> np.ndarray:
    """1/|eta|^2 on the live box (live,)*3 of the octant (`octant_weight`),
    with zeros wherever the differentiation frequencies vanish (the zero
    mode and pure-Nyquist modes pass through the projector); `_eta_diff` is
    even up to sign, 0 at the Nyquist index. Built afresh: each element is
    the one the whole octant holds there."""
    e = _eta_diff(spec.L, spec.n)[:live]
    r2 = e[:, None, None] ** 2 + e[None, :, None] ** 2 + e[None, None, :] ** 2
    sing = r2 == 0.0
    r2[sing] = 1.0
    inv = 1.0 / r2
    inv[sing] = 0.0
    return inv


def _projector_sums(u: Sequence, e: Sequence[np.ndarray], inv: np.ndarray) -> np.ndarray:
    """|P u|^2, |P P u - P u|^2 and |eta . P u|^2 summed by numpy (not
    BLAS) over a block of one part u of a spectrum, with the symbol
    P = I - eta eta^T/|eta|^2 of frequencies e and 1/|eta|^2 = inv: it is
    real, so it acts on the real and the imaginary part alone."""

    def project(u):
        common = (e[0] * u[0] + e[1] * u[1] + e[2] * u[2]) * inv
        return [uc - ec * common for ec, uc in zip(e, u)]

    pu = project(u)
    ppu = project(pu)
    div = e[0] * pu[0] + e[1] * pu[1] + e[2] * pu[2]
    return np.array([
        sum(np.sum(np.square(a)) for a in pu),
        sum(np.sum(np.square(b - a)) for a, b in zip(pu, ppu)),
        np.sum(np.square(div)),
    ])


def projector_norms(v: VectorPolyField, spec: GridSpec, m: int) -> Tuple[float, float, float]:
    """Grid norms of P u, P P u - P u and div P u for u = v F, with P the
    Leray projector where the tensor applies it (`_eta_diff`, and
    `_inv_eta_sq` on the live box): by Parseval,
    ((2L)^-3 sum_eta |.|^2)^(1/2), in one sweep of row blocks over the
    lattice points where the weight is live, every |k_i| below the side of
    its box (`octant_weight`); it is 0.0 elsewhere. Each block evaluates every part of the closed-form spectrum
    of u afresh (`evaluate_cube`), times the block's rows of the weight,
    and projects it with the block's rows of 1/|eta|^2; both are index
    copies of their live boxes at |k|, so they carry the bits of the
    whole-lattice arrays. No lattice array is made."""
    w = octant_weight(spec.L, m, n=spec.n)
    n, live = spec.n, w.shape[0]
    # the FFT indices of the live wavenumbers, in FFT order, and their |k|
    idx = np.flatnonzero(np.abs(_kint(n)) < live)
    k = np.abs(_kint(n)[idx]).astype(int)
    inv, e, eta = _inv_eta_sq(spec, live), _eta_diff(spec.L, n)[idx], spec.freqs()[idx]
    # the real and the imaginary parts of the three components
    parts = list(zip(*[hermitian_parts(H) for H in spectrum_cubes([v], m)[0]]))
    sums = np.zeros(3)
    for rows in row_blocks((len(idx),) * 3):
        wr, ir = (octant[k[rows]][:, k][:, :, k] for octant in (w, inv))
        er = (e[rows, None, None], e[None, :, None], e[None, None, :])
        for comps in parts:
            u = [0.0 if A is None else evaluate_cube(A, [eta[rows], eta, eta]) * wr for A in comps]
            sums += _projector_sums(u, er, ir)
    return tuple(math.sqrt(t / (2.0 * spec.L) ** 3) for t in sums)


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


# README criterion 6: a coupling is flagged when its refinement error estimate
# exceeds this, absolutely or, for entries above 1, relative to the entry
_FLAG_TOL = 1e-3


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

    def flagged(self) -> List[Tuple[int, int, int]]:
        """Index triples whose refinement disagreement exceeds `_FLAG_TOL`:
        these pairings are box-sensitive and their values should not be
        trusted beyond the error bar."""
        scale = np.maximum(1.0, np.abs(self.values))
        bad = np.argwhere(self.errors > _FLAG_TOL * scale)
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


def _tensor_arrays(basis, n: int) -> int:
    """Float64 values at the peak of `interaction_tensor` over
    `basis` on an n-point grid, an upper bound: four octants (the weight,
    1/|eta|^2 with |eta|^2 and the mask of its zeros, the transients of its
    build, and the weight over |eta|^2), the first two contractions of
    `_axis_moments`, the moment and per-dual tables, and 256 values per
    pair of labels for the float terms of the convections. A top level K
    bounds the powers: D <= K+1 and dmax <= 2K-1, so C = (D+1)(dmax+1)
    columns per folded axis table."""
    K = max(b.level for b in basis.blocks)
    X = max(1, 2 * K)
    C, h = (K + 2) * X, n // 2 + 1
    return (4 * h**3 + 5 * h**2 * C + 4 * h * C**2 + 4 * C**3 + 15 * basis.count * X**3
            + 256 * basis.count**2)


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
    # work
    sp_fine = spec.refined() if refine else None
    n_max = 2 * spec.n if refine else spec.n
    check_fits(_tensor_arrays(basis, n_max), f"the interaction tensor on an n={n_max} grid")
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
    # per pair (alpha, gamma), row-major: the float terms (component,
    # exponent, coefficient) of q = (v*_alpha . grad) v*_gamma, in the order
    # of its exact terms; the exact convections are not kept
    qterms = [
        [(c, beta, float(coef)) for c, p in enumerate(convection_poly(va, vg).components)
         for beta, coef in p.terms.items()]
        for va in fields for vg in fields
    ]
    dmax = max((sum(beta) for terms in qterms for _, beta, _ in terms), default=0)

    def compute(sp: GridSpec) -> np.ndarray:
        eta = sp.freqs()
        E = _y_moments(sp, dmax)
        w = octant_weight(sp.L, params.m, n=sp.n)
        live = w.shape[0]
        # sum_eta FT[W_jc] prod_axes E, from one table of w per grid
        t = np.einsum("jcabd,axbydz->jcxyz", A, _axis_moments(w, eta, D, (E, E, E)))
        # minus the longitudinal part eta_c sigma_j w / |eta|^2 (the
        # pressure), from one table of w / |eta|^2 per component c
        etaE = _eta_diff(sp.L, sp.n)[:, None] * E
        w_inv = w * _inv_eta_sq(sp, live)
        for c in range(3):
            U = _axis_moments(w_inv, eta, D, [etaE if a == c else E for a in range(3)])
            t[:, c] -= np.einsum("jabd,axbydz->jxyz", sig, U)
        tables = (phase * t).real / sp.n**3
        raw = np.zeros((count, count, count))
        for (a, g), terms in zip(np.ndindex(count, count), qterms):
            for c, beta, coef in terms:
                raw[a, g] += coef * tables[(slice(None), c) + beta]
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
