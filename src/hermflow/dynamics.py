"""Coefficient dynamics over solenoidal bases.

Expansions in the weighted eigenbasis, exact diagonal flows, the truncated
quadratic Galerkin system with a Duhamel self-check, resonance detection,
nodal-set pipelines, zero-type classification, and an independent semigroup
verifier that evolves data by exact Fourier multipliers (no time-stepping
error, periodization is the only approximation).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyCloudError, NonConvergenceError, ValidationError
from .grid import (
    GridSpec,
    GridVectorField,
    InteractionTensor,
    check_fits,
    closed_form_rows,
    dilate_coeffs,
    dual_cubes,
    lattice_moments,
    lattice_weight,
    moment_pairings,
    parallel_map,
    residual_norm,
    sampled_rows,
    spectrum_cubes,
    spectrum_pairings,
    to_spectral,
)
from .multiindex import enumerate_level
from .polynomial import Polynomial, VectorPolyField, row_blocks
from .rational_linalg import fd_weights
from .solenoidal import level_basis


def _decay_rate(m: int, k: int) -> float:
    """Diagonal decay rate of a level-k coefficient of an order-m basis:
    the eigenvalue -k/(2m) of B* minus the amplitude exponent (2m-1)/(2m)
    of the self-similar rescaling, i.e. -(k+1)/2 for m=1 and -(k+3)/4 for
    m=2. The operator order alone fixes it."""
    return -(k + 2 * m - 1) / (2 * m)


# -- expansions -------------------------------------------------------------------


@dataclass
class Expansion:
    """Coefficients of a field over a solenoidal basis at one time tau.

    `residual` is the grid norm (equivalently, by Parseval, the lattice
    norm of the spectrum) of the part of the input the basis did not
    capture (None for states produced by exact flows)."""

    basis: object
    coeffs: Dict[Tuple[int, int], object]
    tau: float = 0.0
    residual: Optional[float] = None

    def __post_init__(self):
        for key, c in self.coeffs.items():
            if not math.isfinite(float(c)):
                raise ValidationError(f"non-finite coefficient at {key}")

    @property
    def labels(self) -> List[Tuple[int, int]]:
        return self.basis.labels

    def vector(self) -> np.ndarray:
        return np.array([float(self.coeffs.get(l, 0.0)) for l in self.labels])

    def field_poly(self) -> VectorPolyField:
        """Exact polynomial factor sum_i c_i v*_i (floats promoted to their
        exact binary rationals)."""
        total = VectorPolyField([Polynomial.zero(3)] * 3)
        for label, v in zip(self.labels, self.basis.fields):
            c = self.coeffs.get(label, 0)
            if c:
                total = total + v.scale(c if isinstance(c, Fraction) else Fraction(float(c)))
        return total

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "residual": self.residual,
            "coeffs": {f"l{k}:{i}": float(c) for (k, i), c in sorted(self.coeffs.items())},
        }


# float64 arrays of n^3 at the peak of `expand` on a grid field, rounded up
# (tracemalloc: 10.5 for n = 32, 10.1 for n = 64), in the forward
# transforms: while the third runs, the FFT's complex copy of its input and
# its complex output next to two complex component spectra, |eta|^2 and the
# decay
_EXPAND_ARRAYS = 11


# the same on a polynomial field with a remainder (tracemalloc: 4.3 at n = 32,
# where a row block is the whole lattice, to 2.2 at n = 96): |eta|^2, the
# weight, and two row blocks of the residual sweep with its plane tables
_EXPAND_POLY_ARRAYS = 5


def expand(u, basis, spec: GridSpec | None = None) -> Expansion:
    """Extract basis coefficients of u by dual pairing.

    Polynomial input (the polynomial factor of u = p F) goes through the
    exact rational dual pairings; the reported residual is the grid norm of
    the uncaptured remainder times the kernel, the Parseval norm of its
    closed-form spectrum (no FFT), so input outside the span shows up there
    instead of passing silently. Grid input goes through `_Extractor.grid`.
    Either is refused, before any lattice array is built, when its working
    set would not fit in physical memory.
    """
    if isinstance(u, VectorPolyField):
        coeffs: Dict[Tuple[int, int], object] = {}
        recon = VectorPolyField([Polynomial.zero(3)] * 3)
        for b in basis.blocks:
            for i, c in enumerate(b.coefficients_poly(u)):
                coeffs[(b.level, i)] = c
                if c:
                    recon = recon + b.fields[i].scale(c)
        diff = u - recon
        if all(p.is_zero() for p in diff.components):
            residual = 0.0
        else:
            sp = spec or GridSpec(10.0, 64)
            m = basis.params.m
            check_fits(sp.n, _EXPAND_POLY_ARRAYS, "expand on a polynomial field")
            w, live = lattice_weight(sp, m)
            (P,) = spectrum_cubes([diff], m)
            residual = residual_norm(sp, closed_form_rows(P, w, live, sp))
        return Expansion(basis, coeffs, residual=residual)
    if isinstance(u, GridVectorField):
        check_fits(u.spec.n, _EXPAND_ARRAYS, "expand on a grid field")
        c, residual = _Extractor(basis, u.spec).grid(u)
        coeffs = dict(zip(basis.labels, (float(x) for x in c)))
        return Expansion(basis, coeffs, residual=residual)
    raise ValidationError("expand needs a VectorPolyField or GridVectorField")


class _Extractor:
    """Coefficients and residual of fields over `basis`, in frequency space.

    Fields are paired against the derivative-dual spectra, and the pairings
    are solved with the empirical Gram M = <realizations, duals> of the same
    lattice sums, so pure basis fields are recovered to roundoff. Pairings
    of closed-form spectra are lattice-moment contractions of coefficient
    arrays (`grid.moment_pairings`); the residual is the Parseval norm of
    the difference spectrum (`grid.residual_norm`), i.e. the grid norm of
    the part of the field the basis did not capture.
    Closed-form input runs no FFT, sampled input one forward FFT per
    component, and no grid field is stored. Build once per (basis, spec),
    call per field.
    """

    def __init__(self, basis, spec: GridSpec):
        m = self.m = basis.params.m
        self.spec = spec
        self.decay, self.live_decay = lattice_weight(spec, m)
        self._local = threading.local()
        self.duals = dual_cubes(basis.blocks)
        self.realz = spectrum_cubes(basis.fields, m)
        dmax = self.realz.shape[-1] + self.duals.shape[-1] - 2
        gram_table = lattice_moments(self.decay * self.decay, spec, dmax)
        self.M = moment_pairings(self.realz, self.duals, gram_table, spec)

    def closed_form(self, X: np.ndarray, b: float) -> Tuple[np.ndarray, float]:
        """Field with spectrum exp(-b|eta|^2m) sum_d i^|d| X_c[d] eta^d."""
        w, wd = self._scratch()
        _, live = lattice_weight(self.spec, self.m, b, w)
        np.multiply(w, self.decay, out=wd)
        Dx, Dw = X.shape[-1] - 1, self.duals.shape[-1] - 1
        table = lattice_moments(wd, self.spec, Dx + Dw)
        raw = moment_pairings(X[None], self.duals, table, self.spec)[0]
        return self._solve(raw, closed_form_rows(X, w, live, self.spec))

    def grid(self, u: GridVectorField) -> Tuple[np.ndarray, float]:
        """Field sampled on the grid (one forward transform per component)."""
        U = [to_spectral(self.spec, u.data[c]) for c in range(3)]
        raw = spectrum_pairings(U, self.decay, self.duals, self.spec)
        return self._solve(raw, sampled_rows(U))

    def _solve(self, raw: np.ndarray, data) -> Tuple[np.ndarray, float]:
        """Coefficients c from the pairings `raw` of a field with the duals,
        and the residual of its spectrum `data` (row parts) from sum c_i v*_i F."""
        c = np.linalg.solve(self.M.T, raw)
        Y = np.tensordot(c, self.realz, axes=(0, 0))
        model = closed_form_rows(Y, self.decay, self.live_decay, self.spec)
        return c, residual_norm(self.spec, data, model)

    def _scratch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Two lattice arrays of the calling thread, made on its first
        output time and reused by the next ones: a fresh pair per output
        time costs a page fault per 4 KiB, and the threads contend for it."""
        arrays = getattr(self._local, "arrays", None)
        if arrays is None:
            arrays = self._local.arrays = (np.empty_like(self.decay), np.empty_like(self.decay))
        return arrays


# -- diagonal flow ----------------------------------------------------------------


def diagonal_flow(e0: Expansion, tau: float) -> Expansion:
    """Exact linear flow c_k(tau) = c_k(0) e^{r_k tau}, with the level rate
    r_k = -(k+2m-1)/(2m) of the basis order m: e^{-(1+k) tau/2} for the
    Stokes operator (m=1), e^{-(3+k) tau/4} for the bi-Laplacian (m=2)."""
    m = e0.basis.params.m
    out = {
        (k, i): float(c) * math.exp(_decay_rate(m, k) * tau)
        for (k, i), c in e0.coeffs.items()
    }
    return Expansion(e0.basis, out, tau=e0.tau + tau)


# -- trajectories -----------------------------------------------------------------


# absolute slack of `CoefficientTrajectory.envelope_check`
_ENVELOPE_TOL = 1e-9


@dataclass
class CoefficientTrajectory:
    """Coefficient states at the output times `taus`. `overlap` holds the
    semigroup verifier's image-overlap estimate at each output time (empty
    for other trajectories)."""

    taus: np.ndarray
    states: List[Expansion]
    duhamel_residual: Optional[float] = None
    diagnostic: dict = dc_field(default_factory=dict)
    overlap: List[float] = dc_field(default_factory=list)

    @property
    def labels(self) -> List[Tuple[int, int]]:
        return self.states[0].labels

    def coeff_matrix(self) -> np.ndarray:
        return np.array([s.vector() for s in self.states])

    def envelope_check(self) -> dict:
        """A-posteriori check that every coefficient stays under the slowest
        admissible envelope C e^{-tau/2} with C set by the initial data, up
        to `_ENVELOPE_TOL`."""
        C = self.coeff_matrix()
        c0 = float(np.max(np.abs(C[0]))) if C.size else 0.0
        env = (c0 + _ENVELOPE_TOL) * np.exp(-(self.taus - self.taus[0]) / 2.0)
        ok = bool(np.all(np.abs(C) <= env[:, None] + _ENVELOPE_TOL))
        return {"constant": c0, "ok": ok}

    def to_csv(self) -> str:
        lines = ["tau," + ",".join(f"l{k}:{i}" for k, i in self.labels)]
        for t, row in zip(self.taus, self.coeff_matrix()):
            lines.append(",".join([repr(float(t))] + [repr(float(x)) for x in row]))
        return "\n".join(lines) + "\n"


# `rate_check` fits no coefficient that stays below this share of the largest
_RATE_FLOOR = 1e-6


def rate_check(traj: CoefficientTrajectory) -> dict:
    """Log-linear decay rates of the trajectory against the exact level rates
    of its basis order.

    Coefficients whose swing never exceeds `_RATE_FLOOR` times the largest
    one are background (leakage, roundoff) and are skipped rather than fit
    to noise.
    Returns per-label {fitted, expected, rel_err} plus the worst rel_err.
    """
    C = traj.coeff_matrix()
    if C.size == 0 or len(traj.taus) < 3:
        raise ValidationError("need at least 3 samples of a nonempty trajectory")
    top = float(np.max(np.abs(C)))
    if top == 0.0:
        raise ValidationError("trajectory is identically zero")
    m = traj.states[0].basis.params.m
    rates = {}
    worst = 0.0
    for j, label in enumerate(traj.labels):
        c = np.abs(C[:, j])
        if float(np.max(c)) <= _RATE_FLOOR * top or np.any(c == 0.0):
            continue
        fitted = float(np.polyfit(traj.taus, np.log(c), 1)[0])
        expected = _decay_rate(m, label[0])
        rel = abs(fitted - expected) / abs(expected) if expected else abs(fitted)
        rates[label] = {"fitted": fitted, "expected": expected, "rel_err": rel}
        worst = max(worst, rel)
    if not rates:
        raise ValidationError("no coefficient rose above the fitting floor")
    return {"rates": rates, "max_rel_err": worst}


def diagonal_trajectory(e0: Expansion, taus: Sequence[float]) -> CoefficientTrajectory:
    ts = np.asarray(taus, dtype=float)
    return CoefficientTrajectory(ts, [diagonal_flow(e0, float(t)) for t in ts])


def nse_galerkin(
    e0: Expansion,
    tensor: InteractionTensor,
    tau_end: float,
    rtol: float = 1e-9,
    n_out: int = 121,
) -> CoefficientTrajectory:
    """Integrate dc_b/dtau = (lambda_b - 1/2) c_b + sum_{a,g} d_{agb} c_a c_g
    with an adaptive embedded 4/5 pair, then re-derive the trajectory from
    its integral (variation-of-constants) form by quadrature; the maximum
    disagreement is reported as `duhamel_residual`, an independent check
    that the integrator solved the system it was given. `rtol` must be
    positive (it also sets the absolute tolerance, rtol * 1e-4); an
    integrator that cannot complete a first step raises
    `NonConvergenceError`.
    """
    from scipy.integrate import cumulative_simpson, solve_ivp

    if not rtol > 0.0:
        raise ValidationError(f"rtol must be positive, got {rtol!r}")
    labels = e0.labels
    if tensor.labels != labels:
        raise ValidationError("tensor index labels do not match the basis")
    m = e0.basis.params.m
    lam = np.array([_decay_rate(m, k) for k, _ in labels])
    d = tensor.values
    c0 = e0.vector()

    def rhs(_t, c):
        return lam * c + np.einsum("agb,a,g->b", d, c, c)

    sol = solve_ivp(
        rhs, (0.0, tau_end), c0, method="RK45", rtol=rtol, atol=rtol * 1e-4,
        dense_output=True,
    )
    if not sol.success and len(sol.t) < 2:
        raise NonConvergenceError(
            f"the Galerkin integrator stopped at tau=0 before completing a "
            f"step: {sol.message}"
        )
    truncated = (not sol.success) or sol.t[-1] < tau_end - 1e-12
    t_max = float(sol.t[-1])
    taus = np.linspace(0.0, tau_end, n_out)
    taus = taus[taus <= t_max + 1e-12]
    C = sol.sol(taus).T
    states = [
        Expansion(e0.basis, dict(zip(labels, map(float, row))), tau=e0.tau + float(t))
        for t, row in zip(taus, C)
    ]
    diagnostic = {"truncated": bool(truncated)}
    if truncated:
        diagnostic["reason"] = str(sol.message)
        diagnostic["tau_reached"] = t_max
    residual = None
    if not truncated and len(taus) > 2:
        s = np.linspace(taus[0], taus[-1], 4 * (len(taus) - 1) + 1)
        Cs = sol.sol(s).T
        Q = np.einsum("agb,ta,tg->tb", d, Cs, Cs)
        # c(t) = e^{L t} c0 + e^{L t} int_0^t e^{-L s} Q(s) ds, cumulated once
        W = np.exp(-np.outer(s, lam)) * Q
        I = cumulative_simpson(W, x=s, axis=0, initial=0.0)
        duh = np.exp(np.outer(taus, lam)) * (c0[None, :] + I[::4])
        residual = float(np.max(np.abs(C - duh)))
    return CoefficientTrajectory(taus, states, duhamel_residual=residual, diagnostic=diagnostic)


# -- resonance detection ------------------------------------------------------------


@dataclass
class ResonanceReport:
    status: str  # resonant | non-resonant | non-degenerate | inconclusive
    dominant: List[Tuple[int, int]]
    shared_level: Optional[int]
    rate: Optional[float]
    expected_rate: Optional[float]
    rate_deviation: Optional[float]
    subdominant_gap: Optional[float]
    window: Tuple[float, float]
    slopes: Dict[Tuple[int, int], float]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "dominant": [list(l) for l in self.dominant],
            "shared_level": self.shared_level,
            "rate": self.rate,
            "expected_rate": self.expected_rate,
            "rate_deviation": self.rate_deviation,
            "subdominant_gap": self.subdominant_gap,
            "window": list(self.window),
            "slopes": {f"l{k}:{i}": s for (k, i), s in sorted(self.slopes.items())},
        }


# `detect_resonance`: the slope margin of the dominant set, and the relative
# distance of a resonant rate from its level's diagonal rate
_DOMINANT_MARGIN = 0.05
_RATE_TOL = 0.05


def detect_resonance(
    traj: CoefficientTrajectory, window: Tuple[float, float] | None = None
) -> ResonanceReport:
    """Fit per-coefficient log-slopes on the window and classify.

    Dominant set: slopes within `_DOMINANT_MARGIN` of the maximum. Resonant
    when the dominant set shares one level and its rate sits within
    `_RATE_TOL` (relative) of that level's diagonal rate. A persistent level-0
    coefficient (slope not beyond its own diagonal rate) means the field
    value at the origin does not vanish at the blow-up scale: reported
    non-degenerate before anything else. Less than one decade of dominant
    decay on the window is inconclusive.
    """
    taus = traj.taus
    if window is None:
        window = (float(taus[len(taus) // 4]), float(taus[-1]))
    sel = (taus >= window[0] - 1e-12) & (taus <= window[1] + 1e-12)
    if int(sel.sum()) < 3:
        raise ValidationError("window covers fewer than 3 trajectory samples")
    tw = taus[sel]
    Cw = np.abs(traj.coeff_matrix()[sel])
    labels = traj.labels
    scale = float(np.max(Cw)) if Cw.size else 0.0
    m = traj.states[0].basis.params.m

    slopes: Dict[Tuple[int, int], float] = {}
    for j, lab in enumerate(labels):
        col = Cw[:, j]
        if np.all(col > 0.0) and np.max(col) > 1e-30 * max(scale, 1e-300):
            slopes[lab] = float(np.polyfit(tw, np.log(col), 1)[0])

    def report(status, dominant=(), level=None, rate=None, gap=None):
        expected = None if level is None else _decay_rate(m, level)
        dev = (
            None
            if (rate is None or expected is None)
            else abs(rate - expected) / abs(expected)
        )
        return ResonanceReport(
            status=status,
            dominant=list(dominant),
            shared_level=level,
            rate=rate,
            expected_rate=expected,
            rate_deviation=dev,
            subdominant_gap=gap,
            window=(float(window[0]), float(window[1])),
            slopes=slopes,
        )

    if not slopes:
        return report("inconclusive")

    # origin-value gate: a level-0 coefficient that fails to decay strictly
    # faster than its diagonal rate keeps u(0, tau) alive at blow-up scale
    rate0 = _decay_rate(m, 0)
    for lab, sl in slopes.items():
        if lab[0] == 0 and sl > rate0 - _DOMINANT_MARGIN:
            return report("non-degenerate", dominant=[lab], level=0, rate=sl)

    s_max = max(slopes.values())
    span = float(tw[-1] - tw[0])
    if (-s_max) * span < math.log(10.0):
        return report("inconclusive")

    dominant = [lab for lab, sl in slopes.items() if sl >= s_max - _DOMINANT_MARGIN]
    excluded = [sl for lab, sl in slopes.items() if lab not in dominant]
    gap = (s_max - max(excluded)) if excluded else None
    levels = {lab[0] for lab in dominant}
    rate = float(np.mean([slopes[lab] for lab in dominant]))
    if len(levels) == 1:
        k = levels.pop()
        expected = _decay_rate(m, k)
        if abs(rate - expected) <= _RATE_TOL * abs(expected):
            return report("resonant", dominant, k, rate, gap)
        return report("non-resonant", dominant, k, rate, gap)
    return report("non-resonant", dominant, None, rate, gap)


# -- nodal sets -------------------------------------------------------------------


# float64 arrays of n^3 at the peak of `nodal_extract`, rounded up
# (tracemalloc: 2.4 to 2.6 for n = 81..201: one component's values, the
# product of their edge neighbours and the boolean masks)
_NODAL_ARRAYS = 3


def nodal_extract(e: Expansion, R: float = 2.0, cell: float = 0.05) -> List[np.ndarray]:
    """Zero-set point cloud of each component of the polynomial factor on
    the ball |y| <= R (the m=1 kernel factor is positive, so its zero set
    is the polynomial's). Sign changes along grid edges are located by
    linear interpolation; exact grid zeros are kept as-is. A sign-change
    point is kept whenever its edge has at least one endpoint node inside
    the ball, so zero sheets that graze the boundary stay resolved; such
    points may overshoot the sphere by up to one cell. An identically
    zero component yields an empty cloud. The ball and the cell must be
    nondegenerate: R > 0 and 0 < cell < R, and a sampling grid that would
    not fit in physical memory is refused before any array is built."""
    if not (R > 0.0 and 0.0 < cell < R):
        raise ValidationError(
            f"nodal sampling needs R > 0 and 0 < cell < R, got R={R!r}, cell={cell!r}"
        )
    v = e.field_poly()
    if all(p.is_zero() for p in v.components):
        raise ValidationError("expansion has no nonzero coefficients")
    n = int(round(2.0 * R / cell)) + 1
    check_fits(n, _NODAL_ARRAYS, "nodal sampling")
    ax = np.linspace(-R, R, n)
    ax2 = ax**2
    inside = ax2[:, None, None] + ax2[None, :, None] + ax2[None, None, :] <= R * R + 1e-12
    clouds = []
    for p in v.components:
        if p.is_zero():
            clouds.append(np.zeros((0, 3)))
            continue
        f = p.evaluate_grid([ax, ax, ax])
        pts = [ax[np.argwhere((f == 0.0) & inside)]]
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(0, n - 1)
            hi[axis] = slice(1, n)
            lo, hi = tuple(lo), tuple(hi)
            cross = (f[lo] * f[hi] < 0.0) & (inside[lo] | inside[hi])
            idx = np.argwhere(cross)
            if idx.size == 0:
                continue
            frac = f[lo][cross] / (f[lo][cross] - f[hi][cross])
            coords = ax[idx].astype(float)
            coords[:, axis] += frac * cell
            pts.append(coords)
        clouds.append(np.concatenate(pts, axis=0))
    return clouds


def nodal_compare(cloudA: np.ndarray, cloudB: np.ndarray, R: float | None = None) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    from scipy.spatial import cKDTree

    a, b = np.asarray(cloudA, float), np.asarray(cloudB, float)
    if R is not None:
        a = a[np.einsum("ij,ij->i", a, a) <= R * R + 1e-12]
        b = b[np.einsum("ij,ij->i", b, b) <= R * R + 1e-12]
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloudError("empty nodal cloud: Hausdorff distance undefined")
    d_ab = float(np.max(cKDTree(b).query(a)[0]))
    d_ba = float(np.max(cKDTree(a).query(b)[0]))
    return max(d_ab, d_ba)


# -- zero-type classification --------------------------------------------------------


@dataclass
class ZeroType:
    M: Optional[int]
    K: Optional[int]
    gamma: Optional[Fraction]
    rescale: str
    status: str  # classified | temporal-degenerate | order-exceeds-bound | zero-field

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "K": self.K,
            "gamma": None if self.gamma is None else {
                "num": self.gamma.numerator, "den": self.gamma.denominator
            },
            "rescale": self.rescale,
            "status": self.status,
        }


def classify_zero(
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


# -- semigroup verifier ---------------------------------------------------------------


def _verifier_arrays(n: int, m: int, level: int, workers: int) -> float:
    """Float64 arrays of n^3 at the peak of `semigroup_verify`, an upper
    bound: |eta|^2 (cached), the decay and one array of headroom; then, per
    output time in flight, the thread's weight and weight-times-decay
    arrays, two row blocks of the residual sweep, the plane tables of its
    (at most twelve) spectra and the first contraction of the moment
    table. A level-k
    spectrum cube holds powers up to (2m-1)k of each variable, a dual's up
    to k."""
    D = (2 * m - 1) * level
    rows = row_blocks((n, n, n))[0]
    block = (rows.stop - rows.start) / n
    return 3 + workers * (2 + 2 * block + (12 * (D + 1) + D + level + 1) / n)


def semigroup_verify(
    data: VectorPolyField,
    m: int,
    t_end: float | None = None,
    spec: GridSpec | None = None,
    n_tau: int = 31,
    workers: int | None = None,
) -> CoefficientTrajectory:
    """Independent cross-check of the diagonal coefficient flows.

    Divergence-free data make the pressure gradient vanish, so the exact
    evolution from t = -1 is the componentwise semigroup of d_t + (-Lap)^m:
    a Fourier multiplier. Each output time writes the spectrum of the
    blow-up-rescaled field in closed form from the transform of (data)F
    (amplitude (-t)^{-(2m-1)/2m}, coordinates x/(-t)^{1/2m},
    tau = -ln(-t)), re-expands it against the single level of the data (its
    polynomial degree) on the periodic grid's frequency lattice (Parseval
    pairings, no FFT), and returns the coefficient trajectory with the
    per-time expansion residual. No time-stepping is involved; periodization is the only error
    source, and times where the rescaled field's periodic images would
    overlap the pairing region truncate the trajectory. A box too small
    for any output time raises `ValidationError`.
    """
    if m not in (1, 2):
        raise ValidationError("semigroup verifier covers m in {1, 2}")
    if not data.divergence().is_zero():
        raise ValidationError("semigroup data must be divergence-free")
    if t_end is None:
        t_end = -math.exp(-3.0)
    if not (-1.0 < t_end < 0.0):
        raise ValidationError("t_end must lie in (-1, 0)")
    sp = spec or GridSpec(24.0, 128)
    degrees = [int(p.degree()) for p in data.components if not p.is_zero()]
    if not degrees:
        raise ValidationError(
            "semigroup data is identically zero, so its level cannot be "
            "inferred"
        )
    level = max(degrees)
    check_fits(
        sp.n,
        _verifier_arrays(sp.n, m, level, min(max(1, workers or 1), n_tau)),
        "the semigroup verifier",
    )
    rho = (2.0 * m - 1.0) / (2.0 * m)
    alpha = 2.0 * m / (2.0 * m - 1.0)
    if m == 1:
        d0 = 0.25
    else:
        from .kernel import wkbj_constants

        d0 = wkbj_constants(m, 3).d0
    tau_end = -math.log(-t_end)
    taus = np.linspace(0.0, tau_end, n_tau)

    # image-overlap estimate: rescaled tail ~ exp(-d0 |y|^alpha (s/(2-s))^(1/(2m-1)))
    # at the separation 2L - 8 of a periodic image from the pairing region
    sep = max(0.0, 2.0 * sp.L - 8.0)

    def overlap(tau: float) -> float:
        s = math.exp(-tau)
        A = (2.0 - s) / s
        return math.exp(-d0 * sep**alpha * A ** (-1.0 / (2.0 * m - 1.0)))

    kept = [t for t in taus if overlap(float(t)) <= 2e-4]
    if not kept:
        raise ValidationError(
            f"box half-width L={sp.L:g} is too small: periodic images overlap "
            f"the pairing region at every output time"
        )
    diagnostic: dict = {"truncated": len(kept) < len(taus)}
    if diagnostic["truncated"]:
        diagnostic["reason"] = "rescaled field reaches the box boundary"
        diagnostic["tau_reached"] = kept[-1]
    taus = np.array(kept)

    basis = level_basis(m, level)
    extract = _Extractor(basis, sp)
    (data_coeffs,) = spectrum_cubes([data], m)

    def state(tau: float) -> Expansion:
        # spectrum amp exp(-|eta|^2m (2-s)/s) sum_d i^|d| H[d] (eta s^(-1/2m))^d
        s = math.exp(-tau)
        amp = s ** (rho - 3.0 / (2.0 * m))
        X = amp * dilate_coeffs(data_coeffs, s ** (-1.0 / (2.0 * m)))
        c, resid = extract.closed_form(X, (2.0 - s) / s)
        coeffs = dict(zip(basis.labels, (float(x) for x in c)))
        return Expansion(basis, coeffs, tau=float(tau), residual=resid)

    states = parallel_map(state, [float(t) for t in taus], workers)
    return CoefficientTrajectory(
        taus, states, diagnostic=diagnostic, overlap=[overlap(float(t)) for t in taus]
    )


# -- unique continuation diagnostic ----------------------------------------------------


def unique_continuation_diagnostic(
    report: ResonanceReport, distances: Sequence[float], tol: float = 0.05
) -> dict:
    """Consistency flag between coefficient resonance and nodal geometry.

    A resonant trajectory whose nodal set approaches the dominant
    polynomial's zero set is PASS; resonant rates with a nodal set staying
    away (final distance above tol, or growing) is INCONSISTENT; anything
    unclassified or without nodal data is a vacuous verdict. A diagnostic
    mirror of the expected contrapositive, never a proof.
    """
    ds = [float(x) for x in distances]
    if report.status != "resonant" or not ds:
        return {"verdict": "vacuous", "status": report.status, "distances": ds}
    converged = ds[-1] <= tol and ds[-1] <= ds[0] + 1e-12
    return {
        "verdict": "PASS" if converged else "INCONSISTENT",
        "status": report.status,
        "final_distance": ds[-1],
        "tol": tol,
        "distances": ds,
    }
