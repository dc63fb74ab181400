"""Coefficient dynamics over solenoidal bases.

Exact expansions in the weighted eigenbasis (a field outside the span
raises), exact diagonal flows, the truncated quadratic Galerkin system with
a Duhamel self-check, resonance detection, nodal-set pipelines, zero-type
classification, and an independent semigroup verifier that evolves data by
exact Fourier multipliers (no time-stepping error, periodization is the
only approximation). The verifier alone pairs spectra on the frequency
lattice pi Z^3 / L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

# by module: `classify` and `nodal` run this layer without these three,
# which load at their first use (`._lazy`)
from . import grid, kernel, solenoidal
from ._lazy import np
from .errors import EmptyCloudError, NonConvergenceError, ValidationError, check_fits
from .multiindex import unit
from .polynomial import Polynomial, VectorPolyField, horner, row_blocks


def _decay_rate(m: int, k: int) -> float:
    """Diagonal decay rate of a level-k coefficient of an order-m basis:
    the eigenvalue -k/(2m) of B* minus the amplitude exponent (2m-1)/(2m)
    of the self-similar rescaling, i.e. -(k+1)/2 for m=1 and -(k+3)/4 for
    m=2. The operator order alone fixes it."""
    return -(k + 2 * m - 1) / (2 * m)


# -- expansions -------------------------------------------------------------------


@dataclass
class Expansion:
    """Coefficients of one field over a solenoidal basis."""

    basis: object
    coeffs: Dict[Tuple[int, int], object]

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


def _scale_exponent(*cubes: np.ndarray) -> int:
    """The binary exponent e of the largest coefficient among `cubes`.
    Scaling by 2^-e is exact, so a norm formed from the scaled cubes and
    scaled back is the same bits for a field times 2^600 or 2^-600, times
    that power, where plain units read inf and 0.0."""
    return int(np.frexp(max(float(np.max(np.abs(A))) for A in cubes))[1])


def _norm(square: float, e: int) -> float:
    """The norm 2^e sqrt(square) of a squared norm formed in units of
    2^-2e. The form r^2 = <X, X> - 2 <X, Y> + <Y, Y> has an absolute error
    of about eps (<X, X> + 2 |<X, Y>| + <Y, Y>) <= eps (|X| + |Y|)^2, so a
    residual below about sqrt(eps) (|X| + |Y|) can come out as a small
    negative square: it reads 0.0."""
    return math.ldexp(math.sqrt(max(square, 0.0)), e)


def _form_values(D: int) -> int:
    """Values at the peak of a form <X, X> (`grid.moment_pairings`) of a
    spectrum cube with powers up to D: the pairing table, one value per
    pair of coefficients, the lattice moments of degree 2D with their
    phase and degree tables, and 2^15 for the iteration buffers of
    `np.einsum` (up to 0.2 MB seen)."""
    return (D + 1) ** 6 + 6 * (2 * D + 1) ** 3 + 2**15


def expand(u, basis) -> Expansion:
    """Exact basis coefficients of u = p F, given its polynomial factor p,
    by the exact rational dual pairings.

    The remainder u - sum_i c_i v*_i is an exact polynomial; a field
    outside the span of the basis leaves a nonzero one and raises
    `ValidationError` naming the degrees of its components.
    """
    if not isinstance(u, VectorPolyField):
        raise ValidationError(f"expand needs a VectorPolyField, got {type(u).__name__}")
    coeffs: Dict[Tuple[int, int], object] = {}
    recon = VectorPolyField([Polynomial.zero(3)] * 3)
    for b in basis.blocks:
        for i, c in enumerate(b.coefficients_poly(u)):
            coeffs[(b.level, i)] = c
            if c:
                recon = recon + b.fields[i].scale(c)
    diff = u - recon
    if not all(p.is_zero() for p in diff.components):
        degrees = ", ".join("zero" if p.is_zero() else str(p.degree()) for p in diff.components)
        raise ValidationError(
            f"the field lies outside the span of the basis: the exact remainder "
            f"u - sum c_i v*_i has component degrees ({degrees})"
        )
    return Expansion(basis, coeffs)


class _Extractor:
    """Coefficients and residual of fields over `basis`, in frequency space.

    Closed-form spectra are paired against the derivative-dual spectra by
    lattice-moment contractions of coefficient arrays
    (`grid.moment_pairings`) over the whole lattice pi Z^3 / L of the box
    half-width L, and the pairings are solved with the empirical Gram
    M = <realizations, duals> of the same lattice sums, so pure basis
    fields are recovered to roundoff. The residual r, the norm of the part
    of a field X the basis did not capture, comes from the same
    contractions: with Y = sum c_i v*_i F the model,
    r^2 = <X, X> - 2 <X, Y> + <Y, Y>, each term one pairing on the moment
    table of the summed exponents of its two weights (`grid.weight_moments`).
    The table at b = 2 serves the Gram and <Y, Y>, does not depend on the
    field and is built here. No FFT runs and no grid field is stored. Build
    once per (basis, L), call per field.
    """

    def __init__(self, basis, L: float):
        m = self.m = basis.params.m
        self.L = L
        self.duals = grid.dual_cubes(basis.blocks)
        self.realz = grid.spectrum_cubes(basis.fields, m)
        Dy, Dw = self.realz.shape[-1] - 1, self.duals.shape[-1] - 1
        # the largest power of the partners of every pairing, the model and
        # the duals: the shared tables are built to that degree
        self.D = max(Dy, Dw)
        self.table = grid.weight_moments(L, m, 2.0, Dy + self.D)
        self.M = grid.moment_pairings(self.realz, self.duals, self.table, L)

    def closed_form(self, X: np.ndarray, b: float) -> Tuple[np.ndarray, float]:
        """Field with spectrum exp(-b|eta|^2m) sum_d i^|d| X_c[d] eta^d."""
        L, m, Dx = self.L, self.m, X.shape[-1] - 1
        # the data against the duals and against the model: exponent b + 1
        table = grid.weight_moments(L, m, b + 1.0, Dx + self.D)
        raw = grid.moment_pairings(X[None], self.duals, table, L)[0]
        # the coefficients c, and the residual from the model sum c_i v*_i F
        c = np.linalg.solve(self.M.T, raw)
        Y = np.tensordot(c, self.realz, axes=(0, 0))[None]
        e = _scale_exponent(X, Y)
        X, Y = np.ldexp(X[None], -e), np.ldexp(Y, -e)
        xx = grid.moment_pairings(X, X, grid.weight_moments(L, m, 2.0 * b, 2 * Dx), L)
        xy = grid.moment_pairings(X, Y, table, L)
        yy = grid.moment_pairings(Y, Y, self.table, L)
        return c, _norm((xx - 2.0 * xy + yy)[0, 0], e)


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
    return Expansion(e0.basis, out)


# -- trajectories -----------------------------------------------------------------


# absolute slack of `CoefficientTrajectory.envelope_check`
_ENVELOPE_TOL = 1e-9


@dataclass
class CoefficientTrajectory:
    """Coefficients over `basis` at the output times `taus`, one row of `C`
    per time in `basis.labels` order. `residuals` and `overlap` hold the
    semigroup verifier's expansion residual and image-overlap estimate at
    each output time (empty for other trajectories)."""

    basis: object
    taus: np.ndarray
    C: np.ndarray
    duhamel_residual: Optional[float] = None
    diagnostic: dict = dc_field(default_factory=dict)
    residuals: List[float] = dc_field(default_factory=list)
    overlap: List[float] = dc_field(default_factory=list)

    @property
    def labels(self) -> List[Tuple[int, int]]:
        return self.basis.labels

    def envelope_check(self) -> dict:
        """A-posteriori check that every coefficient stays under the slowest
        admissible envelope c0 e^{-tau/2} with c0 set by the initial data,
        up to `_ENVELOPE_TOL`."""
        c0 = float(np.max(np.abs(self.C[0]))) if self.C.size else 0.0
        env = (c0 + _ENVELOPE_TOL) * np.exp(-(self.taus - self.taus[0]) / 2.0)
        ok = bool(np.all(np.abs(self.C) <= env[:, None] + _ENVELOPE_TOL))
        return {"constant": c0, "ok": ok}

    def to_csv(self) -> str:
        lines = ["tau," + ",".join(f"l{k}:{i}" for k, i in self.labels)]
        for t, row in zip(self.taus, self.C):
            lines.append(",".join([repr(float(t))] + [repr(float(x)) for x in row]))
        return "\n".join(lines) + "\n"


# `rate_check` fits no coefficient that stays below this share of the largest
_RATE_FLOOR = 1e-6


def _log_slopes(
    taus: np.ndarray, A: np.ndarray, labels: Sequence[Tuple[int, int]], floor: float
) -> Dict[Tuple[int, int], float]:
    """Least-squares slope of log |coefficient| against tau, per label, for
    the columns of the magnitudes `A` that are positive at every sample and
    rise above `floor`; the other columns are not fit."""
    return {
        lab: float(np.polyfit(taus, np.log(col), 1)[0])
        for lab, col in zip(labels, A.T)
        if np.all(col > 0.0) and np.max(col) > floor
    }


def rate_check(traj: CoefficientTrajectory) -> dict:
    """Log-linear decay rates of the trajectory against the exact level rates
    of its basis order.

    Coefficients whose swing never exceeds `_RATE_FLOOR` times the largest
    one are background (leakage, roundoff) and are skipped rather than fit
    to noise.
    Returns per-label {fitted, expected, rel_err} plus the worst rel_err.
    """
    C = traj.C
    if C.size == 0 or len(traj.taus) < 3:
        raise ValidationError("need at least 3 samples of a nonempty trajectory")
    top = float(np.max(np.abs(C)))
    if top == 0.0:
        raise ValidationError("trajectory is identically zero")
    m = traj.basis.params.m
    rates = {}
    worst = 0.0
    for label, fitted in _log_slopes(traj.taus, np.abs(C), traj.labels, _RATE_FLOOR * top).items():
        expected = _decay_rate(m, label[0])
        rel = abs(fitted - expected) / abs(expected) if expected else abs(fitted)
        rates[label] = {"fitted": fitted, "expected": expected, "rel_err": rel}
        worst = max(worst, rel)
    if not rates:
        raise ValidationError("no coefficient rose above the fitting floor")
    return {"rates": rates, "max_rel_err": worst}


# float64 values held per output time of a command's trajectory, fixed and
# per basis label, an upper bound (tracemalloc per output time: `evolve
# --model nse` 136, 405 and 1193 at 4, 12 and 36 labels, `--model stokes
# --data demo:small` 355 at 36, `verify` 45 and 39 at levels 1 and 2,
# `nodal` 110): the rows of C, the integrator's dense output and Duhamel
# arrays at four times as many points, and the CSV and JSON text
_TIME_VALUES, _TIME_LABEL_VALUES = 200, 45


def check_output_times(count: int, labels: int, what: str) -> None:
    """Refuse up front a trajectory of `count` output times over `labels`
    basis labels that would not fit in physical memory; `what` names the
    count."""
    check_fits(count * (_TIME_VALUES + _TIME_LABEL_VALUES * labels), what)


def diagonal_trajectory(e0: Expansion, taus: Sequence[float]) -> CoefficientTrajectory:
    ts = np.asarray(taus, dtype=float)
    C = np.array([diagonal_flow(e0, float(t)).vector() for t in ts])
    return CoefficientTrajectory(e0.basis, ts, C)


# -- Galerkin integration ---------------------------------------------------------

# Dormand-Prince 5(4): nodes, stage weights, the fifth-order weights, the
# error weights (fifth- minus fourth-order, over the 6 stages and the FSAL
# derivative) and Shampine's quartic dense-output matrix, each entry rounded
# from the same rational as in scipy's RK45; plain floats until `_dopri45`
# runs, so importing this module builds no array
_DP_C = (0, 1/5, 3/10, 4/5, 8/9, 1)
_DP_A = (
    (0, 0, 0, 0, 0),
    (1/5, 0, 0, 0, 0),
    (3/40, 9/40, 0, 0, 0),
    (44/45, -56/15, 32/9, 0, 0),
    (19372/6561, -25360/2187, 64448/6561, -212/729, 0),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
_DP_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_DP_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_DP_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)
# step-size control: safety factor, the bounds on one change of the step,
# and the exponent -1/(q+1) of the fourth-order error estimate
_DP_SAFETY, _DP_MIN_FACTOR, _DP_MAX_FACTOR = 0.9, 0.2, 10
_DP_EXPONENT = -1 / 5
# tolerances below 100 eps are below what the error estimate can resolve
_RTOL_FLOOR = 100 * 2.0**-52
# the most steps, accepted or rejected, one run attempts: about 1 s of the
# largest Galerkin system of the README (criterion 11 takes 73)
_DP_MAX_STEPS = 10_000


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


@dataclass
class _RKSolution:
    """A Dormand-Prince run: the accepted step ends `ts` (from 0), one
    dense-output segment (t_old, h, y_old, Q) per accepted step, the count
    of rejected steps, and `message`, None when the run reached its end."""

    ts: np.ndarray
    segments: List[Tuple[float, float, np.ndarray, np.ndarray]]
    rejected: int
    message: Optional[str]

    @property
    def nfev(self) -> int:
        """Right-hand-side evaluations: the starting derivative and the
        starting-step probe, then 6 per accepted or rejected step."""
        return 2 + 6 * (len(self.segments) + self.rejected)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The quartic interpolant at the ascending times `t`, one row per
        time. A time on a step end takes the earlier step's segment, and
        times outside the run take the nearest segment."""
        seg = np.searchsorted(self.ts, t, side="left") - 1
        np.clip(seg, 0, len(self.segments) - 1, out=seg)
        cuts = [0, *(np.flatnonzero(np.diff(seg)) + 1), len(t)]
        ys = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            t_old, h, y_old, Q = self.segments[seg[a]]
            x = (t[a:b] - t_old) / h
            p = np.cumprod(np.tile(x, (Q.shape[1], 1)), axis=0)
            y = h * np.dot(Q, p)
            y += y_old[:, None]
            ys.append(y.T)
        return np.concatenate(ys)


def _initial_step(fun, y0, f0, t_end, rtol, atol) -> float:
    """Hairer, Norsett and Wanner's starting step (Sec. II.4) for a
    fourth-order error estimate; one evaluation of `fun`."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _dopri45(fun, y0: np.ndarray, t_end: float, rtol: float, atol: float) -> _RKSolution:
    """Integrate y' = fun(t, y) from t = 0 to `t_end` > 0 with the adaptive
    Dormand-Prince 5(4) pair and keep its dense output.

    Each step is scipy's RK45 step, operation for operation: the same
    tableau, the RMS error norm over atol + rtol max(|y|, |y_new|), the same
    step-size control and starting step, so the step ends, the interpolants
    and `nfev` come out bit for bit the same. A run stops early, with
    `message` set, when the step it needs falls under 10 ulps of tau, or
    when it has attempted `_DP_MAX_STEPS` steps.
    """
    C, A, B, E, P = (np.array(t, dtype=float) for t in (_DP_C, _DP_A, _DP_B, _DP_E, _DP_P))
    f = fun(0.0, y0)
    h_abs = _initial_step(fun, y0, f, t_end, rtol, atol)
    K = np.empty((7, y0.size))
    t, y = 0.0, y0
    ts, segments = [t], []
    rejected = 0
    message = None
    while message is None and t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if len(segments) + rejected >= _DP_MAX_STEPS:
                message = f"the step bound of {_DP_MAX_STEPS} attempted steps was reached"
                break
            # a NaN step (a starting derivative that overflowed to inf - inf)
            # fails here too, where it would otherwise be retried forever
            if not h_abs >= min_step:
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = fun(t + C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _DP_MAX_FACTOR
                else:
                    factor = min(_DP_MAX_FACTOR, _DP_SAFETY * error_norm ** _DP_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                segments.append((t, h, y, K.T.dot(P)))
                t, y, f = t_new, y_new, f_new
                ts.append(t)
                break
            h_abs *= max(_DP_MIN_FACTOR, _DP_SAFETY * error_norm ** _DP_EXPONENT)
            step_rejected = True
            rejected += 1
    return _RKSolution(np.array(ts), segments, rejected, message)


def nse_galerkin(
    e0: Expansion,
    tensor: grid.InteractionTensor,
    tau_end: float,
    rtol: float = 1e-9,
    n_out: int = 121,
) -> CoefficientTrajectory:
    """Integrate dc_b/dtau = (lambda_b - 1/2) c_b + sum_{a,g} d_{agb} c_a c_g
    with the adaptive Dormand-Prince 5(4) pair, then re-derive the
    trajectory from its integral (variation-of-constants) form by
    quadrature; the maximum disagreement is reported as `duhamel_residual`,
    an independent check that the integrator solved the system it was
    given. `rtol` must be at least 100 eps (it also sets the absolute
    tolerance, rtol * 1e-4); an integrator that cannot complete a first
    step raises `NonConvergenceError`. `diagnostic["integrator"]` holds the
    run's right-hand-side evaluations, accepted and rejected steps.
    """
    if not rtol >= _RTOL_FLOOR:
        raise ValidationError(
            f"rtol must be at least 100 eps = {_RTOL_FLOOR!r}, got {rtol!r}"
        )
    if not tau_end > 0.0:
        raise ValidationError(f"tau_end must be positive, got {tau_end!r}")
    labels = e0.labels
    if tensor.labels != labels:
        raise ValidationError("tensor index labels do not match the basis")
    m = e0.basis.params.m
    lam = np.array([_decay_rate(m, k) for k, _ in labels])
    d = tensor.values
    c0 = e0.vector()

    def rhs(_t, c):
        return lam * c + np.einsum("agb,a,g->b", d, c, c)

    # data that blows up overflows inside the steps; the run's message says so
    with np.errstate(all="ignore"):
        sol = _dopri45(rhs, c0, float(tau_end), rtol, rtol * 1e-4)
    if not sol.segments:
        raise NonConvergenceError(
            f"the Galerkin integrator stopped at tau=0 before completing a "
            f"step: {sol.message}"
        )
    truncated = sol.message is not None
    t_max = float(sol.ts[-1])
    taus = np.linspace(0.0, tau_end, n_out)
    taus = taus[taus <= t_max + 1e-12]
    C = sol(taus)
    diagnostic = {
        "truncated": truncated,
        "integrator": {"nfev": sol.nfev, "steps": len(sol.segments), "rejected": sol.rejected},
    }
    if truncated:
        diagnostic["reason"] = sol.message
        diagnostic["tau_reached"] = t_max
    residual = None
    if not truncated and len(taus) > 2:
        s = np.linspace(taus[0], taus[-1], 4 * (len(taus) - 1) + 1)
        Cs = sol(s)
        Q = np.einsum("agb,ta,tg->tb", d, Cs, Cs)
        # c(t) = e^{L t} c0 + e^{L t} int_0^t e^{-L s} Q(s) ds, cumulated once
        W = np.exp(-np.outer(s, lam)) * Q
        I = kernel._cumulative_simpson(W, s)
        duh = np.exp(np.outer(taus, lam)) * (c0[None, :] + I[::4])
        residual = float(np.max(np.abs(C - duh)))
    return CoefficientTrajectory(e0.basis, taus, C, duhamel_residual=residual, diagnostic=diagnostic)


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
    Cw = np.abs(traj.C[sel])
    labels = traj.labels
    scale = float(np.max(Cw)) if Cw.size else 0.0
    m = traj.basis.params.m

    slopes = _log_slopes(tw, Cw, labels, 1e-30 * max(scale, 1e-300))

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
# (tracemalloc: 2.45 to 2.57 for n = 201..81: one component's values, which
# `horner` builds in place, the product of their edge neighbours and the
# boolean masks)
_NODAL_ARRAYS = 3


def _nonzero_rows(mask: np.ndarray) -> np.ndarray:
    """The indices of the true entries of `mask`, one row each in C order:
    `np.argwhere`, from the flat indices."""
    return np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=1)


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
    # 2R/cell overflows to inf for a tiny cell in a huge ball: refused here,
    # as n=inf, before `int` would raise
    ratio = 2.0 * R / cell
    n = int(round(ratio)) + 1 if math.isfinite(ratio) else math.inf
    check_fits(_NODAL_ARRAYS * n**3, f"nodal sampling on an n={n} grid")
    ax = np.linspace(-R, R, n)
    ax2 = ax**2
    inside = ax2[:, None, None] + ax2[None, :, None] + ax2[None, None, :] <= R * R + 1e-12
    clouds = []
    for p in v.components:
        if p.is_zero():
            clouds.append(np.zeros((0, 3)))
            continue
        f = p.evaluate_grid([ax, ax, ax])
        pts = [ax[_nonzero_rows((f == 0.0) & inside)]]
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(0, n - 1)
            hi[axis] = slice(1, n)
            lo, hi = tuple(lo), tuple(hi)
            cross = (f[lo] * f[hi] < 0.0) & (inside[lo] | inside[hi])
            idx = _nonzero_rows(cross)
            if idx.size == 0:
                continue
            f_lo, f_hi = f[lo][cross], f[hi][cross]
            frac = f_lo / (f_lo - f_hi)
            coords = ax[idx].astype(float)
            coords[:, axis] += frac * cell
            pts.append(coords)
        clouds.append(np.concatenate(pts, axis=0))
    return clouds


# `nodal_compare`: Newton steps of a projection onto a zero surface, and the
# longest Newton step |f| / |grad f| left at a point that counts as on it
_NEWTON_STEPS = 10
_ON_SURFACE = 1e-9


class _ZeroSurface:
    """The zero surface of a polynomial p: `self(x)` gives p (N,) and its
    gradient (N, 3) at the rows of an (N, 3) array, by one `horner` call on
    the stacked coefficient cubes of p and its exact partial derivatives,
    each coefficient rounded once."""

    def __init__(self, p: Polynomial):
        C = p.coeff_cube()
        self.cubes = np.stack([C] + [p.derive(unit(3, i)).coeff_cube(C.shape) for i in range(3)])

    def __call__(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # one contiguous row per coordinate: the Horner steps stream them
        values = horner(self.cubes, np.ascontiguousarray(x.T))
        return values[0], values[1:].T


def _sq_norm(d: np.ndarray) -> np.ndarray:
    """|d|^2 along the last axis, of length 3, summed elementwise."""
    return d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2


def _nearest(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Distance from each of `points` to the nearest point of `cloud`, brute
    force, a block of `points` at a time."""
    out = np.empty(len(points))
    for rows in row_blocks((len(points), len(cloud))):
        out[rows] = np.sqrt(_sq_norm(points[rows, None, :] - cloud[None, :, :]).min(axis=1))
    return out


def _to_surface(points: np.ndarray, surface: _ZeroSurface, other: np.ndarray, R: float):
    """Directed distance from `points` to `surface`: its largest value, the
    number of projections landing outside the ball and of unresolved points
    (bounded by the nearest point of the `other` cloud instead)."""
    x = points
    with np.errstate(all="ignore"):  # an unresolved point may run off to inf
        for _ in range(_NEWTON_STEPS):
            f, g = surface(x)
            g2 = _sq_norm(g)
            step = np.divide(f, g2, out=np.zeros(len(x)), where=g2 > 0.0)
            x = x - step[:, None] * g
        f, g = surface(x)
        g2 = _sq_norm(g)
        resolved = (g2 > 0.0) & (np.abs(f) <= _ON_SURFACE * np.sqrt(g2))
        dist = np.sqrt(_sq_norm(x - points))
        outside = resolved & (_sq_norm(x) > R * R + 1e-12)
    dist[~resolved] = _nearest(points[~resolved], other)
    return float(dist.max()), int(outside.sum()), int((~resolved).sum())


def nodal_compare(
    cloud_a: np.ndarray, poly_a: Polynomial, cloud_b: np.ndarray, poly_b: Polynomial,
    R: float = 2.0,
) -> dict:
    """Distance between two zero surfaces, from the points of each cloud in
    the ball |y| <= R: each point is projected onto the other polynomial's
    zero surface by `_NEWTON_STEPS` Newton steps x <- x - f grad f / |grad f|^2,
    and `distance` is the larger of the two directed maxima of |x - x0|.
    A point is unresolved when grad f vanishes at its last iterate or the
    Newton step from there is longer than `_ON_SURFACE`; it is bounded by
    its distance to the nearest point of the other cloud. Projections
    landing outside the ball keep their distances. Returns the distance
    and both counts, summed over the two directions."""
    a, b = (np.asarray(c, float).reshape(-1, 3) for c in (cloud_a, cloud_b))
    a, b = (c[_sq_norm(c) <= R * R + 1e-12] for c in (a, b))
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloudError("empty nodal cloud in the ball: distance undefined")
    d_ab, out_ab, un_ab = _to_surface(a, _ZeroSurface(poly_b), b, R)
    d_ba, out_ba, un_ba = _to_surface(b, _ZeroSurface(poly_a), a, R)
    return {
        "distance": max(d_ab, d_ba),
        "outside_ball": out_ab + out_ba,
        "unresolved": un_ab + un_ba,
    }


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


def classify_zero(u: Polynomial, max_order: int = 6) -> ZeroType:
    """Vanishing orders of a space-time zero of the scalar polynomial
    u(x1, x2, x3, t) at (x, t) = (0, 0^-), read off its exact terms.

    M is the smallest total spatial degree |a| among the terms with no t,
    the lowest-order nonvanishing derivative of u(., 0) at 0; K the
    smallest t-degree among the terms with no x, that of u(0, .). Beyond
    `max_order` an order counts as not found: no t-free term, or M above
    it, gives `order-exceeds-bound`, and no x-free term, or K above it,
    `temporal-degenerate`. The zero polynomial is a `zero-field`, and a
    nonzero constant term is refused.
    """
    if u.dim != 4:
        raise ValidationError(f"u must be a polynomial in (x1, x2, x3, t), got dim {u.dim}")
    if max_order < 1:
        raise ValidationError("max_order must be >= 1")
    if u.is_zero():
        return ZeroType(None, None, None, "", "zero-field")
    if (0, 0, 0, 0) in u.terms:
        raise ValidationError(
            f"the field does not vanish at the base point: its constant term is {u.terms[0, 0, 0, 0]}"
        )
    M = min((sum(b[:3]) for b in u.terms if b[3] == 0), default=None)
    if M is None or M > max_order:
        return ZeroType(None, None, None, "", "order-exceeds-bound")
    K = min((b[3] for b in u.terms if not any(b[:3])), default=None)
    if K is None or K > max_order:
        return ZeroType(M, None, None, "", "temporal-degenerate")
    gamma = Fraction(K, M)
    rescale = f"z = x / (-t)^({gamma.numerator}/{gamma.denominator})"
    return ZeroType(M, K, gamma, rescale, "classified")


# -- semigroup verifier ---------------------------------------------------------------


def _verifier_arrays(L: float, m: int, level: int) -> int:
    """Float64 values at the peak of `semigroup_verify` at box half-width
    L, an upper bound: 2^15 for the exact arithmetic and the small tables;
    then, for the one output time in flight, the moment table being summed
    and the largest form, <X, X> of the data (`_form_values`). A level-k
    spectrum cube holds powers up to D = (2m-1)k of each variable, so a
    moment table has degree up to 2D, and every table has an exponent
    b >= 2, whose live prefix (`grid._live_eta`) has at most
    `grid._live_bound(L, m, 2)` indices K. A table holds its per-axis
    prefix, weight and power table, at most 4K(2D+1) values; at m=2 also
    the live box of the weight, K^3, and its first contraction with a
    transposed copy, 2 (2D+1) K^2. No term depends on a grid. The measured
    peak (tracemalloc) is at most 0.31 of this at m = 1 from L = 12 to 480
    at levels 1 and 2, and at m = 2 at most 0.96 from L = 16 to 96 at
    levels 0 to 3 and 0.98 at level 4, where the pairing table is almost
    all of it."""
    D = (2 * m - 1) * level
    K = grid._live_bound(L, m, 2.0)
    table = 4 * K * (2 * D + 1)
    if m > 1:
        table += K**3 + 2 * (2 * D + 1) * K**2
    return 2**15 + table + _form_values(D)


def semigroup_verify(
    data: VectorPolyField,
    m: int,
    t_end: float | None = None,
    L: float = 24.0,
    n_tau: int = 31,
) -> CoefficientTrajectory:
    """Independent cross-check of the diagonal coefficient flows.

    Divergence-free data make the pressure gradient vanish, so the exact
    evolution from t = -1 is the componentwise semigroup of d_t + (-Lap)^m:
    a Fourier multiplier. Each output time writes the spectrum of the
    blow-up-rescaled field in closed form from the transform of (data)F
    (amplitude (-t)^{-(2m-1)/2m}, coordinates x/(-t)^{1/2m},
    tau = -ln(-t)), re-expands it against the single level of the data (its
    polynomial degree) on the frequency lattice pi Z^3 / L of the periodic
    box [-L, L)^3 (Parseval pairings, no FFT, cut only where the weight
    underflows), and returns the coefficient trajectory with the per-time
    expansion residual. No time-stepping is involved; periodization is the
    only error source, and times where the rescaled field's periodic
    images would overlap the pairing region truncate the trajectory. An L
    outside (0, 2^64], a box whose tables would not fit in physical memory
    or that keeps fewer than the rate fit's three output times raise
    `ValidationError`, before any lattice array is built.
    """
    if m not in (1, 2):
        raise ValidationError("semigroup verifier covers m in {1, 2}")
    # the rate fit needs three samples
    if n_tau < 3:
        raise ValidationError(f"n_tau must be at least 3, got {n_tau}")
    if not data.divergence().is_zero():
        raise ValidationError("semigroup data must be divergence-free")
    if t_end is None:
        t_end = -math.exp(-3.0)
    if not (-1.0 < t_end < 0.0):
        raise ValidationError("t_end must lie in (-1, 0)")
    if not 0.0 < L <= grid._SCALE_MAX:
        raise ValidationError(f"box half-width L={L!r} must be positive and at most 2^64")
    degrees = [int(p.degree()) for p in data.components if not p.is_zero()]
    if not degrees:
        raise ValidationError(
            "semigroup data is identically zero, so its level cannot be "
            "inferred"
        )
    level = max(degrees)
    check_fits(_verifier_arrays(L, m, level), f"the semigroup verifier at L={L!r}")
    rho = (2.0 * m - 1.0) / (2.0 * m)
    alpha = 2.0 * m / (2.0 * m - 1.0)
    if m == 1:
        d0 = 0.25
    else:
        d0 = kernel.wkbj_constants(m, 3).d0
    tau_end = -math.log(-t_end)
    basis = solenoidal.level_basis(m, level)
    check_output_times(n_tau, basis.count, f"a trajectory of n_tau={n_tau} output times")
    taus = np.linspace(0.0, tau_end, n_tau)

    # image-overlap estimate: rescaled tail ~ exp(-d0 |y|^alpha (s/(2-s))^(1/(2m-1)))
    # at the separation 2L - 8 of a periodic image from the pairing region
    sep = max(0.0, 2.0 * L - 8.0)

    def overlap(tau: float) -> float:
        s = math.exp(-tau)
        A = (2.0 - s) / s
        return math.exp(-d0 * sep**alpha * A ** (-1.0 / (2.0 * m - 1.0)))

    kept = [t for t in taus if overlap(float(t)) <= 2e-4]
    if len(kept) < 3:
        raise ValidationError(
            f"box half-width L={L:g} is too small: periodic images keep clear "
            f"of the pairing region at only {len(kept)} of n_tau={n_tau} output "
            f"times, and the rate fit needs 3"
        )
    diagnostic: dict = {"truncated": len(kept) < len(taus)}
    if diagnostic["truncated"]:
        diagnostic["reason"] = "rescaled field reaches the box boundary"
        diagnostic["tau_reached"] = kept[-1]
    taus = np.array(kept)

    extract = _Extractor(basis, L)
    (data_coeffs,) = grid.spectrum_cubes([data], m)

    def state(tau: float) -> Tuple[np.ndarray, float]:
        # spectrum amp exp(-|eta|^2m (2-s)/s) sum_d i^|d| H[d] (eta s^(-1/2m))^d
        s = math.exp(-tau)
        amp = s ** (rho - 3.0 / (2.0 * m))
        X = amp * grid.dilate_coeffs(data_coeffs, s ** (-1.0 / (2.0 * m)))
        return extract.closed_form(X, (2.0 - s) / s)

    cs, residuals = zip(*[state(float(t)) for t in taus])
    return CoefficientTrajectory(
        basis, taus, np.array(cs), diagnostic=diagnostic, residuals=list(residuals),
        overlap=[overlap(float(t)) for t in taus],
    )


# -- unique continuation diagnostic ----------------------------------------------------


# the README's bound on the final nodal distance (criterion 9)
_NODAL_TOL = 0.05


def unique_continuation_diagnostic(
    report: ResonanceReport, distances: Sequence[float], tol: float = _NODAL_TOL
) -> dict:
    """Consistency flag between coefficient resonance and nodal geometry.

    A resonant trajectory whose nodal set approaches the dominant
    polynomial's zero set is PASS: the README's rule of criterion 9, every
    distance strictly below the one before (`decreasing`) and the final one
    strictly below tol. Resonant rates with a nodal set that fails either
    is INCONSISTENT; anything unclassified or without nodal data is a
    vacuous verdict. A diagnostic counterpart of the expected contrapositive,
    never a proof.
    """
    ds = [float(x) for x in distances]
    decreasing = all(b < a for a, b in zip(ds, ds[1:]))
    if report.status != "resonant" or not ds:
        return {"verdict": "vacuous", "status": report.status, "distances": ds,
                "decreasing": decreasing}
    return {
        "verdict": "PASS" if decreasing and ds[-1] < tol else "INCONSISTENT",
        "status": report.status,
        "final_distance": ds[-1],
        "tol": tol,
        "distances": ds,
        "decreasing": decreasing,
    }
