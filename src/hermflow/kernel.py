"""Radial kernel evaluation and its stretched-exponential decay constants.

F is the order-2m kernel profile: the inverse Fourier transform of
exp(-|xi|^(2m)) in N=3, reduced to the radial sine integral

    F(r) = (1/(2 pi^2 r)) int_0^inf exp(-s^(2m)) s sin(sr) ds,
    F(0) = (1/(2 pi^2))  int_0^inf exp(-s^(2m)) s^2 ds = Gamma(3/2m)/(4 m pi^2).

For m=1 this is exactly the Gaussian (4 pi)^(-3/2) exp(-r^2/4). For m >= 2
the large-r form follows from the stationary phase of the sine integral at
s* = (r/2m)^(1/(2m-1)) e^(i pi/(2(2m-1))): an algebraically damped
oscillation

    F(r) ~ C r^(-N(m-1)/(2m-1)) exp(-d0 r^alpha) cos(b0 r^alpha + phase),
    alpha = 2m/(2m-1),
    a     = ((2m-1)/(2m)^alpha) * exp(i(pi/2 + pi/(2(2m-1)))),
    d0 = -Re a,  b0 = Im a,

and a satisfies (-1)^m (alpha a)^(2m-1) = 1/(2m) exactly. The companion
constant delta0 = (m(2N-1)-N)/(2m-1) is carried in the constants report;
it is not the power of this radial profile (the fit measures the apparent
power separately and reports it as delta0_hat).

Quadrature: exp(-s^(2m)) cuts the tail at smax = 46^(1/2m), and one set of
uniform panels on [0, smax] serves every radius of a table. Each panel is at
most min(1/2, pi/max(radii)) wide, so the envelope is polynomial-flat on it
and no radius sees more than half an oscillation across it. Gauss-Legendre
order 24 gives the value, and its difference from order 16 the error
estimate.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonConvergenceError, ValidationError


@dataclass(frozen=True)
class WkbjConstants:
    m: int
    N: int
    alpha: Fraction
    a: complex
    d0: float
    b0: float
    delta0: Fraction
    root_residual: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "N": self.N,
            "alpha": {"num": self.alpha.numerator, "den": self.alpha.denominator},
            "alpha_float": float(self.alpha),
            "a": {"re": self.a.real, "im": self.a.imag},
            "d0": self.d0,
            "b0": self.b0,
            "delta0": {"num": self.delta0.numerator, "den": self.delta0.denominator},
            "delta0_float": float(self.delta0),
            "root_residual": self.root_residual,
        }


def wkbj_constants(m: int, N: int = 3) -> WkbjConstants:
    """Closed-form decay constants; m=1 is rejected (kernel is Gaussian,
    the two-scale balance degenerates)."""
    if m < 2:
        raise ValidationError("decay constants are defined for m >= 2 only")
    if N < 1:
        raise ValidationError("N must be >= 1")
    alpha = Fraction(2 * m, 2 * m - 1)
    phase = math.pi / 2 + math.pi / (2 * (2 * m - 1))
    mod = (2 * m - 1) / float(2 * m) ** float(alpha)
    a = mod * cmath.exp(1j * phase)
    d0, b0 = -a.real, a.imag
    delta0 = Fraction(m * (2 * N - 1) - N, 2 * m - 1)
    resid = abs((-1) ** m * (float(alpha) * a) ** (2 * m - 1) - 1.0 / (2 * m))
    if resid > 1e-12:
        raise NonConvergenceError(
            f"root residual {resid:.3e} exceeds 1e-12", achieved=resid
        )
    if not (d0 > 0 and 1 < float(alpha) < 2):
        raise ValidationError("computed constants out of admissible range")
    return WkbjConstants(
        m=m, N=N, alpha=alpha, a=a, d0=d0, b0=b0, delta0=delta0, root_residual=resid
    )


@dataclass
class KernelTable:
    m: int
    N: int
    radii: np.ndarray
    values: np.ndarray
    mass_error: float
    quad_error: float

    def to_csv(self) -> str:
        rows = "".join(f"{float(r)!r},{float(v)!r}\n" for r, v in zip(self.radii, self.values))
        return "r,F\n" + rows


# radii x nodes entries per block of the sine sum, so that a long table never
# builds its whole matrix
_BLOCK = 2**16
# sine evaluations a table may ask for, radii times Gauss nodes of both
# orders: 15 to 35 s at the 3e7 to 7e7 per second measured on a 2-vCPU
# Intel Xeon host (criterion 5 takes 2.2e6)
_MAX_SINES = 2**30


def kernel_values(
    m: int,
    N: int = 3,
    radii: Sequence[float] | np.ndarray = None,
    tol: float = 1e-12,
) -> KernelTable:
    """Tabulate F on the given radii (N=3 only).

    One panel set serves all radii: uniform panels on [0, smax], each at
    most min(1/2, pi/max(radii)) wide. The Gauss sums of order 16 and 24
    run over blocks of radii; their worst disagreement is the achieved-
    tolerance estimate and failing `tol` raises with it attached. A table
    of more than `_MAX_SINES` sine evaluations (radii times the nodes of
    both orders) is refused before any is made.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    if N != 3:
        raise ValidationError("radial reduction implemented for N=3 only")
    if radii is None:
        radii = np.arange(0.0, 36.0 + 1e-9, 0.02)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or np.any(np.diff(radii) <= 0):
        raise ValidationError("radii must be a strictly increasing 1-D grid")
    if len(radii) < 3:
        raise ValidationError(
            f"a kernel table needs at least 3 radii for its Simpson mass "
            f"check, got {len(radii)}"
        )
    if radii[0] < 0:
        raise ValidationError("radii must be >= 0")

    r = radii[radii > 0]
    smax = 46.0 ** (1.0 / (2 * m))
    panels = math.ceil(smax / min(0.5, math.pi / r[-1]))
    nodes = panels * (16 + 24)
    if len(r) * nodes > _MAX_SINES:
        raise ValidationError(
            f"a kernel table of {len(r)} radii over {nodes} Gauss nodes takes "
            f"{len(r) * nodes} sine evaluations, more than the bound of {_MAX_SINES}"
        )
    edges = np.linspace(0.0, smax, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    mid = edges[:-1, None] + half
    sums = []
    for order in (16, 24):
        x, w = leggauss(order)
        s = (mid + half * x).ravel()
        g = np.exp(-(s ** (2 * m))) * s * (half * w).ravel()
        total = np.empty_like(r)
        step = max(1, _BLOCK // s.size)
        for i in range(0, len(r), step):
            block = np.multiply.outer(r[i : i + step], s)
            np.sin(block, out=block)
            block *= g
            total[i : i + step] = block.sum(axis=1)
        sums.append(total)
    lo, hi = sums
    scale = 2 * math.pi**2 * r
    err = float(np.max(np.abs(hi - lo) / scale))
    if err > tol:
        raise NonConvergenceError(
            f"kernel quadrature achieved {err:.3e} > tol {tol:.1e}", achieved=err
        )
    vals = np.full_like(radii, math.gamma(3.0 / (2 * m)) / (4 * m * math.pi**2))
    vals[radii > 0] = hi / scale
    return KernelTable(
        m=m, N=N, radii=radii, values=vals, mass_error=_mass_error(radii, vals), quad_error=err
    )


def _mass_error(r: np.ndarray, F: np.ndarray) -> float:
    """|4 pi int r^2 F dr - 1| over the tabulated range: the last value of
    the cumulative Simpson rule."""
    return abs(float(4 * math.pi * _cumulative_simpson(r * r * F, r)[-1]) - 1.0)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative composite Simpson integral of `y` along axis 0 over the
    strictly increasing sample points `x` (at least 3), from 0 at x[0].

    Each interval's integral is the quadratic through its sample triple,
    taken forward for the first interval of every triple and backward for
    the second (Cartwright's unequal-interval rule), as scipy's
    `cumulative_simpson(y, x=x, axis=0, initial=0.0)` does, bit for bit.
    """

    def first_intervals(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x31 = x21 + x32
        x21_x31 = x21 / x31
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        coeff1 = 3 - x21_x31
        coeff2 = 3 + x21x21_x31x32 + x21_x31
        coeff3 = -x21x21_x31x32
        return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])

    dx = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    forward = first_intervals(y, dx)
    backward = first_intervals(y[::-1], dx[::-1])[::-1]
    parts = np.empty((len(x) - 1,) + y.shape[1:])
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    # adding the zero start also turns a -0.0 into 0.0, as scipy's does
    return np.concatenate((np.zeros((1,) + y.shape[1:]), np.cumsum(parts, axis=0) + 0.0))


# -- envelope fit --------------------------------------------------------------


def _extrema(table: KernelTable, lo: float = 1e-12, hi: float = 1e-2):
    """Interior local maxima of |F| with values inside the fit window."""
    absF = np.abs(table.values)
    mids = absF[1:-1]
    mask = (mids >= absF[:-2]) & (mids >= absF[2:]) & (mids > lo) & (mids < hi)
    idx = np.nonzero(mask)[0] + 1
    # drop the origin lobe: keep extrema past the first sign change
    signs = np.sign(table.values)
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(changes):
        idx = idx[idx > changes[0]]
    return table.radii[idx], absF[idx]


# Levenberg-Marquardt attempts (accepted or not) per pinned fit: 8 to 16 on
# the default tables of m = 2..4
_LM_MAX_ITER = 100
# a fit has converged once its step is this small beside the parameters;
# steps of roundoff size (up to 5e-10 relative at m = 4) raise the cost, and
# the damping then grows until they fall below this bound
_LM_XTOL = 1e-12


def _pinned_fit(r: np.ndarray, logr: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares (c, d0, alpha) of c - d0 r^alpha against `target`.

    Levenberg-Marquardt with the analytic Jacobian [1, -r^alpha,
    -d0 r^alpha log r] and Marquardt's diagonal damping, from (0, 0.5, 1.5).
    A step that lowers the sum of squares is taken and the damping falls
    tenfold, otherwise it rises tenfold; the fit ends when a step is below
    `_LM_XTOL` of the parameters. The normal equations are summed
    elementwise rather than through BLAS, so thread counts cannot reach the
    bits. Raises `NonConvergenceError` after `_LM_MAX_ITER` attempts or on a
    singular system.
    """
    q = np.array([0.0, 0.5, 1.5])
    resid = q[0] - q[1] * r ** q[2] - target
    cost = float(np.sum(resid * resid))
    damping = 1e-3
    for _ in range(_LM_MAX_ITER):
        ra = r ** q[2]
        J = np.stack([np.ones_like(r), -ra, -q[1] * ra * logr], axis=1)
        A = np.sum(J[:, :, None] * J[:, None, :], axis=0)
        g = np.sum(J * resid[:, None], axis=0)
        try:
            step = np.linalg.solve(A + damping * np.diag(np.diag(A)), -g)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                "envelope least squares met a singular system",
                achieved=float(np.max(np.abs(resid))),
            ) from None
        trial = q + step
        trial_resid = trial[0] - trial[1] * r ** trial[2] - target
        trial_cost = float(np.sum(trial_resid * trial_resid))
        if trial_cost < cost:
            q, resid, cost = trial, trial_resid, trial_cost
            damping /= 10
        else:
            damping *= 10
        if math.hypot(*step) <= _LM_XTOL * math.hypot(*q):
            return q
    raise NonConvergenceError(
        f"envelope least squares did not converge in {_LM_MAX_ITER} steps",
        achieved=float(np.max(np.abs(resid))),
    )


def envelope_fit(table: KernelTable, constants: WkbjConstants) -> dict:
    """Measure (d0, alpha) from the oscillation extrema of the tabulated kernel.

    Model at extremum radii:

        log|F_k| = C - p log r_k - d0 r_k^alpha + log|cos(theta_k)|,

    with p = N(m-1)/(2m-1) the stationary-phase prefactor power. Extrema of
    a damped oscillation sit slightly off |cos| = 1: at d|F|/dr = 0,

        tan(theta) = (p/r + d0 alpha r^(alpha-1)) / (b0 alpha r^(alpha-1)),

    so each pass adds (1/2) log(1 + tan^2) to log|F| using the current
    (d0, alpha) and the pinned-power least-squares fit of (C, d0, alpha) is
    iterated to a fixed point. With only ~10 extrema a free power trades
    against the stretched exponential and is unstable, which is why p is
    pinned; the apparent power is still measured afterwards (slope of the
    corrected data with the fitted stretched term removed) and reported as
    delta0_hat. A final linear refit with alpha pinned at its closed form
    reports d0_constrained.
    """
    if table.m != constants.m or table.N != constants.N:
        raise ValidationError("kernel table and constants disagree on (m, N)")
    if table.m < 2:
        raise ValidationError("envelope fit applies to oscillatory kernels (m >= 2)")
    r, v = _extrema(table)
    if len(r) < 6:
        raise ValidationError(
            f"only {len(r)} usable extrema; extend the radial range or tighten "
            "the quadrature tolerance"
        )
    logv = np.log(v)
    logr = np.log(r)
    m, N = table.m, table.N
    power = N * (m - 1) / (2 * m - 1)
    b0 = constants.b0

    corr = np.zeros_like(r)
    for _ in range(25):
        c_hat, d0_hat, alpha_hat = _pinned_fit(r, logr, power * logr + logv + corr)
        growth = alpha_hat * r ** (alpha_hat - 1)
        tan = (power / r + d0_hat * growth) / (b0 * growth)
        step = float(np.max(np.abs(0.5 * np.log1p(tan * tan) - corr)))
        corr = 0.5 * np.log1p(tan * tan)
        if step < 1e-9:
            break
    else:
        raise NonConvergenceError(
            f"extremum bias correction still moving by {step:.1e}", achieved=step
        )
    resid_final = c_hat - power * logr - d0_hat * r**alpha_hat - (logv + corr)
    fit_rms = float(np.sqrt(np.mean(resid_final**2)))
    if float(np.max(np.abs(resid_final))) > 0.05:
        raise NonConvergenceError(
            "envelope model residual too large for the tabulated kernel",
            achieved=float(np.max(np.abs(resid_final))),
        )

    # apparent power: remove the fitted stretched term, regress on log r
    slope = np.polyfit(logr, logv + corr + d0_hat * r**alpha_hat, 1)[0]
    delta0_hat = -float(slope)

    # constrained refit: alpha pinned at the closed form, linear in (C, d0)
    alpha_cf = float(constants.alpha)
    Ac = np.stack([np.ones_like(r), -(r**alpha_cf)], axis=1)
    bc = logv + corr + power * logr
    (_, d0_constrained), *_ = np.linalg.lstsq(Ac, bc, rcond=None)

    return {
        "n_extrema": int(len(r)),
        "window": [float(r[0]), float(r[-1])],
        "envelope_power": float(power),
        "d0_hat": float(d0_hat),
        "alpha_hat": float(alpha_hat),
        "delta0_hat": delta0_hat,
        "d0_constrained": float(d0_constrained),
        "fit_rms": fit_rms,
        "d0_rel_dev": float(abs(d0_hat - constants.d0) / constants.d0),
        "alpha_rel_dev": float(
            abs(alpha_hat - float(constants.alpha)) / float(constants.alpha)
        ),
        "d0_constrained_rel_dev": float(
            abs(float(d0_constrained) - constants.d0) / constants.d0
        ),
    }
