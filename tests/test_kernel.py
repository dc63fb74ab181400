from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson

from hermflow import kernel
from hermflow.errors import NonConvergenceError, ValidationError
from hermflow.kernel import (
    _cumulative_simpson,
    envelope_fit,
    kernel_values,
    wkbj_constants,
)
from oracles import gaussian_kernel, ode_residual, pinned_fit_scipy


@pytest.fixture(scope="module")
def table_m1():
    return kernel_values(1, radii=np.arange(0.0, 8.0 + 1e-9, 0.05))


@pytest.fixture(scope="module")
def table_m2():
    return kernel_values(2, radii=np.arange(0.0, 36.0 + 1e-9, 0.04))


def test_wkbj_closed_forms_m2():
    c = wkbj_constants(2, 3)
    assert c.alpha == Fraction(4, 3)
    assert abs(c.d0 - 3.0 * 2.0 ** (-11.0 / 3.0)) <= 1e-12
    assert abs(c.b0 - 3.0**1.5 * 2.0 ** (-11.0 / 3.0)) <= 1e-12
    assert c.delta0 == Fraction(7, 3)
    assert c.root_residual <= 1e-12
    assert c.d0 > 0 and c.b0 > 0


def test_wkbj_constants_general_m():
    for m in (2, 3, 4):
        c = wkbj_constants(m, 3)
        assert c.alpha == Fraction(2 * m, 2 * m - 1)
        assert c.delta0 == Fraction(m * 5 - 3, 2 * m - 1)
        assert c.root_residual <= 1e-12
        assert c.d0 > 0
    with pytest.raises(ValidationError):
        wkbj_constants(1, 3)
    with pytest.raises(ValidationError):
        wkbj_constants(2, 0)


def test_wkbj_json_dict_roundtrips_values():
    c = wkbj_constants(2, 3)
    d = c.to_json_dict()
    assert d["alpha"] == {"num": 4, "den": 3}
    assert d["d0"] == c.d0 and d["b0"] == c.b0
    assert d["delta0"] == {"num": 7, "den": 3}


def test_value_at_origin_is_gamma_closed_form():
    for m in (1, 2, 3):
        t = kernel_values(m, radii=np.array([0.0, 0.5, 1.0]))
        want = math.gamma(3.0 / (2 * m)) / (4 * m * math.pi**2)
        assert abs(t.values[0] - want) <= 1e-17


def test_m1_table_matches_gaussian_closed_form(table_m1):
    want = gaussian_kernel(table_m1.radii)
    assert np.max(np.abs(table_m1.values - want)) <= 1e-15


def test_m1_mass(table_m1):
    assert table_m1.mass_error <= 1e-6


def test_m2_mass_and_quadrature_error(table_m2):
    assert table_m2.mass_error <= 1e-9
    assert table_m2.quad_error <= 1e-12


def test_ode_residual_small_on_tabulated_kernels(table_m1, table_m2):
    assert ode_residual(table_m1, window=(0.5, 4.0)) <= 1e-12
    assert ode_residual(table_m2, window=(0.5, 4.0)) <= 1e-9
    with pytest.raises(ValidationError):
        ode_residual(table_m2, window=(100.0, 200.0))


def test_envelope_fit_recovers_decay_constants(table_m2):
    c = wkbj_constants(2, 3)
    fit = envelope_fit(table_m2, c)
    assert fit["n_extrema"] >= 8
    assert fit["d0_rel_dev"] < 0.02
    assert fit["alpha_rel_dev"] < 0.01
    assert fit["d0_constrained_rel_dev"] < 0.01
    for key in ("d0_hat", "alpha_hat", "delta0_hat", "d0_constrained", "fit_rms"):
        assert np.isfinite(fit[key])


def _simpson_grid(kind: str) -> np.ndarray:
    if kind.startswith("uniform-"):
        return np.linspace(0.0, 3.0, int(kind.split("-")[1]))
    if kind.startswith("radii-"):
        # the kernel/wkbj grids: the default (1801 points), --dr 0.1 (361)
        # and --r-max 8 (401)
        r_max, dr = {"1801": (36.0, 0.02), "361": (36.0, 0.1), "401": (8.0, 0.02)}[kind[6:]]
        return np.arange(0.0, r_max + 1e-9, dr)
    return np.cumsum(np.random.default_rng(0).random(int(kind.split("-")[1])) + 0.01)


@pytest.mark.parametrize(
    "kind",
    ["uniform-3", "uniform-4", "uniform-11", "uniform-50", "radii-1801", "radii-361",
     "radii-401", "nonuniform-3", "nonuniform-30", "nonuniform-31"],
)
def test_simpson_reproduces_scipy(kind):
    # the mass error reads the last value of the cumulative rule: odd counts
    # take the pairwise rule, even ones Cartwright's last interval, as
    # scipy's `simpson` does, with its own order of operations, so the two
    # agree to a few ulp of (x[-1] - x[0]) max|y| (at most 0.62 seen here)
    x = _simpson_grid(kind)
    rng = np.random.default_rng(len(x))
    for y in (rng.standard_normal(len(x)), x * x * np.exp(-x), -0.0 * x):
        want = simpson(y, x=x)
        got = _cumulative_simpson(y, x)[-1]
        scale = (x[-1] - x[0]) * np.max(np.abs(y))
        assert abs(got - want) <= 4 * np.finfo(float).eps * scale


def test_kernel_table_needs_three_radii():
    # the Simpson mass check takes 3 points at least
    with pytest.raises(ValidationError, match="at least 3 radii .* got 2"):
        kernel_values(2, radii=[0.0, 0.02])
    assert len(kernel_values(1, radii=[0.0, 0.02, 0.04]).values) == 3


@pytest.mark.parametrize("m", [2, 3])
def test_envelope_fit_matches_the_scipy_oracle(monkeypatch, m):
    # MINPACK stops at xtol = 1e-8, the in-package fit at roundoff: the
    # reported figures agree to 1e-7 relative (measured 2e-9 or less)
    table = kernel_values(m)
    c = wkbj_constants(m, 3)
    fit = envelope_fit(table, c)
    monkeypatch.setattr(kernel, "_pinned_fit", pinned_fit_scipy)
    ref = envelope_fit(table, c)
    assert fit["n_extrema"] == ref["n_extrema"] and fit["window"] == ref["window"]
    for key in ("d0_hat", "alpha_hat", "delta0_hat", "d0_constrained"):
        assert abs(fit[key] - ref[key]) <= 1e-7 * abs(ref[key]), key


def test_csv_roundtrip(table_m1):
    # repr floats read back bit for bit
    header, *rows = table_m1.to_csv().splitlines()
    assert header == "r,F"
    r, F = np.array([[float(a) for a in row.split(",")] for row in rows]).T
    assert np.array_equal(r, table_m1.radii)
    assert np.array_equal(F, table_m1.values)


def test_kernel_values_validation():
    with pytest.raises(ValidationError):
        kernel_values(0)
    with pytest.raises(ValidationError):
        kernel_values(2, N=2)
    with pytest.raises(ValidationError):
        kernel_values(2, radii=np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        kernel_values(2, radii=np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        kernel_values(2, radii=np.array([0.0]))


def test_kernel_values_unreachable_tol_reports_achieved():
    with pytest.raises(NonConvergenceError) as info:
        kernel_values(2, radii=np.arange(0.0, 4.0 + 1e-9, 0.5), tol=1e-30)
    assert info.value.achieved > 0.0


def _zero_aligned_reference(r: float, m: int) -> float:
    """F(r) from per-radius panels: the zeros k pi / r of sin(sr), a 1/2
    fill and smax, with the order-24 Gauss-Legendre rule on each panel."""
    smax = 46.0 ** (1.0 / (2 * m))
    edges = np.unique(
        np.concatenate([np.arange(0.0, smax, math.pi / r), np.arange(0.0, smax, 0.5), [smax]])
    )
    x, w = np.polynomial.legendre.leggauss(24)
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + edges[1:, None]) / 2.0 + half * x
    total = np.sum(np.exp(-(s ** (2 * m))) * s * np.sin(s * r) * half * w)
    return float(total) / (2 * math.pi**2 * r)


@pytest.mark.parametrize("m", [2, 3])
def test_shared_panels_match_zero_aligned_panels(m):
    t = kernel_values(m)
    ref = [_zero_aligned_reference(r, m) for r in t.radii[1:]]
    assert np.max(np.abs(t.values[1:] - ref)) <= 1e-15 * t.values[0]
    assert t.quad_error <= 1e-16


def test_long_table_stays_in_blocks():
    radii = np.arange(0.0, 100.0 + 1e-9, 0.01)
    tracemalloc.start()
    try:
        t = kernel_values(2, radii=radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # the full radii x nodes matrix is 160 MB
    assert t.quad_error <= 1e-12
