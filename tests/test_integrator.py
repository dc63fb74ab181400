"""The Galerkin integrator against scipy, bit for bit.

`dynamics._dopri45` and its dense output must reproduce
`solve_ivp(method="RK45", dense_output=True)`, and `_cumulative_simpson`
must reproduce `cumulative_simpson(..., axis=0, initial=0.0)`: equal bytes,
not a tolerance, so that `evolve` artifacts do not move. scipy is the oracle
here only; the package does not import it for integration.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, solve_ivp

from hermflow import dynamics
from hermflow.cli import _zero_tensor
from hermflow.dynamics import Expansion, _cumulative_simpson, _dopri45, nse_galerkin
from hermflow.errors import NonConvergenceError, ValidationError
from hermflow.grid import GridSpec, interaction_tensor
from hermflow.solenoidal import composite_basis

from oracles import galerkin_rhs, galerkin_scipy

SPEC = GridSpec(8.0, 64)
RTOL = 1e-9


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _case(name: str):
    """(initial expansion, tensor) of one Galerkin system."""
    if name == "K1":
        cb = composite_basis(1, 1)
        coeffs = {(0, 0): 0.05, (1, 0): 0.2, (1, 1): -0.1, (1, 2): 0.15}
        return Expansion(cb, coeffs), interaction_tensor(cb, SPEC, refine=False)
    cb = composite_basis(1, 2)
    rng = np.random.default_rng(3)
    coeffs = {lab: float(c) for lab, c in zip(cb.labels, 0.1 * rng.standard_normal(cb.count))}
    if name == "K2":
        return Expansion(cb, coeffs), interaction_tensor(cb, SPEC, refine=False)
    if name == "zero":
        return Expansion(cb, coeffs), _zero_tensor(cb, 1, SPEC)
    cb = composite_basis(1, 1)
    if name == "overflow":
        # the quadratic term of 1e200 overflows: no step completes
        return Expansion(cb, {(1, 0): 1e200}), interaction_tensor(cb, SPEC, refine=False)
    # "blow-up": c0' = -c0/2 + 1e3 c0^2 from c0 = 0.1 blows up near tau = 0.01
    T = _zero_tensor(cb, 1, SPEC)
    T.values[0, 0, 0] = 1e3
    return Expansion(cb, {(0, 0): 0.1}), T


CASES = ["K1", "K2", "zero", "overflow", "blow-up"]


@pytest.mark.parametrize("name", CASES)
def test_dopri45_reproduces_rk45(name):
    e0, tensor = _case(name)
    (rhs, _), c0 = galerkin_rhs(e0, tensor), e0.vector()
    with np.errstate(all="ignore"):
        ref = solve_ivp(rhs, (0.0, 3.0), c0, method="RK45", rtol=RTOL, atol=RTOL * 1e-4,
                        dense_output=True)
        got = _dopri45(rhs, c0, 3.0, RTOL, RTOL * 1e-4)
    assert _same(got.ts, ref.t)
    assert got.nfev == ref.nfev
    assert got.nfev == 2 + 6 * (len(got.segments) + got.rejected)
    assert (got.message is None) == ref.success
    if not ref.success:
        assert got.message == ref.message
    if name == "overflow":
        assert len(got.segments) == 0
        return
    # output times inside steps, and every step end, where the earlier
    # step's interpolant is the one evaluated
    for t in (np.linspace(0.0, ref.t[-1], 41), ref.t):
        assert _same(got(t), ref.sol(t).T)


def test_blow_up_stops_early_after_809_steps():
    rhs = lambda _t, y: -y / 2 + 1e3 * y**2  # noqa: E731
    y0 = np.array([0.1])
    with np.errstate(all="ignore"):
        ref = solve_ivp(rhs, (0.0, 3.0), y0, method="RK45", rtol=RTOL, atol=RTOL * 1e-4,
                        dense_output=True)
        got = _dopri45(rhs, y0, 3.0, RTOL, RTOL * 1e-4)
    assert len(got.segments) == 809 and not ref.success
    assert got.message == ref.message and got.nfev == ref.nfev
    assert _same(got.ts, ref.t)
    assert _same(got(ref.t), ref.sol(ref.t).T)


@pytest.mark.parametrize("name", CASES)
def test_nse_galerkin_matches_the_scipy_oracle(name):
    e0, tensor = _case(name)
    ref = galerkin_scipy(e0, tensor, 3.0, RTOL, 41)
    if name == "overflow":
        assert len(ref["sol"].t) == 1
        with pytest.raises(NonConvergenceError, match="before completing a step"):
            nse_galerkin(e0, tensor, 3.0, rtol=RTOL, n_out=41)
        return
    traj = nse_galerkin(e0, tensor, 3.0, rtol=RTOL, n_out=41)
    assert _same(traj.taus, ref["taus"])
    assert _same(traj.coeff_matrix(), ref["C"])
    assert traj.duhamel_residual == ref["residual"]
    integ = traj.diagnostic["integrator"]
    assert integ["nfev"] == ref["sol"].nfev
    assert integ["steps"] == len(ref["sol"].t) - 1
    assert traj.diagnostic["truncated"] == (not ref["sol"].success)
    if name == "blow-up":
        assert traj.diagnostic["tau_reached"] == ref["sol"].t[-1] < 0.02
        assert traj.duhamel_residual is None


def test_step_bound_truncates_a_run_where_the_full_run_goes(monkeypatch):
    # the full run takes 74 steps; bounded at 30 it stops early, and the
    # output times it reached carry the full run's values, bit for bit
    e0, tensor = _case("zero")
    full = nse_galerkin(e0, tensor, 3.0, rtol=RTOL, n_out=41)
    monkeypatch.setattr(dynamics, "_DP_MAX_STEPS", 30)
    traj = nse_galerkin(e0, tensor, 3.0, rtol=RTOL, n_out=41)
    d = traj.diagnostic
    assert d["truncated"] and d["reason"] == "the step bound of 30 attempted steps was reached"
    assert d["integrator"]["steps"] + d["integrator"]["rejected"] == 30
    assert 0.0 < d["tau_reached"] < 3.0 and traj.duhamel_residual is None
    n = len(traj.taus)
    assert 3 <= n < 41
    assert _same(traj.coeff_matrix(), full.coeff_matrix()[:n])


@pytest.mark.parametrize(
    "change, what",
    [({"tau_end": 0.0}, "tau_end"), ({"rtol": 1e-20}, "2.220446049250313e-14")],
    ids=["tau-0", "rtol-floor"],
)
def test_nse_galerkin_refuses_what_it_cannot_integrate(change, what):
    e0, tensor = _case("K1")
    with pytest.raises(ValidationError, match=what):
        nse_galerkin(e0, tensor, **{"tau_end": 1.0, "rtol": RTOL, **change})


@pytest.mark.parametrize("n", [3, 4, 9, 10, 161])
@pytest.mark.parametrize("trailing", [(), (3,)])
def test_cumulative_simpson_reproduces_scipy(n, trailing):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.standard_normal((n,) + trailing)
    ref = cumulative_simpson(y, x=x, axis=0, initial=0.0)
    assert _same(_cumulative_simpson(y, x), ref)
