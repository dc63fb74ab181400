from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermflow.errors import ValidationError
from hermflow.operators import (
    OperatorParams,
    apply_B_star,
    eigen_coefficients,
    eigenfunction,
    euler_degree_op,
    level_enumerate,
    level_membership,
    pairing,
)
from hermflow.polynomial import Polynomial
from oracles import apply_B, apply_B_weighted

betas = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).filter(
    lambda b: sum(b) <= 6
)


def test_params_validation():
    with pytest.raises(ValidationError):
        OperatorParams(m=0, N=3)
    with pytest.raises(ValidationError):
        OperatorParams(m=1, N=0)


@given(beta=betas, m=st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_eigen_relation_exact(beta, m):
    params = OperatorParams(m=m, N=3)
    ep = eigenfunction(beta, params)
    assert ep.lam == Fraction(-sum(beta), 2 * m)
    assert apply_B_star(ep.psi_star, params) == ep.psi_star.scale(ep.lam)
    # leading term is the plain monomial
    assert ep.psi_star.terms.get(tuple(beta)) == 1


@given(beta=betas)
@settings(max_examples=50, deadline=None)
def test_divergence_form_equals_B_star(beta):
    # (1/rho) div(rho grad p) expands to exactly B* p for the Gaussian weight
    params = OperatorParams(m=1, N=3)
    p = eigenfunction(beta, params).psi_star + Polynomial.monomial(
        (1, 1, 1), Fraction(1, 3)
    )
    assert apply_B_weighted(p, params) == apply_B_star(p, params)


def test_divergence_form_is_gaussian_specific():
    with pytest.raises(ValidationError):
        apply_B_weighted(Polynomial.monomial((2, 0, 0)), OperatorParams(m=2, N=3))


def test_B_and_B_star_differ_by_drift_and_constant():
    # (B - B*)p = (1/m) y.grad p + (N/2m) p for any polynomial
    params = OperatorParams(m=2, N=3)
    p = Polynomial(3, {(3, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1, 3)})
    diff = apply_B(p, params) - apply_B_star(p, params)
    want = euler_degree_op(p).scale(Fraction(1, params.m)) + p.scale(
        Fraction(params.N, 2 * params.m)
    )
    assert diff == want


def test_level_enumerate_counts():
    params = OperatorParams(m=1, N=3)
    for k in range(11):
        eps = level_enumerate(k, params)
        assert len(eps) == (k + 1) * (k + 2) // 2


@given(beta=betas, gamma=betas, m=st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_pairing_is_diagonal_with_factorial_norms(beta, gamma, m):
    params = OperatorParams(m=m, N=3)
    ep = eigenfunction(beta, params)
    want = (
        Fraction(math.prod(math.factorial(b) for b in beta))
        if tuple(beta) == tuple(gamma)
        else Fraction(0)
    )
    assert pairing(ep.psi_star, gamma, params) == want


def test_eigen_coefficients_invert_synthesis():
    params = OperatorParams(m=1, N=3)
    combo = {(2, 0, 0): Fraction(3, 2), (0, 1, 1): Fraction(-2), (0, 0, 0): Fraction(5)}
    p = Polynomial.zero(3)
    for beta, c in combo.items():
        p = p + eigenfunction(beta, params).psi_star.scale(c)
    got = eigen_coefficients(p, params)
    assert got == combo


def test_level_membership_validates_single_level():
    params = OperatorParams(m=1, N=3)
    p = eigenfunction((1, 1, 0), params).psi_star.scale(Fraction(2)) + eigenfunction(
        (2, 0, 0), params
    ).psi_star
    lvl2 = level_membership(p, 2, params)
    assert lvl2 == {(1, 1, 0): Fraction(2), (2, 0, 0): Fraction(1)}
    mixed = p + eigenfunction((0, 0, 1), params).psi_star
    with pytest.raises(ValidationError):
        level_membership(mixed, 2, params)


def test_m2_eigenfunction_mixes_biharmonic_powers():
    # for m=2 the polynomial at |beta| = 4 carries a Laplacian^2 correction
    params = OperatorParams(m=2, N=3)
    ep = eigenfunction((4, 0, 0), params)
    assert ep.psi_star.terms[(0, 0, 0)] == Fraction(24)  # (-Lap)^2 y^4 / 1!
    assert apply_B_star(ep.psi_star, params) == ep.psi_star.scale(Fraction(-1, 1))
