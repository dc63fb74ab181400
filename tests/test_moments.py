from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from hermflow.kernel import kernel_values
from hermflow.moments import kernel_moment, moment_of_poly
from hermflow.polynomial import Polynomial
from oracles import weighted_pairing

betas = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


def _double_factorial_moment(beta):
    # Gaussian weight e^{-|y|^2/4} normalized to mass one: the monomial
    # moment factorizes into (b-1)!! 2^(b/2) per axis
    out = Fraction(1)
    for b in beta:
        if b % 2:
            return Fraction(0)
        out *= Fraction(math.prod(range(b - 1, 0, -2)) * 2 ** (b // 2))
    return out


@given(beta=betas)
@settings(max_examples=80, deadline=None)
def test_m1_moments_match_gaussian_closed_form(beta):
    assert kernel_moment(beta, 1) == _double_factorial_moment(beta)


@given(beta=betas, m=st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_parity_and_divisibility_selection(beta, m):
    val = kernel_moment(beta, m)
    if any(b % 2 for b in beta) or sum(beta) % (2 * m):
        assert val == 0
    elif beta == (0, 0, 0):
        assert val == 1
    else:
        assert val != 0


def test_m2_moment_closed_form_values():
    # |beta| = 4, m = 2: single biharmonic correction term, negative values
    assert kernel_moment((4, 0, 0), 2) == -24
    assert kernel_moment((2, 2, 0), 2) == -8
    assert kernel_moment((2, 1, 1), 2) == 0


def test_m2_moments_against_radial_quadrature():
    # independent check: angular factor times the tabulated radial profile
    table = kernel_values(2, 3, radii=np.arange(0.0, 36.0 + 1e-9, 0.05))
    r, F = table.radii, table.values

    def df(n):
        # double factorial n!!
        return math.prod(range(n, 0, -2)) if n > 1 else 1

    for beta in [(4, 0, 0), (2, 2, 0), (0, 0, 8), (4, 4, 0)]:
        k = sum(beta)
        # int_{S^2} w^beta dsigma = 4 pi * prod (b_i - 1)!! / (k + 1)!!
        angular = 4 * math.pi * math.prod(df(b - 1) for b in beta) / df(k + 1)
        radial = simpson(r ** (k + 2) * F, x=r)
        got = angular * radial
        want = float(kernel_moment(beta, 2))
        assert abs(got - want) <= 2e-3 * max(1.0, abs(want)), (beta, got, want)


def test_moment_of_poly_is_linear_in_terms():
    p = Polynomial(
        3, {(2, 0, 0): Fraction(3), (1, 1, 0): Fraction(5), (0, 0, 0): Fraction(-2)}
    )
    want = 3 * kernel_moment((2, 0, 0), 1) + 5 * kernel_moment((1, 1, 0), 1) - 2
    assert moment_of_poly(p, 1) == want


@given(
    a=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    b=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    m=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_weighted_pairing_is_the_product_moment(a, b, m):
    p, q = Polynomial.monomial(a, Fraction(2, 3)), Polynomial.monomial(b, Fraction(-3))
    assert weighted_pairing(p, q, m) == moment_of_poly(p * q, m)
    assert weighted_pairing(p, q, m) == weighted_pairing(q, p, m)
