from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermflow.multiindex import unit
from hermflow.polynomial import Polynomial, VectorPolyField, divergence, laplacian

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
).filter(lambda c: c != 0)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, coeffs, max_size=5).map(lambda d: Polynomial(3, d))


@given(p=polys, q=polys, r=polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero(3)


@given(p=polys, q=polys)
@settings(max_examples=60, deadline=None)
def test_derivative_is_a_derivation(p, q):
    for axis in range(3):
        e = tuple(1 if i == axis else 0 for i in range(3))
        assert (p * q).derive(e) == p.derive(e) * q + p * q.derive(e)


@given(p=polys, a=exps, b=exps)
@settings(max_examples=60, deadline=None)
def test_derivatives_commute_and_compose(p, a, b):
    ab = tuple(x + y for x, y in zip(a, b))
    assert p.derive(a).derive(b) == p.derive(ab) == p.derive(b).derive(a)


@given(p=polys)
@settings(max_examples=60, deadline=None)
def test_divergence_of_gradient_is_laplacian(p):
    assert divergence([p.derive(unit(3, i)) for i in range(3)]) == laplacian(p)


@given(p=polys, q=polys)
@settings(max_examples=40, deadline=None)
def test_evaluation_is_a_homomorphism(p, q):
    y = (Fraction(1, 2), Fraction(-1, 4), Fraction(3))
    assert (p * q).evaluate(y) == p.evaluate(y) * q.evaluate(y)
    assert (p + q).evaluate(y) == p.evaluate(y) + q.evaluate(y)


def test_monomial_and_scale():
    m = Polynomial.monomial((2, 0, 1), Fraction(3, 2))
    assert m.scale(Fraction(2, 3)) == Polynomial.monomial((2, 0, 1))
    assert m.degree() == 3


def test_zero_coefficients_are_dropped():
    p = Polynomial(3, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(1)})
    assert (1, 0, 0) not in p.terms
    assert not p.is_zero()
    assert (p - p).is_zero()


def test_evaluate_grid_matches_pointwise():
    p = Polynomial(3, {(2, 1, 0): Fraction(1, 2), (0, 0, 3): Fraction(-2)})
    ax = np.linspace(-1.0, 1.0, 5)
    grid = p.evaluate_grid([ax, ax, ax])
    assert grid.shape == (5, 5, 5)
    got = grid[1, 2, 4]
    want = float(p.evaluate((ax[1], ax[2], ax[4])))
    assert got == pytest.approx(want, rel=1e-14)


@given(
    p=polys,
    axes=st.tuples(*[st.lists(st.fractions(-2, 2, max_denominator=4), min_size=1, max_size=6)] * 3),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_grid_matches_exact_evaluation(p, axes):
    # axes of unequal lengths and a coefficient cube without symmetry: a
    # transposed or misordered contraction lands values on the wrong nodes
    grid = p.evaluate_grid([np.array([float(x) for x in ax]) for ax in axes])
    assert grid.shape == tuple(len(ax) for ax in axes)
    scale = Polynomial(3, {b: abs(c) for b, c in p.terms.items()})
    for idx in np.ndindex(grid.shape):
        y = [ax[i] for ax, i in zip(axes, idx)]
        want = p.evaluate(y)
        bound = 1e-14 * float(scale.evaluate([abs(v) for v in y]))
        assert abs(grid[idx] - float(want)) <= bound


@given(p=polys)
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(p):
    # the JSON form the artifacts carry loses nothing: read back, it is the
    # same polynomial
    d = p.to_json_dict()
    terms = {tuple(t["beta"]): Fraction(int(t["num"]), int(t["den"])) for t in d["terms"]}
    assert Polynomial(d["dim"], terms) == p


def test_vector_field_divergence_and_json():
    v = VectorPolyField(
        [
            Polynomial(3, {(0, 0, 1): Fraction(-1)}),
            Polynomial.zero(3),
            Polynomial(3, {(1, 0, 0): Fraction(1)}),
        ]
    )
    assert v.divergence().is_zero()
    # the per-component JSON form that `solenoidal.json` writes per field
    assert [c.to_json_dict() for c in v.components] == [
        {"dim": 3, "terms": [{"beta": [0, 0, 1], "num": "-1", "den": "1"}]},
        {"dim": 3, "terms": []},
        {"dim": 3, "terms": [{"beta": [1, 0, 0], "num": "1", "den": "1"}]},
    ]
    w = v + v.scale(Fraction(-1))
    assert all(c.is_zero() for c in w.components)
