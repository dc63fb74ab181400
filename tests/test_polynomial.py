from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermflow.multiindex import unit
from hermflow.polynomial import Polynomial, VectorPolyField, divergence, horner, laplacian

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


def _assert_exact_within_roundoff(p: Polynomial, y, value: float):
    # within 1e-14 of sum |c| |y|^d: the at most 18 rounded products and
    # sums of a value's Horner steps lose far less
    scale = Polynomial(p.dim, {b: abs(c) for b, c in p.terms.items()})
    bound = 1e-14 * float(scale.evaluate([abs(v) for v in y]))
    assert abs(value - float(p.evaluate(y))) <= bound


fracs = st.fractions(-2, 2, max_denominator=4)
polys1 = st.dictionaries(st.tuples(st.integers(0, 6)), coeffs, max_size=5).map(lambda d: Polynomial(1, d))


@given(
    p=polys,
    q=polys,
    p1=polys1,
    axes=st.tuples(*[st.lists(fracs, min_size=1, max_size=6)] * 3),
    points=st.lists(st.tuples(fracs, fracs, fracs), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_grid_matches_exact_evaluation(p, q, p1, axes, points):
    # axes of unequal lengths and a coefficient cube without symmetry: a
    # transposed or misordered contraction lands values on the wrong nodes
    grid = p.evaluate_grid([np.array([float(x) for x in ax]) for ax in axes])
    assert grid.shape == tuple(len(ax) for ax in axes)
    for idx in np.ndindex(grid.shape):
        _assert_exact_within_roundoff(p, [ax[i] for ax, i in zip(axes, idx)], grid[idx])
    # scattered points, with p and q on a batch axis as `nodal_compare`
    # stacks p and its partials, and a cube of degree 0 on its own
    x = np.array(points, dtype=float)
    shape = np.maximum(p.coeff_cube().shape, q.coeff_cube().shape)
    values = horner(np.stack([p.coeff_cube(shape), q.coeff_cube(shape)]), x.T)
    assert values.shape == (2, len(points))
    for r, row in zip((p, q), values):
        for y, value in zip(points, row):
            _assert_exact_within_roundoff(r, y, value)
    c = Polynomial.constant(3, Fraction(-3, 4))
    assert c.coeff_cube().shape == (1, 1, 1)
    assert horner(c.coeff_cube(), x.T).tolist() == [-0.75] * len(points)
    got = c.evaluate_grid([np.array([float(v) for v in ax]) for ax in axes])
    assert got.shape == grid.shape and (got == -0.75).all()
    # one variable: the grid is an axis, and the points are its values
    ax = x[:, 0]
    for value, y in zip(p1.evaluate_grid([ax]), points):
        _assert_exact_within_roundoff(p1, [y[0]], value)
    assert horner(p1.coeff_cube(), [ax]).tobytes() == p1.evaluate_grid([ax]).tobytes()


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


# sha256 of `evaluate_cube` on seeded random cubes of D = 4..8 on 201-point
# axes, where a GEMM contraction changes its bits with the BLAS thread
# count (D = 4, 7 and 8 did), of p and its gradient at scattered points,
# of the verifier's moment pairings at D = 9 (`verify --m 2 --level 3`),
# and of an m=1 moment table, a product of 1-D sums
_BLAS_SCRIPT = """
import hashlib
import numpy as np
from hermflow.dynamics import _ZeroSurface
from hermflow.grid import moment_pairings, weight_moments
from hermflow.polynomial import Polynomial, evaluate_cube

h = hashlib.sha256()
rng = np.random.default_rng(7)
ax = np.linspace(-2.0, 2.0, 201)
for D in range(4, 9):
    h.update(evaluate_cube(rng.standard_normal((D + 1,) * 3), [ax, ax, ax]).tobytes())
terms = {tuple(int(d) for d in rng.integers(0, 6, 3)): int(rng.integers(-9, 10)) for _ in range(30)}
f, g = _ZeroSurface(Polynomial(3, terms))(rng.uniform(-2.0, 2.0, (1000, 3)))
h.update(f.tobytes())
h.update(g.tobytes())
X, Y = rng.standard_normal((2, 3, 10, 10, 10)), rng.standard_normal((3, 3, 10, 10, 10))
h.update(moment_pairings(X, Y, weight_moments(16.0, 2, 2.0, 18), 16.0).tobytes())
h.update(weight_moments(16.0, 1, 2.0, 18).tobytes())
print(h.hexdigest())
"""


def test_evaluation_bytes_do_not_depend_on_blas_threads():
    import hermflow

    root = os.path.dirname(os.path.dirname(os.path.abspath(hermflow.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_SCRIPT], env=env, capture_output=True, check=True, text=True
        )
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
