from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hermflow.multiindex import (
    as_fraction,
    enumerate_level,
    falling_factorial,
    grlex_key,
    level_count,
    mi_add,
    mi_factorial,
    mi_sub,
    order,
    unit,
    validate,
)
from oracles import enumerate_up_to, mi_le

small = st.integers(min_value=0, max_value=6)
idx3 = st.tuples(small, small, small)


def test_validate_rejects_negatives():
    with pytest.raises(ValueError):
        validate((1, -1, 0))


@given(k=st.integers(0, 9), dim=st.integers(1, 4))
def test_level_enumeration_is_complete_and_sorted(k, dim):
    items = list(enumerate_level(k, dim))
    assert len(items) == level_count(k, dim) == math.comb(k + dim - 1, dim - 1)
    assert all(order(b) == k for b in items)
    assert len(set(items)) == len(items)
    keys = [grlex_key(b) for b in items]
    assert keys == sorted(keys)


def test_enumerate_up_to_matches_levels():
    both = list(enumerate_up_to(4, 3))
    stacked = [b for k in range(5) for b in enumerate_level(k, 3)]
    assert both == stacked


@given(a=idx3, b=idx3)
def test_add_sub_roundtrip(a, b):
    s = mi_add(a, b)
    assert order(s) == order(a) + order(b)
    assert mi_sub(s, b) == a
    assert mi_le(a, s) and mi_le(b, s)


def test_sub_rejects_nonmonotone():
    with pytest.raises(ValueError):
        mi_sub((1, 0, 0), (0, 1, 0))


@given(a=idx3)
def test_factorial_product(a):
    assert mi_factorial(a) == math.prod(math.factorial(x) for x in a)


@given(a=idx3, b=idx3)
def test_falling_factorial_derivative_count(a, b):
    # d^gamma y^beta carries beta!/(beta-gamma)! when gamma <= beta, else 0
    if mi_le(b, a):
        want = mi_factorial(a) // mi_factorial(mi_sub(a, b))
    else:
        want = 0
    assert falling_factorial(a, b) == want


def test_unit_vectors():
    assert unit(3, 0) == (1, 0, 0)
    assert unit(3, 1) == (0, 1, 0)
    assert unit(3, 2) == (0, 0, 1)
    with pytest.raises(IndexError):
        unit(3, 3)


def test_as_fraction_exactness():
    # floats are deliberately rejected so exact paths stay rational
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
