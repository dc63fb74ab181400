"""Multi-index helpers.

A multi-index is a tuple of non-negative integers. Its order is the
component sum. Enumeration and term ordering throughout the package use
the graded lexicographic order: compare by order first, then by the
tuple itself.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Iterator, Sequence

MultiIndex = tuple  # tuple[int, ...]


def validate(beta: Sequence[int]) -> MultiIndex:
    b = tuple(int(x) for x in beta)
    if any(x < 0 for x in b):
        raise ValueError(f"multi-index entries must be non-negative: {b}")
    return b


def order(beta: Sequence[int]) -> int:
    return sum(beta)


def grlex_key(beta: Sequence[int]):
    return (sum(beta), tuple(beta))


def mi_add(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    """a - b; raises if any entry would go negative."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError(f"multi-index subtraction underflow: {a} - {b}")
    return out


def mi_factorial(beta: Sequence[int]) -> int:
    out = 1
    for x in beta:
        out *= factorial(x)
    return out


def falling_factorial(beta: Sequence[int], gamma: Sequence[int]) -> int:
    """prod_i beta_i!/(beta_i-gamma_i)! -- the coefficient from D^gamma y^beta."""
    out = 1
    for b, g in zip(beta, gamma):
        if g > b:
            return 0
        out *= factorial(b) // factorial(b - g)
    return out


def unit(dim: int, axis: int) -> MultiIndex:
    e = [0] * dim
    e[axis] = 1
    return tuple(e)


def level_count(k: int, dim: int) -> int:
    """Number of multi-indices of order k in `dim` variables."""
    return comb(k + dim - 1, dim - 1)


def enumerate_level(k: int, dim: int) -> Iterator[MultiIndex]:
    """All multi-indices of order exactly k, in graded-lex order."""
    if k < 0:
        return
    # combinations_with_replacement over axis slots, converted to counts
    out = []
    for combo in combinations_with_replacement(range(dim), k):
        beta = [0] * dim
        for axis in combo:
            beta[axis] += 1
        out.append(tuple(beta))
    out = sorted(set(out), key=grlex_key)
    yield from out


def as_fraction(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; floats are rejected.

    Floats are rejected because every exact path in the package must stay
    rational; callers convert measured data explicitly.
    """
    if isinstance(x, float):
        raise TypeError("float coefficient in exact path; use Fraction or int")
    return Fraction(x)
