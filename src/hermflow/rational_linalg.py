"""Exact linear algebra over the rationals, for the solenoidal bases: the
reduced row echelon form, the nullspace a basis is drawn from, the inverse
of its Gram matrix and the dependent columns a singular Gram names.

Plain fraction-free-ish Gaussian elimination with deterministic pivoting
(first nonzero in column order). Sizes here are tiny (tens of rows), so
clarity wins over asymptotics.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Matrix = List[List[Fraction]]


def _copy(A: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in A]


def rref(A: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Pivot choice is deterministic: scan columns left to right, take the
    first row with a nonzero entry. Column order is the caller's basis
    order, so bases derived from the nullspace are reproducible.
    """
    R = _copy(A)
    if not R:
        return R, []
    rows, cols = len(R), len(R[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def nullspace(A: Sequence[Sequence], cols: int | None = None) -> List[List[Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector has a 1 in its free column and the solved pivot
    entries elsewhere; order follows the free columns left to right.
    """
    if not A:
        n = cols or 0
        return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    R, pivots = rref(A)
    n = len(R[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def inverse(A: Sequence[Sequence]) -> Matrix:
    n = len(A)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(A)
    ]
    R, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in R[:n]]


def dependent_columns(A: Sequence[Sequence]) -> List[int]:
    """Indices of columns not chosen as pivots (linearly dependent set)."""
    R, pivots = rref(A)
    n = len(A[0]) if A else 0
    return [c for c in range(n) if c not in pivots]
