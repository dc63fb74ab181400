"""Exact multivariate polynomial arithmetic over the rationals.

Representation: a polynomial in `dim` variables is a mapping from
multi-indices (exponent tuples) to nonzero Fraction coefficients. The zero
polynomial has an empty mapping and degree -inf. All arithmetic is exact;
floats never appear in coefficients.

JSON form (term list in graded-lex order, coefficients as strings so
arbitrary precision survives):

    {"dim": 3, "terms": [{"beta": [0,1,0], "num": "1", "den": "2"}, ...]}
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .multiindex import (
    MultiIndex,
    as_fraction,
    falling_factorial,
    grlex_key,
    mi_add,
    mi_sub,
    unit,
    validate,
)

Terms = Dict[MultiIndex, Fraction]

NEG_INF = float("-inf")


class Polynomial:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Terms | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        clean: Terms = {}
        if terms:
            for beta, c in terms.items():
                b = validate(beta)
                if len(b) != self.dim:
                    raise ValueError(f"exponent arity {len(b)} != dim {self.dim}")
                c = as_fraction(c)
                if c != 0:
                    clean[b] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, {})

    @staticmethod
    def constant(dim: int, c) -> "Polynomial":
        return Polynomial(dim, {tuple([0] * dim): as_fraction(c)})

    @staticmethod
    def monomial(beta: Sequence[int], c=1) -> "Polynomial":
        b = validate(beta)
        return Polynomial(len(b), {b: as_fraction(c)})

    @staticmethod
    def variable(dim: int, axis: int) -> "Polynomial":
        return Polynomial(dim, {unit(dim, axis): Fraction(1)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(b) for b in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = [f"{c}*y^{b}" for b, c in self.sorted_terms()]
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for b, c in other.terms.items():
            s = out.get(b, Fraction(0)) + c
            if s == 0:
                out.pop(b, None)
            else:
                out[b] = s
        p = Polynomial.__new__(Polynomial)
        p.dim, p.terms = self.dim, out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.terms = {b: -c for b, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        out: Terms = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                b = mi_add(b1, b2)
                s = out.get(b, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(b, None)
                else:
                    out[b] = s
        p = Polynomial.__new__(Polynomial)
        p.dim, p.terms = self.dim, out
        return p

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = as_fraction(c)
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.terms = {} if c == 0 else {b: c * v for b, v in self.terms.items()}
        return p

    # -- calculus -----------------------------------------------------------

    def derive(self, gamma: Sequence[int]) -> "Polynomial":
        """Exact partial derivative D^gamma."""
        g = validate(gamma)
        if len(g) != self.dim:
            raise ValueError("derivative index arity mismatch")
        out: Terms = {}
        for b, c in self.terms.items():
            ff = falling_factorial(b, g)
            if ff == 0:
                continue
            out[mi_sub(b, g)] = out.get(mi_sub(b, g), Fraction(0)) + c * ff
        return Polynomial(self.dim, {b: c for b, c in out.items() if c != 0})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, y: Sequence):
        """Exact evaluation at a point; Fractions in give a Fraction out."""
        if len(y) != self.dim:
            raise ValueError("point arity mismatch")
        total = None
        for b, c in self.terms.items():
            v = c
            for yi, bi in zip(y, b):
                if bi:
                    v = v * yi**bi
            total = v if total is None else total + v
        if total is None:
            return Fraction(0) if not any(isinstance(v, float) for v in y) else 0.0
        return total

    def evaluate_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on a tensor-product grid given per-axis 1-D sample arrays.

        Returns an ndarray of shape (len(axes[0]), ..., len(axes[-1])),
        through `evaluate_cube` of the coefficient cube.
        """
        return evaluate_cube(self.coeff_cube(), axes)

    def coeff_cube(self, D: int | None = None) -> np.ndarray:
        """C with p(y) = sum_d C[d] y^d, |d_i| <= D (by default the largest
        exponent of any variable), each coefficient rounded once."""
        if D is None:
            D = max((max(b) for b in self.terms), default=0)
        C = np.zeros((D + 1,) * self.dim)
        for d, c in self.terms.items():
            C[d] = float(c)
        return C

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {
                    "beta": list(b),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for b, c in self.sorted_terms()
            ],
        }


# -- spec-facing functional API ---------------------------------------------


def laplacian(p: Polynomial) -> Polynomial:
    out = Polynomial.zero(p.dim)
    for i in range(p.dim):
        e2 = [0] * p.dim
        e2[i] = 2
        out = out + p.derive(tuple(e2))
    return out


def neg_laplacian_power(p: Polynomial, j: int) -> Polynomial:
    """(-Laplacian)^j applied j times; j >= 0."""
    if j < 0:
        raise ValueError("power must be >= 0")
    out = p
    for _ in range(j):
        out = -laplacian(out)
    return out


def divergence(components: Sequence[Polynomial]) -> Polynomial:
    dim = components[0].dim
    if len(components) != dim:
        raise ValueError("divergence expects dim components of matching dim")
    out = Polynomial.zero(dim)
    for i, p in enumerate(components):
        out = out + p.derive(unit(dim, i))
    return out


# float64 values per row block (512 KiB): a block and the few temporaries
# of its consumer stay in a core's L2 cache
_BLOCK_VALUES = 2**16


def row_blocks(shape: Sequence[int]) -> List[slice]:
    """Consecutive slices of the first axis of an array of `shape` that
    cover it in blocks of about `_BLOCK_VALUES` values (at least one row)."""
    step = max(1, _BLOCK_VALUES // math.prod(shape[1:]))
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


class CubeRows:
    """`evaluate_cube(C, axes)` by rows of the first grid axis.

    Every cube axis but the last is contracted with its power table x^d
    once, at construction, one axis at a time, which leaves a table of
    shape (D+1, len(axes[0]), ..., len(axes[-2])). `self(rows)` contracts
    those rows of it with the last axis's power table, so a value is the
    same sum, in the same order, whichever rows it is evaluated with.
    """

    def __init__(self, C: np.ndarray, axes: Sequence[np.ndarray]):
        if C.ndim != len(axes):
            raise ValueError("axes arity mismatch")
        tables = [
            np.stack([np.asarray(ax, dtype=float) ** d for d in range(p)], axis=1)
            for p, ax in zip(C.shape, axes)
        ]  # (len(ax), powers) per axis
        t = C
        for table in tables[:-1]:
            t = np.tensordot(t, table, axes=([0], [1]))
        self.planes, self.last = t, tables[-1]
        self.shape = tuple(len(ax) for ax in axes)

    def __call__(self, rows: slice) -> np.ndarray:
        if self.planes.ndim == 1:  # a cube in one variable
            return np.tensordot(self.planes, self.last[rows], axes=([0], [1]))
        return np.tensordot(self.planes[:, rows], self.last, axes=([0], [1]))


def evaluate_cube(C: np.ndarray, axes: Sequence[np.ndarray]) -> np.ndarray:
    """sum_d C[d] prod_i axes[i]^d_i on the tensor-product grid of `axes`,
    of shape (len(axes[0]), ..., len(axes[-1])), filled a row block at a
    time by `CubeRows`, so the only full grid array is the result."""
    rows_of = CubeRows(C, axes)
    out = np.empty(rows_of.shape)
    for rows in row_blocks(out.shape):
        out[rows] = rows_of(rows)
    return out


class VectorPolyField:
    """N polynomial components, each in N variables."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("empty field")
        dim = comps[0].dim
        if len(comps) != dim or any(p.dim != dim for p in comps):
            raise ValueError("need dim components, each of that dim")
        self.components = comps

    @property
    def dim(self) -> int:
        return len(self.components)

    def divergence(self) -> Polynomial:
        return divergence(self.components)

    def scale(self, c) -> "VectorPolyField":
        return VectorPolyField([p.scale(c) for p in self.components])

    def __add__(self, other: "VectorPolyField") -> "VectorPolyField":
        return VectorPolyField(
            [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "VectorPolyField") -> "VectorPolyField":
        return VectorPolyField(
            [a - b for a, b in zip(self.components, other.components)]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorPolyField)
            and self.components == other.components
        )

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "VectorPolyField(" + ", ".join(map(repr, self.components)) + ")"


def vector_from_rows(rows: Sequence[Sequence], dim: int = 3) -> VectorPolyField:
    """Build a field from `dim` rows of (coeff, beta) pairs.

    Convenience for catalog entries, e.g. rows=[[(-1,(0,0,1))],[...],[...]].
    """
    comps = []
    for row in rows:
        terms: Terms = {}
        for c, beta in row:
            b = tuple(beta)
            terms[b] = terms.get(b, Fraction(0)) + as_fraction(c)
        comps.append(Polynomial(dim, terms))
    return VectorPolyField(comps)
