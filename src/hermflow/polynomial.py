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

from ._lazy import np
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

    def coeff_cube(self, shape: Sequence[int] | None = None) -> np.ndarray:
        """C of `shape` with p(y) = sum_d C[d] y^d, each coefficient rounded
        once; by default axis i runs up to the largest exponent of y_i, so
        `horner` takes no Horner step on a power that no term has."""
        if shape is None:
            shape = [max((b[i] for b in self.terms), default=0) + 1 for i in range(self.dim)]
        C = np.zeros(shape)
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


def horner(C: np.ndarray, xs: Sequence[np.ndarray]) -> np.ndarray:
    """sum_d C[..., d] prod_i xs[i]^d_i for arrays `xs` that broadcast
    together, of shape C.shape[:-len(xs)] + their broadcast shape: the last
    len(xs) axes of the coefficient cube C hold the powers of xs[0], ...,
    xs[-1], and any leading axes are a batch (p and its partials, say).

    Horner steps run one axis at a time, last axis first, each at the
    broadcast of the axes done so far, so on a tensor grid (each x along
    its own grid axis) only the first axis's steps run on the whole grid,
    and on a point set (the columns of an (N, k) array) every step runs on
    N values. Every step is an elementwise numpy product and sum in a
    fixed order, so no BLAS thread count reaches the bits."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    if C.ndim < len(xs):
        raise ValueError("axes arity mismatch")
    grid = np.broadcast_shapes(*(x.shape for x in xs))
    g = len(grid)
    t = C.reshape(C.shape + (1,) * g)
    for x in reversed(xs):
        coeffs = np.moveaxis(t, -g - 1, 0)
        t = coeffs[-1]
        for j, c in enumerate(coeffs[-2::-1]):
            # the first product is a fresh array of the broadcast shape,
            # and every later step runs in place in it
            t = t * x if j == 0 else np.multiply(t, x, out=t)
            t += c
    shape = C.shape[: C.ndim - len(xs)] + grid
    # axes of degree 0 leave their grid axes unbroadcast, and a cube of
    # degree 0 everywhere leaves a view of C
    return t if t.shape == shape and t.base is None else np.array(np.broadcast_to(t, shape))


def evaluate_cube(C: np.ndarray, axes: Sequence[np.ndarray]) -> np.ndarray:
    """sum_d C[d] prod_i axes[i]^d_i on the tensor-product grid of the 1-D
    `axes`, of shape (len(axes[0]), ..., len(axes[-1])), by `horner` with
    each axis along its own grid axis, so the only grid array is the
    result."""
    if C.ndim != len(axes):
        raise ValueError("axes arity mismatch")
    k = len(axes)
    return horner(C, [np.reshape(ax, (-1,) + (1,) * (k - 1 - i)) for i, ax in enumerate(axes)])


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
