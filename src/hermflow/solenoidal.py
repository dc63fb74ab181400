"""Divergence-free vector eigenspaces, catalog bases, and their duals.

A level-k solenoidal basis field has every component in the level-k
eigenspace of B* and exactly zero divergence. Two constructors exist and
are kept separate because their dimensions disagree:

* `fixture_basis(m, k)` holds the explicit catalog fields (3 at k=1, 8 at
  k=2 for m=1, and the m=2 family), small hand-built sets;
* `divfree_kernel(k, params)` enumerates the full space of level-k
  componentwise-eigen fields and computes the exact rational nullspace of
  the divergence map, e.g. dimension 8 at k=1 (all trace-free linear
  fields, rotations included).

Both dimensions are reported side by side by the CLI; the code does not
guess which reading of the smaller catalog is canonical. `level_basis`
applies the one rule (catalog where it has the level, computed kernel
otherwise), and `composite_basis` stacks its levels. A single level and a
composite share one interface: `blocks`, `labels`, `fields`, `params`,
`count`.

A `SolenoidalBasis` is the one exact record of a level: constructing it
validates its fields and derives their derivative duals once,
W_j = sum_beta a_cbeta (-1)^|beta| D^beta F where a are the
psi*-expansion coefficients of the j-th basis field: the monomial
coefficients of exp(-(-Delta)^m) applied to each component, as
psi*_beta = exp((-Delta)^m) y^beta. By <psi*_a, (-1)^|b| D^b F> =
a! delta_ab every pairing with a dual is a beta!-weighted sum of such
coefficients. Their Gram
G~_ij = sum_c sum_beta a^i a^j beta! is positive definite for any
independent basis and any m, so extraction works uniformly within a
level. The polynomial pairings, the semigroup verifier's lattice
expansions and the interaction tensor all read the duals from the basis
blocks.

The kernel-weighted Gram G_ij = <v*_i, v*_j F> is the reference the
duals are tested against (`weighted_dual` in the tests' oracles). For
m=1 the two give identical coefficient functionals: the kernel derivative
identity (-1)^|b| D^b F = 2^-|b| psi*_b F makes the Grams proportional.
For m >= 2 the weighted Gram vanishes identically on odd levels (moments
of degree not divisible by 2m are zero).

Duals of one level annihilate the fields of every other level, for every
m (psi*_alpha and (-1)^|beta| D^beta F are biorthogonal), so the per-level
Gram inverses assemble into the block-diagonal inverse of a composite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import ValidationError
from .multiindex import (
    MultiIndex,
    enumerate_level,
    grlex_key,
    mi_factorial,
)
from .operators import OperatorParams, _exp_laplacian, eigen_coefficients, level_membership
from .polynomial import Polynomial, VectorPolyField, vector_from_rows
from .rational_linalg import dependent_columns, inverse, nullspace

# -- catalog -----------------------------------------------------------------


def _build_catalog() -> Dict[Tuple[int, int], List[VectorPolyField]]:
    y1, y2, y3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    one = (0, 0, 0)
    cat: Dict[Tuple[int, int], List[VectorPolyField]] = {}

    cat[(1, 0)] = [vector_from_rows([[(1, one)], [(1, one)], [(1, one)]])]
    cat[(1, 1)] = [
        vector_from_rows([[], [(-1, y3)], [(1, y2)]]),
        vector_from_rows([[(1, y3)], [], [(-1, y1)]]),
        vector_from_rows([[(-1, y2)], [(1, y1)], []]),
    ]
    # level-2 catalog; the sixth entry is divergence-corrected (second
    # component y1*y3), the only sign assignment keeping div = 0 with this
    # support.
    cat[(1, 2)] = [
        vector_from_rows([[(4, one), (-1, (0, 2, 0)), (-1, (0, 0, 2))], [(1, (1, 1, 0))], [(-1, (1, 0, 1))]]),
        vector_from_rows([[(1, (1, 1, 0))], [(4, one), (-1, (2, 0, 0)), (-1, (0, 0, 2))], [(-1, (0, 1, 1))]]),
        vector_from_rows([[(1, (1, 0, 1))], [(-1, (0, 1, 1))], [(4, one), (-1, (2, 0, 0)), (-1, (0, 2, 0))]]),
        vector_from_rows([[], [(1, (1, 0, 1))], [(-1, (1, 1, 0))]]),
        vector_from_rows([[(-1, (0, 1, 1))], [], [(1, (1, 1, 0))]]),
        vector_from_rows([[(-1, (0, 1, 1))], [(1, (1, 0, 1))], [(1, (2, 0, 0)), (-1, (0, 2, 0))]]),
        vector_from_rows([[(1, (1, 1, 0))], [(1, (0, 0, 2)), (-1, (2, 0, 0))], [(-1, (0, 1, 1))]]),
        vector_from_rows([[(1, (0, 2, 0)), (-1, (0, 0, 2))], [(-1, (1, 1, 0))], [(1, (1, 0, 1))]]),
    ]

    cat[(2, 0)] = [vector_from_rows([[(1, one)], [(1, one)], [(1, one)]])]
    cat[(2, 1)] = [
        vector_from_rows([[(1, y2)], [(-1, y3)], [(1, y2)]]),
        vector_from_rows([[(1, y3)], [(1, y3)], [(-1, y1)]]),
        vector_from_rows([[(-1, y2)], [(1, y1)], [(1, y1)]]),
    ]
    cat[(2, 2)] = [
        vector_from_rows([[(-1, (2, 0, 0)), (-1, (0, 0, 2))], [(1, (1, 1, 0))], [(1, (1, 0, 1))]]),
        vector_from_rows([[(1, (1, 1, 0))], [(-1, (0, 2, 0)), (-1, (0, 0, 2))], [(1, (0, 1, 1))]]),
    ]
    cat[(2, 3)] = [
        vector_from_rows([[(1, (0, 3, 0))], [(1, (0, 0, 3))], [(1, (3, 0, 0))]]),
        vector_from_rows([[(1, (1, 2, 0))], [(1, (2, 1, 0))], [(-1, (2, 0, 1)), (-1, (0, 2, 1))]]),
    ]
    cat[(2, 4)] = [
        vector_from_rows([
            [(1, (0, 4, 0)), (24, one)],
            [(1, (0, 0, 4)), (24, one)],
            [(1, (4, 0, 0)), (24, one)],
        ]),
        vector_from_rows([[(1, (1, 3, 0))], [(1, (3, 1, 0))], [(-1, (3, 0, 1)), (-1, (0, 3, 1))]]),
    ]
    return cat


_CATALOG = _build_catalog()


def fixture(m: int, k: int) -> List[VectorPolyField]:
    """Catalog basis fields for (m, k); raises for uncatalogued pairs."""
    try:
        return list(_CATALOG[(m, k)])
    except KeyError:
        raise ValidationError(
            f"no catalog basis for m={m}, k={k}; "
            f"known: {sorted(_CATALOG)}"
        ) from None


# -- basis container ----------------------------------------------------------


def validate_basis_field(
    v: VectorPolyField, k: int, params: OperatorParams
) -> List[Dict[MultiIndex, Fraction]]:
    """psi*-expansion coefficients of each component of a level-k basis
    field; raises unless v is divergence-free with every component in
    level k."""
    if v.dim != params.N:
        raise ValidationError(f"field dimension {v.dim} != N {params.N}")
    if not v.divergence().is_zero():
        raise ValidationError("field is not divergence-free")
    return [level_membership(p, k, params) if not p.is_zero() else {} for p in v.components]


def _dual_pairing(a: List[Dict[MultiIndex, Fraction]], b: List[Dict[MultiIndex, Fraction]]) -> Fraction:
    """sum_c sum_beta a_cbeta b_cbeta beta!: the pairing of the field with
    psi* coefficients b against the derivative dual of coefficients a."""
    s = Fraction(0)
    for ac, bc in zip(a, b):
        for beta, x in ac.items():
            y = bc.get(beta)
            if y is not None:
                s += x * y * mi_factorial(beta)
    return s


def _gram(acoeffs: Sequence[List[Dict[MultiIndex, Fraction]]]) -> List[List[Fraction]]:
    """G~_ij = sum_c sum_b a^i a^j b! from per-field psi* coefficients."""
    return [[_dual_pairing(ai, aj) for aj in acoeffs] for ai in acoeffs]


@dataclass
class SolenoidalBasis:
    """One level of divergence-free fields and their derivative duals.

    Construction validates every field (`validate_basis_field`) and keeps
    the psi* coefficients `acoeffs` it yields; the exact Gram of the
    derivative-dual pairing and its inverse follow from them, once, and
    dependent fields raise. The dual W_j of field j is
    sum_c sum_beta a_jcbeta (-1)^|beta| D^beta F e_c: `coefficients_poly`
    extracts span coefficients of a polynomial field exactly, and
    `dual_transform_polys` gives the spectra from which the grid module
    pairs the duals.
    """

    level: int
    params: OperatorParams
    fields: List[VectorPolyField]
    acoeffs: List[List[Dict[MultiIndex, Fraction]]] = field(init=False, repr=False, compare=False)
    gram: List[List[Fraction]] = field(init=False, repr=False, compare=False)
    gram_inv: List[List[Fraction]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.acoeffs = [validate_basis_field(v, self.level, self.params) for v in self.fields]
        self.gram = _gram(self.acoeffs)
        try:
            self.gram_inv = inverse(self.gram)
        except ValueError:
            raise ValidationError(
                f"dependent basis fields at level {self.level}: "
                f"{dependent_columns(self.gram)}"
            ) from None

    @property
    def count(self) -> int:
        return len(self.fields)

    @property
    def blocks(self) -> List["SolenoidalBasis"]:
        return [self]

    @property
    def labels(self) -> List[Tuple[int, int]]:
        return [(self.level, i) for i in range(self.count)]

    def raw_pairings_poly(self, q: VectorPolyField) -> List[Fraction]:
        """<q, W_j> for each dual; exact.

        Each component q_c has the psi* coefficients b_c, the monomial
        coefficients of exp(-(-Delta)^m) q_c, and
        <psi*_a, (-1)^|beta| D^beta F> = a! delta_a,beta leaves
        sum_c sum_beta a_jcbeta b_cbeta beta!, the Gram's form.
        """
        qcoeffs = [eigen_coefficients(qc, self.params) for qc in q.components]
        return [_dual_pairing(acomp, qcoeffs) for acomp in self.acoeffs]

    def coefficients_poly(self, q: VectorPolyField) -> List[Fraction]:
        raw = self.raw_pairings_poly(q)
        return [
            sum((gi * r for gi, r in zip(row, raw)), Fraction(0))
            for row in self.gram_inv
        ]

    def dual_transform_polys(self) -> List[List[Polynomial]]:
        """Per dual field j, per component c: the real polynomial A with
        FT[W_c](xi) = (-i)^k A(xi) exp(-|xi|^(2m))."""
        N = self.params.N
        return [[Polynomial(N, dict(ac)) for ac in acomp] for acomp in self.acoeffs]

def catalog_levels(m: int) -> List[int]:
    """The levels the catalog holds for operator order m."""
    return sorted(k for mm, k in _CATALOG if mm == m)


def fixture_basis(m: int, k: int, N: int = 3) -> SolenoidalBasis:
    return SolenoidalBasis(
        level=k, params=OperatorParams(m=m, N=N), fields=fixture(m, k)
    )


def divfree_kernel(k: int, params: OperatorParams) -> SolenoidalBasis:
    """Exact nullspace of the divergence map on level-k componentwise fields.

    Unknowns are the psi* coefficients a_{c,beta} (component-major,
    graded-lex within a component); component c of a nullspace vector is
    exp((-Delta)^m) sum_beta a_{c,beta} y^beta. The derivative shift identity
    d_c psi*_beta = beta_c psi*_{beta - e_c} turns div = 0 into one exact
    linear constraint per level-(k-1) index delta:

        sum_c (delta_c + 1) a_{c, delta + e_c} = 0.

    Nullspace pivoting is deterministic, so the basis is reproducible.
    """
    if k < 0:
        raise ValidationError("level must be >= 0")
    N = params.N
    level = sorted(enumerate_level(k, N), key=grlex_key)
    col_index = {(c, b): c * len(level) + i for c in range(N) for i, b in enumerate(level)}
    ncols = N * len(level)
    rows = []
    for delta in enumerate_level(k - 1, N):
        row = [Fraction(0)] * ncols
        for c in range(N):
            b = tuple(d + (1 if i == c else 0) for i, d in enumerate(delta))
            row[col_index[(c, b)]] = Fraction(delta[c] + 1)
        rows.append(row)
    null = nullspace(rows, cols=ncols)
    fields = [
        VectorPolyField(
            _exp_laplacian(Polynomial(N, {b: vec[col_index[c, b]] for b in level}), params.m, 1)
            for c in range(N)
        )
        for vec in null
    ]
    return SolenoidalBasis(level=k, params=params, fields=fields)


@dataclass
class CompositeBasis:
    """Stacked per-level bases for truncation level K.

    Fields are ordered by level, then by position within the level, and
    labeled (level, index).
    """

    params: OperatorParams
    blocks: List[SolenoidalBasis]

    @property
    def fields(self) -> List[VectorPolyField]:
        return [v for b in self.blocks for v in b.fields]

    @property
    def labels(self) -> List[Tuple[int, int]]:
        return [(b.level, i) for b in self.blocks for i in range(b.count)]

    @property
    def count(self) -> int:
        return sum(b.count for b in self.blocks)

def level_basis(m: int, k: int, N: int = 3) -> SolenoidalBasis:
    """Level k: the catalog fixture where there is one, the computed
    divergence kernel otherwise."""
    if k in catalog_levels(m):
        return fixture_basis(m, k, N=N)
    return divfree_kernel(k, OperatorParams(m=m, N=N))


def composite_basis(m: int, K: int, N: int = 3) -> CompositeBasis:
    """Levels 0..K, each from `level_basis`."""
    if K < 0:
        raise ValidationError("truncation level must be >= 0")
    return CompositeBasis(
        params=OperatorParams(m=m, N=N),
        blocks=[level_basis(m, k, N) for k in range(K + 1)],
    )
