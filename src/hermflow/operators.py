"""Operator pair B*/B and their polynomial eigenfunctions.

On polynomials in N variables,

    B* p = (-1)^(m+1) Delta^m p - (1/2m) y.grad p
    B  p = (-1)^(m+1) Delta^m p + (1/2m) y.grad p + (N/2m) p

B* has eigenvalue -k/(2m) on each level k with an explicit eigenbasis

    psi*_beta = sum_{j=0}^{floor(|beta|/2m)} (1/j!) (-Delta)^(mj) y^beta

(leading coefficient 1, lower-order even corrections). The dual family is
realized by kernel derivatives, psi_beta = (-1)^|beta| D^beta F, and the
two families pair to <psi*_a, psi_b> = a! delta_ab. Integration by parts
turns every such pairing into a kernel moment of a polynomial, so the
whole bi-orthogonality layer stays in exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from .errors import ValidationError
from .moments import moment_of_poly
from .multiindex import (
    MultiIndex,
    enumerate_level,
    grlex_key,
    level_count,
    mi_factorial,
    order,
    validate,
)
from .polynomial import Polynomial, laplacian, neg_laplacian_power


@dataclass(frozen=True)
class OperatorParams:
    """m: half the operator order; N: space dimension.

    The exponential weight growth rate (an open parameter upstream of this
    code) never enters any computed quantity and is deliberately absent.
    """

    m: int = 1
    N: int = 3

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be >= 1")
        if self.N < 1:
            raise ValidationError("N must be >= 1")


@dataclass(frozen=True)
class EigenPair:
    beta: MultiIndex
    lam: Fraction
    psi_star: Polynomial
    norm_sq: Fraction

    def to_json_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "lambda": {"num": self.lam.numerator, "den": self.lam.denominator},
            "psi_star": self.psi_star.to_json_dict(),
            "norm_sq": {
                "num": self.norm_sq.numerator,
                "den": self.norm_sq.denominator,
            },
        }

def euler_degree_op(p: Polynomial) -> Polynomial:
    """y.grad p (the Euler operator; multiplies each monomial by its degree)."""
    out = {}
    for b, c in p.terms.items():
        k = sum(b)
        if k:
            out[b] = c * k
    return Polynomial(p.dim, out)


def apply_B_star(p: Polynomial, params: OperatorParams) -> Polynomial:
    m = params.m
    sign = 1 if (m + 1) % 2 == 0 else -1
    lap_m = p
    for _ in range(m):
        lap_m = laplacian(lap_m)
    return lap_m.scale(sign) - euler_degree_op(p).scale(Fraction(1, 2 * m))


def eigenfunction(beta: Sequence[int], params: OperatorParams) -> EigenPair:
    b = validate(beta)
    if len(b) != params.N:
        raise ValidationError(f"beta arity {len(b)} != N {params.N}")
    m = params.m
    k = order(b)
    psi = Polynomial.zero(params.N)
    mono = Polynomial.monomial(b)
    jmax = k // (2 * m)
    fact = 1
    for j in range(jmax + 1):
        if j:
            fact *= j
        psi = psi + neg_laplacian_power(mono, m * j).scale(Fraction(1, fact))
    return EigenPair(
        beta=b,
        lam=Fraction(-k, 2 * m),
        psi_star=psi,
        norm_sq=Fraction(mi_factorial(b)),
    )


def level_enumerate(k: int, params: OperatorParams) -> List[EigenPair]:
    """All eigenpairs at level k, graded-lex order; count C(k+N-1, N-1)."""
    if k < 0:
        raise ValidationError("level must be >= 0")
    pairs = [eigenfunction(b, params) for b in enumerate_level(k, params.N)]
    assert len(pairs) == level_count(k, params.N)
    return pairs


def pairing(psiA_star: Polynomial, betaB: Sequence[int], params: OperatorParams) -> Fraction:
    """<psi*_A, (-1)^|betaB| D^betaB F> = kernel moment of D^betaB psi*_A.

    Both sign factors from integrating by parts |betaB| times cancel, so
    the result is the plain moment of the differentiated polynomial.
    """
    bB = validate(betaB)
    return moment_of_poly(psiA_star.derive(bB), params.m)


def eigen_coefficients(p: Polynomial, params: OperatorParams) -> Dict[MultiIndex, Fraction]:
    """Expand p exactly in the psi* basis by degree back-substitution.

    psi*_beta = y^beta + lower order, so the top-degree monomial
    coefficients of the remainder are the expansion coefficients at that
    degree; subtract and recurse downward.
    """
    coeffs: Dict[MultiIndex, Fraction] = {}
    rem = p
    while not rem.is_zero():
        d = rem.degree()
        tops = [(b, c) for b, c in rem.terms.items() if sum(b) == d]
        for b, c in sorted(tops, key=lambda kv: grlex_key(kv[0])):
            coeffs[b] = c
            rem = rem - eigenfunction(b, params).psi_star.scale(c)
    return coeffs


def level_membership(p: Polynomial, k: int, params: OperatorParams) -> Dict[MultiIndex, Fraction]:
    """Coefficients of p in the level-k eigenspace; raises if p leaves it."""
    coeffs = eigen_coefficients(p, params)
    off = [b for b in coeffs if order(b) != k]
    if off:
        raise ValidationError(
            f"polynomial has components outside level {k}: levels {sorted({order(b) for b in off})}"
        )
    return coeffs
