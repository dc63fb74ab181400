"""Operator pair B*/B and their polynomial eigenfunctions.

On polynomials in N variables,

    B* p = (-1)^(m+1) Delta^m p - (1/2m) y.grad p
    B  p = (-1)^(m+1) Delta^m p + (1/2m) y.grad p + (N/2m) p

B* has eigenvalue -k/(2m) on each level k with an explicit eigenbasis

    psi*_beta = exp((-Delta)^m) y^beta
              = sum_{j=0}^{floor(|beta|/2m)} (1/j!) (-Delta)^(mj) y^beta

(leading coefficient 1, lower-order even corrections; the series ends, as
Delta lowers the degree). Its inverse exp(-(-Delta)^m) maps p to its psi*
coefficients as monomial coefficients. Both directions are one exact
change of basis, term by term through the closed form
Delta^q y^beta = sum_{|a|=q} q!/a! beta!/(beta-2a)! y^(beta-2a).

The dual family is realized by kernel derivatives, psi_beta = (-1)^|beta|
D^beta F, and the two families pair to <psi*_a, psi_b> = a! delta_ab.
`pairing` checks that independently: integration by parts turns each
pairing into an exact kernel moment of a polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Dict, List, Sequence

from .errors import ValidationError
from .moments import moment_of_poly
from .multiindex import (
    MultiIndex,
    enumerate_level,
    level_count,
    mi_factorial,
    order,
    validate,
)
from .polynomial import Polynomial, laplacian


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


def _exp_laplacian(p: Polynomial, m: int, s: int) -> Polynomial:
    """exp(s (-Delta)^m) p for s = +1 or -1, exact and term by term.

    The term y^(beta-2a) of exp(s (-Delta)^m) y^beta comes from the power
    j = |a|/m alone, so it is nonzero only when m divides |a|, and then its
    coefficient is the integer
    s^j (-1)^|a| |a|!/j! prod_i beta_i!/((beta_i-2a_i)! a_i!).
    """
    out: Dict[MultiIndex, Fraction] = {}
    step = s * (-1) ** m  # s^j (-1)^(mj) = step^j
    for beta, c in p.terms.items():
        for a in product(*(range(b // 2 + 1) for b in beta)):
            q = sum(a)
            if q % m:
                continue
            w = step ** (q // m) * (factorial(q) // factorial(q // m))
            for b, x in zip(beta, a):
                w *= factorial(b) // (factorial(b - 2 * x) * factorial(x))
            g = tuple(b - 2 * x for b, x in zip(beta, a))
            out[g] = out.get(g, 0) + c * w
    return Polynomial(p.dim, out)


def eigenfunction(beta: Sequence[int], params: OperatorParams) -> EigenPair:
    b = validate(beta)
    if len(b) != params.N:
        raise ValidationError(f"beta arity {len(b)} != N {params.N}")
    return EigenPair(
        beta=b,
        lam=Fraction(-order(b), 2 * params.m),
        psi_star=_exp_laplacian(Polynomial.monomial(b), params.m, 1),
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
    """Expand p exactly in the psi* basis: p = exp((-Delta)^m) sum_b c_b y^b,
    so c is the monomial coefficients of exp(-(-Delta)^m) p."""
    if p.dim != params.N:
        raise ValidationError(f"polynomial dimension {p.dim} != N {params.N}")
    return _exp_laplacian(p, params.m, -1).terms


def level_membership(p: Polynomial, k: int, params: OperatorParams) -> Dict[MultiIndex, Fraction]:
    """Coefficients of p in the level-k eigenspace; raises if p leaves it."""
    coeffs = eigen_coefficients(p, params)
    off = [b for b in coeffs if order(b) != k]
    if off:
        raise ValidationError(
            f"polynomial has components outside level {k}: levels {sorted({order(b) for b in off})}"
        )
    return coeffs
