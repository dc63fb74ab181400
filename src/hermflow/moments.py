"""Exact moments of the order-2m heat kernel profile.

F is the radial profile with Fourier transform exp(-|xi|^(2m)). Its
monomial moments follow from Taylor-expanding the transform at 0:

    M_beta = int y^beta F dy = (-1)^((m+1)j) * (beta!/j!) * (mj)!/alpha!

where j = |beta|/(2m) and alpha = beta/2. The moment vanishes unless every
beta_i is even and |beta| is a multiple of 2m. For m=1 this reduces to the
Gaussian double-factorial product prod_i (beta_i-1)!! 2^(beta_i/2).

Moments grow without changing sign pattern inside one order class, and the
kernel pairings of `operators.pairing` reduce to finite sums of them.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .multiindex import mi_factorial, validate
from .polynomial import Polynomial


def kernel_moment(beta: Sequence[int], m: int, N: int = 3) -> Fraction:
    """Exact int y^beta F(y) dy over R^N for the order-2m kernel."""
    b = validate(beta)
    if len(b) != N:
        raise ValueError(f"beta arity {len(b)} != N {N}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if any(x % 2 for x in b):
        return Fraction(0)
    k = sum(b)
    if k % (2 * m):
        return Fraction(0)
    j = k // (2 * m)
    alpha = tuple(x // 2 for x in b)
    sign = -1 if ((m + 1) * j) % 2 else 1
    num = sign * mi_factorial(b) * factorial(m * j)
    den = factorial(j) * mi_factorial(alpha)
    return Fraction(num, den)


def moment_of_poly(p: Polynomial, m: int) -> Fraction:
    """int p(y) F(y) dy, term by term."""
    total = Fraction(0)
    for b, c in p.terms.items():
        mm = kernel_moment(b, m, N=p.dim)
        if mm:
            total += c * mm
    return total
