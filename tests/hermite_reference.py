"""Closed forms of the Hermite rows p(k, x) that ``erfkit.exact.hermite_table`` builds.

The library generates the rows by the recurrence p(k) = p'(k-1) - 2x p(k-1);
these explicit sums are an independent route that tests compare it against.
"""

import math
from fractions import Fraction

from erfkit.exact import RationalPolynomial


def hermite_explicit(k: int) -> RationalPolynomial:
    """Closed-form row: sum_i (-1)^(i+k) k!/(i!(k-2i)!) 2^(k-2i) x^(k-2i)."""
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(k // 2 + 1):
        power = k - 2 * i
        coeffs[power] = Fraction(
            (-1) ** (i + k) * math.factorial(k) * 2**power,
            math.factorial(i) * math.factorial(power),
        )
    return RationalPolynomial(coeffs)


def hermite_at_zero(k: int) -> Fraction:
    """p(k,0): zero for odd k, (-1)^j (2j)!/j! for k = 2j."""
    if k % 2:
        return Fraction(0)
    j = k // 2
    return Fraction((-1) ** j * math.factorial(2 * j), math.factorial(j))
