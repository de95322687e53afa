"""The exact generators as Fraction loops, one Fraction operation per step.

``erfkit.spline.spline_form`` and ``erfkit.exact.integrate_odd`` sum integer
numerators over one known denominator and build each coefficient once. These
are the loops they replaced, which divide and multiply Fractions at every
step; tests assert that both routes give equal forms.
"""

from fractions import Fraction

from erfkit.exact import PolyExpSum, RationalPolynomial, hermite_table, spline_coeff


def spline_form_fractions(n: int, m: int) -> PolyExpSum:
    """sqrt(pi) * f_{n,m}, each endpoint t = j/m walked once in Fraction arithmetic."""
    table = hermite_table(n)
    scales = [2 * spline_coeff(n, k) / Fraction(m) ** (k + 1) for k in range(n + 1)]
    terms = []
    for j in range(m + 1):
        t = Fraction(j, m)
        t_pow = [t**i for i in range(n + 1)]
        coeffs = [Fraction(0)] * (2 * n + 2)
        for k, scale in enumerate(scales):
            weight = (j < m) + (j > 0) * (-1) ** k
            if weight:
                for i, a in enumerate(table[k].coeffs):
                    if a and t_pow[i]:
                        coeffs[i + k + 1] += weight * scale * a * t_pow[i]
        terms.append((t * t, coeffs))
    return PolyExpSum(terms)


def integrate_odd_fractions(s: PolyExpSum) -> PolyExpSum:
    """Integral from 0 to x of an all-odd sum: b_2i = ((2i+2) b_(2i+2) - a_(2i+1)) / (2k)."""
    parts = []
    constant = Fraction(0)
    for rate, poly in s.terms:
        if rate == 0:
            parts.append((Fraction(0), poly.antiderivative()))
            continue
        a = poly.coeffs
        q = [Fraction(0)] * len(a)
        b = Fraction(0)
        for j in range(len(a) - 2, -1, -2):
            b = q[j] = ((j + 2) * b - a[j + 1]) / (2 * rate)
        constant -= b
        parts.append((rate, RationalPolynomial(q)))
    if constant:
        parts.append((Fraction(0), RationalPolynomial([constant])))
    return PolyExpSum(parts)
