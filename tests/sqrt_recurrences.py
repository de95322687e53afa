"""Descending alpha/beta coefficient recurrences for the order-n sqrt form.

An independent route to ``erfkit.sqrtform.build_sqrt``: the library builds
the radicand by integrating the driving signal of f_n, while these
recurrences are written directly in the spline weights c_{n,k} and the
Hermite rows p(k, x). Tests assert that both give the same exact form.
"""

from fractions import Fraction

from erfkit.exact import RationalPolynomial, hermite_table, spline_coeff
from erfkit.sqrtform import SqrtForm


def alpha_coeffs(n: int) -> list:
    """pi-scaled coefficients of the e^(-x^2) polynomial, descending recurrence.

    Length m+1 with m = n for even n, n-1 for odd n; odd entries are zero.
    """
    table = hermite_table(n)
    m = n if n % 2 == 0 else n - 1
    alpha = [Fraction(0)] * (m + 1)
    if m == 0:
        alpha[0] = -4 * spline_coeff(n, 0) * table[0].coeff(0)
        return alpha
    alpha[m] = -4 * spline_coeff(n, m) * table[m].coeff(0)
    for i in range(1, m // 2):
        j = m - 2 * i
        alpha[j] = Fraction(j + 2, 2) * alpha[j + 2] - 4 * spline_coeff(n, j) * table[j].coeff(0)
    alpha[0] = alpha[2] - 4 * spline_coeff(n, 0) * table[0].coeff(0)
    return alpha


def beta_coeffs(n: int) -> list:
    """pi-scaled coefficients of the e^(-2x^2) polynomial, length 2n+1."""
    table = hermite_table(n)
    beta = [Fraction(0)] * (2 * n + 1)
    sign_n = -1 if n % 2 else 1
    beta[2 * n] = -2 * sign_n * spline_coeff(n, n) * table[n].coeff(n)
    if n == 0:
        return beta
    for i in range(1, n):
        j = 2 * n - 2 * i
        total = Fraction(0)
        for k in range(n - i, min(2 * n - 2 * i, n) + 1):
            sign = -1 if k % 2 else 1
            total += sign * spline_coeff(n, k) * table[k].coeff(2 * (n - i) - k)
        beta[j] = Fraction(j + 2, 4) * beta[j + 2] - 2 * total
    beta[0] = beta[2] / 2 - 2 * spline_coeff(n, 0) * table[0].coeff(0)
    return beta


def recurrence_sqrt(n: int) -> SqrtForm:
    """The order-n sqrt form assembled from the two recurrences."""
    alpha = alpha_coeffs(n)
    beta = beta_coeffs(n)
    return SqrtForm(
        base_order=n,
        q0=-(alpha[0] + beta[0]),
        terms=(
            (Fraction(1), RationalPolynomial(alpha)),
            (Fraction(2), RationalPolynomial(beta)),
        ),
    )
