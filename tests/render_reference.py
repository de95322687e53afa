"""The Fraction-based decimal_string that the integer rounding in ``render`` replaced.

One change: its exponent search compares with exact Fraction powers of ten. It used
10**e, a float for e < 0, so an mpf just below 10^e printed one digit short (1e-6 at
53 bits as 9.99...e-06 with 33 of 34 digits), and a value under about 1e-290 with a
long binary denominator raised OverflowError.
"""

from fractions import Fraction

import mpmath as mp

from erfkit.exact import mpf_to_fraction


def decimal_string_reference(value, sig_digits: int) -> str:
    """Normalized scientific string of a rational/mpf, round-half-even, on Fractions."""
    if sig_digits < 1:
        raise ValueError("need at least one significant digit")
    if not isinstance(value, (Fraction, int)):
        value = mpf_to_fraction(mp.mpf(value))
    frac = Fraction(value)
    if frac == 0:
        return "0"
    sign = "-" if frac < 0 else ""
    a = abs(frac)
    # decimal exponent: largest e with 10^e <= a
    num, den = a.numerator, a.denominator
    e = len(str(num)) - len(str(den))
    while Fraction(10) ** e * den > num:
        e -= 1
    while Fraction(10) ** (e + 1) * den <= num:
        e += 1
    # scale to sig_digits integer digits and round half-even
    shift = sig_digits - 1 - e
    scaled = a * Fraction(10) ** shift
    n, d = scaled.numerator, scaled.denominator
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    digits = str(q)
    if len(digits) == sig_digits + 1:  # rounding carried into a new digit
        digits = digits[:-1]
        e += 1
    mantissa = digits[0] + ("." + digits[1:] if sig_digits > 1 else "")
    return "%s%se%+03d" % (sign, mantissa, e)
