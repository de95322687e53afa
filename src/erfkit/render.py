"""Number formatting, human-readable formula strings and JSON payloads.

Decimal output is produced from exact rationals with round-half-even at the
requested significant-digit count, so CSV/JSON artifacts are reproducible
bit-for-bit. The JSON schema for generated approximants is
"erfkit-approximant/1"; rationals travel as "num/den" strings, so every
payload but a grid table's decimal increments round-trips losslessly.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .exact import PolyExpSum, RationalPolynomial, mpf_to_fraction


def decimal_string(value, sig_digits: int) -> str:
    """Normalized scientific string of a rational/mpf, round-half-even.

    The rounding is done with exact integer arithmetic on the rational value
    of the input, so the printed digits are correct for any magnitude.
    """
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
    while 10**e * den > num:
        e -= 1
    while 10 ** (e + 1) * den <= num:
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


def frac_str(q: Fraction) -> str:
    """Lossless 'num/den' form used in JSON payloads."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


def _coeff_piece(c: Fraction, power: int) -> str:
    mag = abs(c)
    if power == 0:
        return str(mag)
    xs = "x" if power == 1 else "x^%d" % power
    if mag == 1:
        return xs
    return "%s %s" % (mag, xs)


def poly_str(poly: RationalPolynomial, wrap: bool = False) -> str:
    """Readable polynomial like 'x - 1/30 x^3'; optionally parenthesized."""
    if not poly:
        return "0"
    pieces = []
    for power, c in enumerate(poly.coeffs):
        if not c:
            continue
        piece = _coeff_piece(c, power)
        if not pieces:
            pieces.append("-" + piece if c < 0 else piece)
        else:
            pieces.append(("- " if c < 0 else "+ ") + piece)
    out = " ".join(pieces)
    if wrap and len([c for c in poly.coeffs if c]) > 1:
        return "(%s)" % out
    return out


def _exp_str(rate: Fraction) -> str:
    if rate == 1:
        return "e^(-x^2)"
    return "e^(-%s x^2)" % rate


def polyexp_str(form: PolyExpSum) -> str:
    """Readable poly-exp sum, e.g. 'x - 1/30 x^3 + (x + ...) e^(-x^2)'."""
    pieces = []
    for rate, poly in form.terms:
        if rate == 0:
            body = poly_str(poly)
            negative = False
        else:
            nonzero = [c for c in poly.coeffs if c]
            negative = all(c < 0 for c in nonzero)
            shown = -poly if negative else poly
            if len(nonzero) == 1:
                power = max(i for i, c in enumerate(shown.coeffs) if c)
                c = shown.coeffs[power]
                lead = "" if (c == 1 and power == 0) else _coeff_piece(c, power) + " "
                body = "%s%s" % (lead, _exp_str(rate))
            else:
                body = "%s %s" % (poly_str(shown, wrap=True), _exp_str(rate))
        if not pieces:
            pieces.append(("-" + body) if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def polyexp_payload(form: PolyExpSum) -> list:
    return [
        {"rate": frac_str(rate), "coefficients": [frac_str(c) for c in poly.coeffs]}
        for rate, poly in form.terms
    ]


def parse_polyexp(payload: list) -> PolyExpSum:
    return PolyExpSum((t["rate"], t["coefficients"]) for t in payload)


def mp_str(x, digits: int) -> str:
    """Decimal string of an mpf at the given significant digits (half-even)."""
    return decimal_string(mpf_to_fraction(mp.mpf(x)), digits)
