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

from .exact import ZERO, PolyExpSum, RationalPolynomial, mpf_to_fraction


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
    """Lossless 'num/den' form used in JSON payloads, of a Fraction or an int (lowest terms)."""
    return "%d/%d" % q.as_integer_ratio()


def parse_frac(s: str) -> Fraction:
    """The Fraction of a payload's "num/den" string (frac_str's form) or integer string."""
    return Fraction(*map(int, s.split("/", 1)))


def coeff_strs(poly: RationalPolynomial) -> list:
    """The "num/den" payload strings of a polynomial's coefficients, lowest power first."""
    return [frac_str(c) if c else "0/1" for c in poly.coeffs]


def _pieces(coeffs: list) -> list:
    """(negative, |term|) of each nonzero "num/den" coefficient string, lowest power first."""
    out = []
    for power, s in enumerate(coeffs):
        if s != "0/1":
            mag = s.removeprefix("-").removesuffix("/1")
            if power:
                xs = "x^%d" % power if power > 1 else "x"
                mag = xs if mag == "1" else "%s %s" % (mag, xs)
            out.append((s[0] == "-", mag))
    return out


def _join(pieces: list, flip: bool = False) -> str:
    """Signed pieces as 'a - b + c', every sign flipped if flip."""
    out = []
    for negative, piece in pieces:
        if negative != flip:
            out.append("- " + piece if out else "-" + piece)
        else:
            out.append("+ " + piece if out else piece)
    return " ".join(out)


def poly_str(poly: RationalPolynomial) -> str:
    """Readable polynomial like 'x - 1/30 x^3'."""
    return _join(_pieces(coeff_strs(poly))) or "0"


def polyexp_str(form: PolyExpSum) -> str:
    """Readable poly-exp sum, e.g. 'x - 1/30 x^3 + (x + ...) e^(-x^2)'."""
    return payload_str(polyexp_payload(form))


def payload_str(terms: list) -> str:
    """polyexp_str of a polyexp_payload list, printed from its strings."""
    out = []
    for term in terms:
        rate, pieces = term["rate"], _pieces(term["coefficients"])
        exp = "e^(-x^2)" if rate == "1/1" else "e^(-%s x^2)" % rate.removesuffix("/1")
        negative = rate != "0/1" and all(neg for neg, _ in pieces)  # shown with its sign outside
        if rate == "0/1":
            body = _join(pieces)
        elif len(pieces) == 1:
            piece = pieces[0][1]
            body = (piece + " " if piece != "1" else "") + exp
        else:
            body = "(%s) %s" % (_join(pieces, negative), exp)
        out.append((negative, body))
    return _join(out)


def polyexp_payload(form: PolyExpSum) -> list:
    return [{"rate": frac_str(rate), "coefficients": coeff_strs(poly)} for rate, poly in form.terms]


def parse_poly(strs: list) -> RationalPolynomial:
    """The polynomial of a payload's coefficient strings; every "0/1" shares one Fraction."""
    return RationalPolynomial([ZERO if s == "0/1" else parse_frac(s) for s in strs])


def parse_polyexp(payload: list) -> PolyExpSum:
    return PolyExpSum((parse_frac(t["rate"]), parse_poly(t["coefficients"])) for t in payload)


def mp_str(x, digits: int) -> str:
    """Decimal string of an mpf at the given significant digits (half-even)."""
    return decimal_string(mpf_to_fraction(mp.mpf(x)), digits)
