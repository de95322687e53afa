"""Number formatting, human-readable formula strings and JSON payloads.

Decimal output is produced from each value's exact integer ratio, rounded
half to even on ints at the requested significant-digit count, so CSV/JSON
artifacts are reproducible bit-for-bit. The JSON schema for generated
approximants is "erfkit-approximant/1"; rationals travel as "num/den"
strings, so every payload but a grid table's decimal increments round-trips
losslessly.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .exact import ZERO, PolyExpSum, RationalPolynomial


def decimal_string(value, sig_digits: int) -> str:
    """Normalized scientific string of a rational/mpf, round-half-even.

    The value is read exactly as an integer ratio (an mpf's mantissa over a
    power of two) and rounded on ints only, so the printed digits are correct
    for any magnitude. NaN and infinities raise ValueError.
    """
    if sig_digits < 1:
        raise ValueError("need at least one significant digit")
    if isinstance(value, (Fraction, int)):
        num, den = value.as_integer_ratio()
    else:
        negative, num, exp, _ = mp.mpf(value)._mpf_
        if not num and exp:  # NaN or an infinity
            raise ValueError("cannot convert non-finite value %r" % (value,))
        num, den = (-num if negative else num) << max(exp, 0), 1 << max(-exp, 0)
    if not num:
        return "0"
    sign, num = ("-", -num) if num < 0 else ("", num)
    # the decimal exponent e (10^e <= num/den < 10^(e+1)) from the bit lengths, then corrected
    e, low = (num.bit_length() - den.bit_length()) * 1233 >> 12, 10 ** (sig_digits - 1)
    while True:  # q + r/d: num/den scaled to sig_digits integer digits
        shift = sig_digits - 1 - e
        n, d = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
        q, r = divmod(n, d)
        if low <= q < 10 * low:
            break
        e += 1 if q >= low else -1
    if 2 * r > d or (2 * r == d and q & 1):  # half to even
        q += 1
    if q == 10 * low:  # rounding carried into a new digit
        q, e = low, e + 1
    digits = str(q)
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
    """decimal_string of x rounded first to an mpf at the current precision (mp.prec)."""
    return decimal_string(mp.mpf(x), digits)
