"""High-precision reference values for erf and the modified Bessel terms.

The erf oracle sums the cancellation-free confluent series
(2/sqrt(pi)) e^(-x^2) sum_n 2^n x^(2n+1) / (1*3*...*(2n+1)); every term is
positive, so the truncation error is bounded by the first omitted term times
a geometric factor and no x-dependent guard is needed. The alternating
Taylor series would lose about x^2 * log10(e) digits to cancellation. An mpf
argument enters the summing loop with no context switch (``erf_ref``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_div, mpf_exp, mpf_mul, mpf_neg
from mpmath.libmp import mpf_pos, mpf_shift, round_nearest

from .exact import _rounded, as_mpf

GUARD_DIGITS = 10  # extra decimal digits every intermediate sum carries


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal working precision; intermediate sums add GUARD_DIGITS. ``prec``: workdps()'s bits."""

    working_digits: int = 34

    def __post_init__(self):
        if self.working_digits < 16:
            raise ValueError("working_digits must be >= 16")
        object.__setattr__(self, "prec", dps_to_prec(self.total_digits))

    @property
    def total_digits(self) -> int:
        return self.working_digits + GUARD_DIGITS

    def workdps(self):
        """mpmath context manager running at working+guard digits."""
        return mp.workdps(self.total_digits)

    def doubled(self) -> "PrecisionContext":
        return PrecisionContext(2 * self.working_digits)


CTX34 = PrecisionContext(34)
CTX70 = PrecisionContext(70)


@lru_cache(maxsize=64)
def _sqrt_pi(prec: int):
    with mp.workprec(prec):
        return mp.sqrt(mp.pi)


def sqrt_pi():
    """sqrt(pi) at the current working precision (never hard-coded), once per precision."""
    return _sqrt_pi(mp.mp.prec)


@lru_cache(maxsize=64)
def _series_eps(total_digits: int):
    """10^-total_digits, rounded at that many digits: the series truncation threshold."""
    with mp.workdps(total_digits):
        return mp.mpf(10) ** (-total_digits)


class OddApproximant:
    """Odd erf approximant; subclasses give ``positive(xm, ctx)`` for mpf xm >= 0.

    ``value`` converts x at the working precision of ctx (NaN and infinities
    raise ValueError) and extends ``positive`` to x < 0 by odd symmetry.
    """

    def value(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            xm = as_mpf(x)
            if xm < 0:
                return -self.positive(-xm, ctx)
            return self.positive(xm, ctx)


def erf_ref(x, ctx: PrecisionContext = CTX34):
    """Reference erf via the all-positive-terms confluent series.

    Accurate to <= 1 unit in the last working digit, and odd. An mpf x is
    rounded once at ``ctx.prec`` and read as a libmp tuple, any other through
    ``as_mpf`` in ``ctx.workdps()`` (NaN and infinities raise ValueError). The
    series stops once the term-to-sum ratio is below 10^-(working + guard) and
    the term ratio 2x^2/(2n+3) below 1/2 (a geometric tail).

    The sum runs on Python ints: t = 2x^2, ratio, term, total and eps*total
    are (mantissa, exponent) pairs, each rounded once to prec bits, half to
    even, inline as in ``exact.horner``; both comparisons are exact. The
    prefactor is libmp calls at round_nearest. So the result is bit for bit
    that of the same loop on mpf values, which rounds the same operations.
    """
    prec = ctx.prec
    if isinstance(x, mp.mpf) and x._mpf_[1]:  # nonzero and finite
        xt = mpf_pos(x._mpf_, prec, round_nearest)
    else:
        with ctx.workdps():
            xt = as_mpf(x)._mpf_
    sign, sm, se, _ = xt  # term = |x|
    if not sm:
        return mp.mpf(0)
    _, em, ee, _ = _series_eps(ctx.total_digits)._mpf_
    xx = mpf_mul(xt, xt, prec, round_nearest)
    _, tm, te, tbc = mpf_shift(xx, 1)  # t = 2x^2
    total_m, total_e = sm, se
    d = 3  # 2n + 3
    while True:
        # ratio = t / d: a quotient of >= prec + 3 bits plus a sticky bit
        k = prec + 3 + d.bit_length() - tbc
        q, r = divmod(tm << k, d)
        if r:
            q = (q << 1) | 1
            k += 1
        n = q.bit_length() - prec
        h = q >> (n - 1)
        ratio_m = (h >> 1) + 1 if h & 1 and (h & 2 or h << (n - 1) != q) else h >> 1
        ratio_e = te - k + n
        sm *= ratio_m
        se += ratio_e
        n = sm.bit_length() - prec
        if n > 0:
            h = sm >> (n - 1)
            sm = (h >> 1) + 1 if h & 1 and (h & 2 or h << (n - 1) != sm) else h >> 1
            se += n
        assert sm > 0, "oracle series terms must stay positive"
        top = sm.bit_length() + se
        # total >= term, so only the term can lie below horner's prec + 4 cut-off
        if total_m.bit_length() + total_e - top <= prec + 4:
            if total_e > se:
                total_m = (total_m << (total_e - se)) + sm
                total_e = se
            else:
                total_m += sm << (se - total_e)
            n = total_m.bit_length() - prec
            if n > 0:
                h = total_m >> (n - 1)
                up = h & 1 and (h & 2 or h << (n - 1) != total_m)
                total_m = (h >> 1) + 1 if up else h >> 1
                total_e += n
        d += 2
        # ratio < 1/2: stop once term < eps*total. eps*total < 2^L, L = bits(em) + ee
        # + bits(total_m) + total_e, and <= 2^L rounded; term >= 2^(top - 1), so for
        # top >= L + 1 the loop cannot stop and the rounded product is not formed
        if ratio_m.bit_length() + ratio_e < 0 and top <= (
            em.bit_length() + ee + total_m.bit_length() + total_e
        ):
            pm, pe = _rounded(em * total_m, ee + total_e, prec)
            if sm << (se - pe) < pm if se >= pe else sm < pm << (pe - se):  # term < eps*total
                break
    # 2 e^(-x^2) total / sqrt(pi), rounded as the mpf expression rounds it; total takes x's sign
    value = mpf_shift(mpf_exp(mpf_neg(xx), prec, round_nearest), 1)
    total = from_man_exp(-total_m if sign else total_m, total_e)
    value = mpf_mul(value, total, prec, round_nearest)
    return mp.make_mpf(mpf_div(value, _sqrt_pi(prec)._mpf_, prec, round_nearest))


def bessel_i(order: int, z, ctx: PrecisionContext = CTX34):
    """Modified Bessel I_0 or I_1 by its all-positive power series."""
    if order not in (0, 1):
        raise ValueError("bessel_i supports order 0 or 1, got %r" % order)
    with ctx.workdps():
        zm = as_mpf(z)
        if zm < 0:
            raise ValueError("bessel_i requires z >= 0, got %r" % z)
        half = zm / 2
        eps = _series_eps(ctx.total_digits)
        term = half if order == 1 else mp.mpf(1)
        total = term
        if zm == 0:
            return total
        u = half * half
        k = 0
        while True:
            term = term * u / ((k + 1) * (k + 1 + order))
            assert term > 0
            total += term
            k += 1
            if term < eps * total:
                break
        return total
