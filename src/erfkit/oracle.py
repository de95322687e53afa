"""High-precision reference values for erf and the modified Bessel terms.

The erf oracle sums the cancellation-free confluent series
(2/sqrt(pi)) e^(-x^2) sum_n 2^n x^(2n+1) / (1*3*...*(2n+1)); every term is
positive, so the truncation error is bounded by the first omitted term times
a geometric factor and no x-dependent guard is needed. The alternating
Taylor series would lose about x^2 * log10(e) digits to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .exact import as_mpf


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal working precision plus guard digits for intermediate sums."""

    working_digits: int = 34
    guard_digits: int = 10

    def __post_init__(self):
        if self.working_digits < 16:
            raise ValueError("working_digits must be >= 16")
        if self.guard_digits < 10:
            raise ValueError("guard_digits must be >= 10")

    @property
    def total_digits(self) -> int:
        return self.working_digits + self.guard_digits

    def workdps(self):
        """mpmath context manager running at working+guard digits."""
        return mp.workdps(self.total_digits)

    def doubled(self) -> "PrecisionContext":
        return PrecisionContext(2 * self.working_digits, self.guard_digits)


CTX34 = PrecisionContext(34, 10)
CTX70 = PrecisionContext(70, 10)


def sqrt_pi():
    """sqrt(pi) at the current working precision (never hard-coded)."""
    return mp.sqrt(mp.pi)


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

    Accurate to <= 1 unit in the last working digit. Negative arguments are
    handled by odd symmetry. The series is truncated once the term-to-sum
    ratio drops below 10^-(working+guard) digits and the term ratio
    2x^2/(2n+3) has fallen below 1/2 (geometric tail).
    """
    with ctx.workdps():
        xm = as_mpf(x)
        if xm < 0:
            return -erf_ref(-xm, ctx)
        if xm == 0:
            return mp.mpf(0)
        eps = mp.mpf(10) ** (-ctx.total_digits)
        t = 2 * xm * xm
        term = xm
        total = term
        n = 0
        while True:
            ratio = t / (2 * n + 3)
            term = term * ratio
            assert term > 0, "oracle series terms must stay positive"
            total += term
            n += 1
            if ratio < mp.mpf(1) / 2 and term < eps * total:
                break
        return 2 * mp.exp(-xm * xm) * total / sqrt_pi()


def bessel_i(order: int, z, ctx: PrecisionContext = CTX34):
    """Modified Bessel I_0 or I_1 by its all-positive power series."""
    if order not in (0, 1):
        raise ValueError("bessel_i supports order 0 or 1, got %r" % order)
    with ctx.workdps():
        zm = as_mpf(z)
        if zm < 0:
            raise ValueError("bessel_i requires z >= 0, got %r" % z)
        half = zm / 2
        eps = mp.mpf(10) ** (-ctx.total_digits)
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


def relative_error(approx_value, ref_value):
    """Signed relative error 1 - approx/ref; the reference must be nonzero."""
    ref = as_mpf(ref_value)
    if ref == 0:
        raise ValueError("relative_error undefined for ref_value = 0")
    return 1 - as_mpf(approx_value) / ref
