"""Single-interval spline approximants to erf and their residual diagnostics.

The order-n form is
    f_n(x) = (2/sqrt(pi)) * sum_k c_{n,k} x^(k+1) [p(k,0) + (-1)^k p(k,x) e^(-x^2)]
stored exactly as a PolyExpSum scaled by sqrt(pi); the 1/sqrt(pi) prefactor is
applied once at evaluation. All approximants extend to negative arguments by
odd symmetry (the polynomials involved are all odd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .exact import (
    PolyExpSum,
    RationalPolynomial,
    ZERO_POLY,
    as_mpf,
    hermite_at_zero,
    hermite_table,
    spline_coeff,
)
from .oracle import CTX34, OddApproximant, PrecisionContext, sqrt_pi


class PolyExpApproximant(OddApproximant):
    """Odd erf approximant whose ``form`` is sqrt(pi) times its value on x >= 0."""

    def positive(self, xm, ctx: PrecisionContext):
        return self.form.eval_raw(xm) / sqrt_pi()


@dataclass(frozen=True)
class SplineApproximant(PolyExpApproximant):
    """Order-n two-point spline approximant; ``form`` is sqrt(pi) * f_n."""

    order: int
    form: PolyExpSum


def build_spline(n: int) -> SplineApproximant:
    """Generate f_n with exact rational coefficients (decay rates {0, 1})."""
    if n < 0 or n > 64:
        raise ValueError("spline order must be in 0..64, got %r" % n)
    table = hermite_table(n)
    poly0 = ZERO_POLY
    poly1 = ZERO_POLY
    for k in range(n + 1):
        c2 = 2 * spline_coeff(n, k)
        pk0 = hermite_at_zero(k)
        if pk0:
            poly0 = poly0 + RationalPolynomial([c2 * pk0]).mul_x_power(k + 1)
        sign = -1 if k % 2 else 1
        poly1 = poly1 + (sign * c2) * table[k].mul_x_power(k + 1)
    return SplineApproximant(n, PolyExpSum([(0, poly0), (1, poly1)]))


def residual_derivative(n: int) -> PolyExpSum:
    """Exact derivative of the residual erf - f_n, stored as sqrt(pi)*eps'_n.

    sqrt(pi)*eps'_n = 2e^(-x^2)
        - 2 sum_k c_{n,k}(k+1) x^k p(k,0)
        - 2e^(-x^2) sum_k c_{n,k}(-1)^k x^k [(k+1-2x^2) p(k,x) + x p'(k,x)]
    """
    table = hermite_table(n)
    poly0 = ZERO_POLY
    poly1 = RationalPolynomial([2])
    for k in range(n + 1):
        c = spline_coeff(n, k)
        pk0 = hermite_at_zero(k)
        if pk0:
            poly0 = poly0 + RationalPolynomial([-2 * c * (k + 1) * pk0]).mul_x_power(k)
        pk = table[k]
        bracket = RationalPolynomial([k + 1, 0, -2]) * pk + pk.derivative().mul_x_power(1)
        sign = 1 if k % 2 else -1  # (-1)^(k+1)
        poly1 = poly1 + (2 * sign * c) * bracket.mul_x_power(k)
    return PolyExpSum([(0, poly0), (1, poly1)])


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Leading structure of eps'_n: sqrt(pi) x_{n,0} eps'_n(x) / x^(2n+2) = g_n(x)."""

    order: int
    x_n0: int
    g_series: tuple  # signed Taylor coefficients of g_n in powers of x^2


def residual_scale(n: int) -> int:
    """x_{n,0} = 2^n * prod_{i=0..n} (2i+1)."""
    return 2**n * math.prod(2 * i + 1 for i in range(n + 1))


def taylor_expand(form: PolyExpSum, max_power: int) -> RationalPolynomial:
    """Exact Taylor polynomial (through x^max_power) of a poly-exp sum."""
    out = [Fraction(0)] * (max_power + 1)
    for rate, poly in form.terms:
        if rate == 0:
            expansion = poly
        else:
            coeffs = [Fraction(0)] * (max_power + 1)
            for j in range(max_power // 2 + 1):
                coeffs[2 * j] = Fraction((-1) ** j) * rate**j / math.factorial(j)
            expansion = poly * RationalPolynomial(coeffs)
        for i, c in enumerate(expansion.coeffs[: max_power + 1]):
            out[i] += c
    return RationalPolynomial(out)


def residual_diagnostics(n: int, truncation_terms: int = 8) -> ResidualDiagnostics:
    """Taylor structure of the residual derivative around 0.

    Verifies that coefficients below x^(2n+2) vanish and that the normalized
    series starts exactly at 1.
    """
    x_n0 = residual_scale(n)
    max_power = 2 * n + 2 + 2 * (truncation_terms - 1)
    expansion = taylor_expand(residual_derivative(n), max_power)
    for i in range(min(2 * n + 2, len(expansion.coeffs))):
        if expansion.coeffs[i]:
            raise AssertionError(
                "residual derivative of order %d has nonzero x^%d term" % (n, i)
            )
    series = []
    for k in range(truncation_terms):
        series.append(x_n0 * expansion.coeff(2 * n + 2 + 2 * k))
    if series[0] != 1:
        raise AssertionError("normalized residual series must start at 1")
    return ResidualDiagnostics(n, x_n0, tuple(series))


@dataclass(frozen=True)
class IntervalSpline:
    """Order-n spline approximation of erf(x) - erf(alpha) over [alpha, x].

    The e^(-alpha^2) weight is carried symbolically (alpha stored exactly)
    and applied at evaluation; poly_alpha/poly_x are sqrt(pi)-scaled.
    """

    order: int
    alpha: Fraction
    poly_alpha: RationalPolynomial
    poly_x: RationalPolynomial

    def value(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            xm = as_mpf(x)
            ea = mp.exp(-mp.mpf(self.alpha.numerator) ** 2 / self.alpha.denominator**2)
            ex = mp.exp(-xm * xm)
            return (self.poly_alpha.eval_mpf(xm) * ea + self.poly_x.eval_mpf(xm) * ex) / sqrt_pi()


def build_interval_spline(n: int, alpha) -> IntervalSpline:
    """General-interval form: (2/sqrt(pi)) sum_k c_{n,k} (x-a)^(k+1) [p(k,a)e^(-a^2) + (-1)^k p(k,x)e^(-x^2)]."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    table = hermite_table(n)
    shift = RationalPolynomial([-alpha, 1])
    shift_pow = shift
    poly_alpha = ZERO_POLY
    poly_x = ZERO_POLY
    for k in range(n + 1):
        c2 = 2 * spline_coeff(n, k)
        pka = table[k].evaluate(alpha)
        if pka:
            poly_alpha = poly_alpha + (c2 * pka) * shift_pow
        sign = -1 if k % 2 else 1
        poly_x = poly_x + (sign * c2) * (shift_pow * table[k])
        shift_pow = shift_pow * shift
    return IntervalSpline(n, alpha, poly_alpha, poly_x)


class ConstantOneTail(OddApproximant):
    """Large-argument approximation erf(x) ~ 1 (signed for negative x)."""

    def positive(self, xm, ctx: PrecisionContext):
        return mp.mpf(1)


class GaussTail:
    """Large-argument approximation erf(x) ~ 1 - e^(-x^2)/(sqrt(pi) x), x > 0."""

    def value(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            xm = as_mpf(x)
            if xm <= 0:
                raise ValueError("second tail form requires x > 0")
            return 1 - mp.exp(-xm * xm) / (sqrt_pi() * xm)


def tail_approximants():
    """The two x >> 1 closed forms used in sweeps and crossover studies."""
    return ConstantOneTail(), GaussTail()
