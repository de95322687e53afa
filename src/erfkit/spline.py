"""Spline approximants to erf, their one exact generator, and residual diagnostics.

The order-n two-point spline rule for the integral of e^(-t^2), applied on m
equal sub-intervals of [0, x], gives f_{n,m} (``spline_form``); f_n is its
m = 1 case,
    f_n(x) = (2/sqrt(pi)) * sum_k c_{n,k} x^(k+1) [p(k,0) + (-1)^k p(k,x) e^(-x^2)].
Forms are stored exactly as a PolyExpSum scaled by sqrt(pi); the 1/sqrt(pi)
prefactor is applied once at evaluation. All approximants extend to negative
arguments by odd symmetry (the polynomials involved are all odd).
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


def spline_form(n: int, m: int) -> PolyExpSum:
    """sqrt(pi) * f_{n,m}: the order-n rule on each [jx/m, (j+1)x/m], collected by endpoint.

    Each endpoint t = j/m is walked once. Term k carries weight 1 there as a
    left end (j < m) and (-1)^k as a right end (j > 0), so interior odd-k
    terms cancel; the Hermite coefficient a_i of p(k, t x) contributes
    2 c_{n,k} a_i t^i / m^(k+1) to the power i+k+1 under e^(-t^2 x^2).
    """
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


def build_spline(n: int) -> SplineApproximant:
    """Generate f_n, the one-interval case of ``spline_form`` (decay rates {0, 1})."""
    if n < 0 or n > 64:
        raise ValueError("spline order must be in 0..64, got %r" % n)
    return SplineApproximant(n, spline_form(n, 1))


def residual_derivative(n: int) -> PolyExpSum:
    """Exact derivative of the residual erf - f_n: sqrt(pi)*eps'_n = 2e^(-x^2) - sqrt(pi)*f_n'."""
    return PolyExpSum([(1, [2])]) - build_spline(n).form.differentiate()


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
