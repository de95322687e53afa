"""Spline approximants to erf, their one exact generator, and residual diagnostics.

The order-n two-point spline rule for the integral of e^(-t^2), applied on m
equal sub-intervals of [0, x], gives f_{n,m} (``spline_form``); f_n is its
m = 1 case,
    f_n(x) = (2/sqrt(pi)) * sum_k c_{n,k} x^(k+1) [p(k,0) + (-1)^k p(k,x) e^(-x^2)].
Forms are stored exactly as a PolyExpSum scaled by sqrt(pi); the 1/sqrt(pi)
prefactor is applied once at evaluation. All approximants extend to negative
arguments by odd symmetry (the polynomials involved are all odd). On a fixed
interval [alpha, x] the rule is ``IntervalSpline``, evaluated numerically in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .exact import (
    PolyExpSum,
    RationalPolynomial,
    as_mpf,
    fraction_to_mpf,
    hermite_table,
    hermite_values_mpf,
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


def check_order(family: str, n: int) -> int:
    """n itself if it is an order of the spline rule, 0..64; else a ValueError naming the family."""
    if n < 0 or n > 64:
        raise ValueError("%s order must be in 0..64, got %r" % (family, n))
    return n


def build_spline(n: int) -> SplineApproximant:
    """Generate f_n, the one-interval case of ``spline_form`` (decay rates {0, 1})."""
    return SplineApproximant(n, spline_form(check_order("spline", n), 1))


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
    """Order-n two-point spline rule for erf(x) - erf(alpha) over [alpha, x], alpha exact.

    (2/sqrt(pi)) sum_k c_{n,k} (x-alpha)^(k+1) [p(k,alpha)e^(-alpha^2) + (-1)^k p(k,x)e^(-x^2)],
    evaluated numerically in x - alpha, so no power of x cancels at large alpha.
    The alpha side is rounded once per binary precision.
    """

    order: int
    alpha: Fraction
    _rounded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_order("interval spline", self.order)

    def _correction(self, xm):
        """The rule at the current precision for an mpf x."""
        rounded = self._rounded.get(mp.mp.prec)
        if rounded is None:  # 2c_{n,k}, p(k,alpha)e^(-alpha^2) and alpha at this precision
            alpha_m = fraction_to_mpf(self.alpha)
            ealpha = mp.exp(-alpha_m * alpha_m)
            weights = [fraction_to_mpf(2 * spline_coeff(self.order, k)) for k in range(self.order + 1)]
            left = [fraction_to_mpf(p.evaluate(self.alpha)) * ealpha for p in hermite_table(self.order)]
            rounded = self._rounded[mp.mp.prec] = (weights, left, alpha_m)
        weights, left, alpha_m = rounded
        offset = xm - alpha_m
        px = hermite_values_mpf(self.order, xm)
        ex = mp.exp(-xm * xm)
        acc = mp.mpf(0)
        wk = offset
        for k, ck in enumerate(weights):
            right = px[k] * ex if k % 2 == 0 else -px[k] * ex
            acc += ck * wk * (left[k] + right)
            wk *= offset
        return acc / sqrt_pi()

    def value(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            return self._correction(as_mpf(x))


def build_interval_spline(n: int, alpha) -> IntervalSpline:
    """The order-n rule on [alpha, x] for a rational alpha >= 0."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return IntervalSpline(n, alpha)
