"""Rational approximants for exp(-x^2) and the residual-series erf expansions.

g_n comes from differentiating the order-n spline approximant and solving for
e^(-x^2); h_n is the earlier even/even rational form built from the same
quadrature weights. The erf series attach a truncated Taylor tail of the
residual derivative to f_n; tail coefficients are regenerated by term-wise
integration rather than transcribed, since the printed nested-product
denominators are ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import PolyExpSum, RationalPolynomial, as_mpf, spline_coeff
from .oracle import CTX34, PrecisionContext
from .spline import (
    PolyExpApproximant,
    SplineApproximant,
    build_spline,
    check_order,
    residual_derivative,
    residual_diagnostics,
)


@dataclass(frozen=True)
class RationalFunctionApproximant:
    """Even rational function with value 1 at the origin."""

    order: int
    numerator: RationalPolynomial
    denominator: RationalPolynomial

    def value(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            xm = as_mpf(x)
            return self.numerator.eval_mpf(xm) / self.denominator.eval_mpf(xm)


def gauss_g_parts(n: int) -> tuple:
    """Raw numerator/denominator of the derivative identity (before normalizing).

    numerator  = sum_k c_{n,k}(k+1) x^k p(k,0)
    denominator = 1 + sum_k c_{n,k}(-1)^(k+1) x^k [(k+1-2x^2) p(k,x) + x p'(k,x)]

    These are the two polynomials of sqrt(pi) eps'_n = -2 numerator + 2 denominator e^(-x^2).
    """
    form = residual_derivative(n)
    return form.poly_at(0) * Fraction(-1, 2), form.poly_at(1) * Fraction(1, 2)


def build_gauss_g(n: int) -> RationalFunctionApproximant:
    """g_n for exp(-x^2), normalized so both constant terms are 1."""
    num, den = gauss_g_parts(n)
    scale = 1 / num.coeff(0)
    if den.coeff(0) != num.coeff(0):
        raise AssertionError("g_n parts must share the constant term 1/2")
    return RationalFunctionApproximant(n, scale * num, scale * den)


def build_gauss_h(n: int) -> RationalFunctionApproximant:
    """h_n: numerator 1 - c_{n,0}x^2 + c_{n,1}x^4 - ..., denominator all-plus."""
    check_order("gauss_h", n)
    num = [Fraction(0)] * (2 * n + 3)
    den = [Fraction(0)] * (2 * n + 3)
    num[0] = den[0] = Fraction(1)
    for k in range(n + 1):
        c = spline_coeff(n, k)
        num[2 * k + 2] = c * (-1) ** (k + 1)
        den[2 * k + 2] = c
    return RationalFunctionApproximant(n, RationalPolynomial(num), RationalPolynomial(den))


@dataclass(frozen=True)
class ErfSeriesApproximant(PolyExpApproximant):
    """f_n plus a truncated odd-power tail for the residual; tail is sqrt(pi)-scaled."""

    base_order: int
    base: SplineApproximant
    tail_terms: int
    tail: RationalPolynomial

    @cached_property
    def form(self) -> PolyExpSum:
        return self.base.form + PolyExpSum([(0, self.tail)])


def build_erf_series(n: int, tail_terms: int) -> ErfSeriesApproximant:
    """Series erf = f_n + integral of the Taylor-expanded residual derivative.

    The tail coefficient of x^(2n+3+2k) is g-series coefficient k divided by
    (2n+3+2k) and by x_{n,0}; adding terms never changes earlier coefficients.
    """
    if tail_terms < 1:
        raise ValueError("tail_terms must be >= 1")
    diag = residual_diagnostics(n, tail_terms)
    coeffs = [Fraction(0)] * (2 * n + 3 + 2 * (tail_terms - 1) + 1)
    for k, s in enumerate(diag.g_series):
        power = 2 * n + 3 + 2 * k
        coeffs[power] = s / (power * diag.x_n0)
    return ErfSeriesApproximant(n, build_spline(n), tail_terms, RationalPolynomial(coeffs))
