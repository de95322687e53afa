"""Square-root-form approximants from the modulated-feedback differential equation.

Driving y' + g y = g with g(t) = (4/sqrt(pi)) e^(-t^2) f(t) turns any odd
poly-exp approximant f into y = 1 - exp(-S) with S available in closed form;
sqrt(S) then approximates erf with an error bounded on all of [0, inf).
Coefficients are rational multiples of 1/pi, so the radicand is stored
pi-scaled and stays exact; pi enters only at evaluation. ``sqrt_transform``
is the one construction: it integrates the driving signal exactly with
``exact.integrate_odd``, and ``build_sqrt(n)`` is its transform of f_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath as mp
from mpmath.libmp import fzero, mpf_div, mpf_sign, mpf_sqrt, round_nearest

from .exact import (
    PolyExpSum,
    RationalPolynomial,
    as_mpf,
    fraction_to_mpf,
    integrate_odd,
)
from .oracle import CTX34, OddApproximant, PrecisionContext, sqrt_pi
from .spline import build_spline


@dataclass(frozen=True)
class SqrtForm(OddApproximant):
    """Approximant sqrt(q0 + sum_i q_i(x) e^(-k_i x^2)) / sqrt(pi), all pi-scaled.

    q0 and the q_i coefficients are pi times the true radicand constants, so
    they are exact rationals; q0 -> pi as the base order grows. The radicand
    vanishes exactly at x = 0.
    """

    base_order: int
    q0: Fraction
    terms: tuple  # (rate, RationalPolynomial), pi-scaled

    def radicand(self) -> PolyExpSum:
        return self._radicand

    @cached_property
    def _radicand(self) -> PolyExpSum:
        return PolyExpSum(((Fraction(0), RationalPolynomial([self.q0])),) + self.terms)

    def limit_value(self, ctx: PrecisionContext = CTX34):
        """Value approached as x -> inf: sqrt(q0/pi)."""
        with ctx.workdps():
            return mp.sqrt(fraction_to_mpf(self.q0) / mp.pi)

    def radicand_value(self, x, ctx: PrecisionContext = CTX34):
        """pi-scaled radicand at x (may be a rounding hair below zero near 0)."""
        with ctx.workdps():
            return self.radicand().eval_raw(as_mpf(x))

    def positive(self, xm, ctx: PrecisionContext):
        return mp.make_mpf(self.root(self.radicand().eval_raw(xm)._mpf_, xm, ctx))

    def root(self, r: tuple, xm, ctx: PrecisionContext) -> tuple:
        """sqrt(r)/sqrt(pi) at the current precision, r the radicand at xm; both ``_mpf_`` tuples.

        A radicand a rounding hair below zero counts as 0; one further below is an ArithmeticError.
        """
        if mpf_sign(r) < 0:
            if (rm := mp.make_mpf(r)) < -(mp.mpf(10) ** (-(ctx.working_digits - 2))):
                msg = "radicand significantly negative at x=%s: %s"
                raise ArithmeticError(msg % (mp.nstr(xm, 8), mp.nstr(rm, 5)))
            r = fzero
        prec = mp.mp.prec
        return mpf_div(mpf_sqrt(r, prec, round_nearest), sqrt_pi()._mpf_, prec, round_nearest)


def sqrt_transform(base: PolyExpSum, base_order: int = -1) -> SqrtForm:
    """Sqrt form for any odd sqrt(pi)-scaled poly-exp base approximant.

    The pi-scaled radicand S satisfies S'(x) = 4 e^(-x^2) base(x) with
    S(0) = 0; ``integrate_odd`` gives it in closed form, which is exactly
    the mechanism that makes the feedback differential equation solvable.
    """
    for rate, poly in base.terms:
        if not poly.is_odd_poly():
            raise ValueError("sqrt_transform needs all-odd polynomials in the base")
    shifted = PolyExpSum([(rate + 1, 4 * poly) for rate, poly in base.terms])
    radicand = integrate_odd(shifted)
    q0 = radicand.poly_at(0).coeff(0)
    if radicand.poly_at(0).degree > 0:
        raise AssertionError("radicand polynomial part must be constant")
    terms = tuple((r, p) for r, p in radicand.terms if r != 0)
    return SqrtForm(base_order=base_order, q0=q0, terms=terms)


def build_sqrt(n: int) -> SqrtForm:
    """The order-n sqrt form: the feedback transform of f_n (rates 1 and 2)."""
    return sqrt_transform(build_spline(n).form, n)


def pi_constant_sequence(max_order: int) -> list:
    """Exact rationals pi * p_{n,0} for n = 0..max_order; converges to pi."""
    return [build_sqrt(n).q0 for n in range(max_order + 1)]


@dataclass(frozen=True)
class ComplementaryDemarcation:
    """e_C with e_C^2 + erf^2 = 1, realized from an order-n radicand."""

    base_order: int
    form: SqrtForm

    def value(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            xm = as_mpf(x)
            r = 1 - self.form.radicand_value(xm, ctx) / mp.pi
            if r < 0:
                r = mp.mpf(0)
            return mp.sqrt(r)

    def crossing(self, ctx: PrecisionContext = CTX34):
        """x where e_C meets the erf approximant, i.e. radicand = pi/2."""
        with ctx.workdps():
            target = mp.pi / 2

            def gap(x):
                return self.form.radicand_value(x, ctx) - target

            return mp.findroot(gap, mp.mpf("0.75"))


def complementary_demarcation(n: int) -> ComplementaryDemarcation:
    return ComplementaryDemarcation(n, build_sqrt(n))
