"""Spline approximants over m equal-width sub-intervals of [0, x].

Applying the order-n interval rule to each [ix/m, (i+1)x/m] and collecting
terms by the exact rational decay rate i^2/m^2 produces a PolyExpSum with
exactly m+1 distinct rates. Interior odd-k contributions cancel through the
1+(-1)^k factor, which the generator reproduces automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import PolyExpSum, hermite_table, spline_coeff
from .spline import PolyExpApproximant


@dataclass(frozen=True)
class SubintervalApproximant(PolyExpApproximant):
    """Order-n, m-sub-interval approximant; ``form`` is sqrt(pi) * f_{n,m}."""

    order: int
    subintervals: int
    form: PolyExpSum


def build_subinterval(n: int, m: int) -> SubintervalApproximant:
    """Exact f_{n,m}: order n <= 32 over m <= 64 equal sub-intervals."""
    if m < 1 or m > 64:
        raise ValueError("subinterval count must be in 1..64, got %r" % m)
    if n < 0 or n > 32:
        raise ValueError("order must be in 0..32, got %r" % n)
    table = hermite_table(n)
    terms = []
    for i in range(m):
        left = Fraction(i, m)
        right = Fraction(i + 1, m)
        for k in range(n + 1):
            c2 = 2 * spline_coeff(n, k) / Fraction(m) ** (k + 1)
            pk_left = table[k].compose_scale(left).mul_x_power(k + 1)
            terms.append((left * left, c2 * pk_left))
            sign = -1 if k % 2 else 1
            pk_right = table[k].compose_scale(right).mul_x_power(k + 1)
            terms.append((right * right, (sign * c2) * pk_right))
    return SubintervalApproximant(n, m, PolyExpSum(terms))


@dataclass(frozen=True)
class CoefficientMismatch:
    rate: Fraction
    power: int
    generated: Fraction
    transcribed: Fraction


@dataclass(frozen=True)
class CrosscheckReport:
    order: int
    subintervals: int
    rates_generated: int
    rates_transcribed: int
    mismatches: tuple

    @property
    def clean(self) -> bool:
        return not self.mismatches and self.rates_generated == self.rates_transcribed


def crosscheck_against(form: PolyExpSum, transcription: PolyExpSum, n: int, m: int) -> CrosscheckReport:
    """Coefficient-by-coefficient comparison of generated vs transcribed forms.

    Mismatches are reported, not raised: numerical acceptance rests on the
    certified relative-error bound, and the generator output governs where
    printed constants disagree.
    """
    mismatches = []
    rates = sorted(set(form.rates) | set(transcription.rates))
    for rate in rates:
        pg = form.poly_at(rate)
        pt = transcription.poly_at(rate)
        for power in range(max(pg.degree, pt.degree) + 1):
            if pg.coeff(power) != pt.coeff(power):
                mismatches.append(
                    CoefficientMismatch(rate, power, pg.coeff(power), pt.coeff(power))
                )
    return CrosscheckReport(
        order=n,
        subintervals=m,
        rates_generated=len(form.rates),
        rates_transcribed=len(transcription.rates),
        mismatches=tuple(mismatches),
    )


def _sixteen_subinterval_transcription() -> PolyExpSum:
    """Printed sixteen-sub-interval fourth-order expression, sqrt(pi)-scaled.

    Each row is (rate numerator over 256, leading 1/16 or 1/8 prefactor,
    polynomial bracket coefficients in x^2 steps).
    """
    F = Fraction
    rows = [
        (0, F(1, 16), [1, F(-16, 73728), F(16, 1321205760), 0, 0]),
        (1, F(1, 8), [1, F(-1, 4608), F(47, 27525120), F(-1, 5284823040), F(1, 4058744094720)]),
        (4, F(1, 8), [1, F(-1, 4608), F(187, 27525120), F(-1, 1321205760), F(1, 253671505920)]),
        (9, F(1, 8), [1, F(-1, 4608), F(1261, 82575360), F(-1, 587202560), F(3, 150323855360)]),
        (16, F(1, 8), [1, F(-1, 4608), F(249, 9175040), F(-1, 330301440), F(1, 15854469120)]),
        (25, F(1, 8), [1, F(-1, 4608), F(389, 9175040), F(-5, 1056964608), F(125, 811748818944)]),
        (36, F(1, 8), [1, F(-1, 4608), F(5041, 82575360), F(-1, 146800640), F(3, 9395240960)]),
        (49, F(1, 8), [1, F(-1, 4608), F(2287, 27525120), F(-7, 754974720), F(343, 579820584960)]),
        (64, F(1, 8), [1, F(-1, 4608), F(2987, 27525120), F(-1, 82575360), F(1, 990904320)]),
        (81, F(1, 8), [1, F(-1, 4608), F(11341, 82575360), F(-9, 587202560), F(243, 150323855360)]),
        (100, F(1, 8), [1, F(-1, 4608), F(4667, 27525120), F(-5, 264241152), F(125, 50734301184)]),
        (121, F(1, 8), [1, F(-1, 4608), F(5647, 27525120), F(-121, 5284823040), F(14641, 4058744094720)]),
        (144, F(1, 8), [1, F(-1, 4608), F(20161, 82575360), F(-1, 36700160), F(3, 587202560)]),
        (169, F(1, 8), [1, F(-1, 4608), F(2629, 9175040), F(-169, 5284823040), F(28561, 4058744094720)]),
        (196, F(1, 8), [1, F(-1, 4608), F(3049, 9175040), F(-7, 188743680), F(343, 36238786560)]),
        (225, F(1, 8), [1, F(-1, 4608), F(31501, 82575360), F(-5, 117440512), F(375, 30064771072)]),
        (256, F(1, 16), [1, F(127, 4608), F(3929, 9175040), F(79, 20643840), F(1, 61931520)]),
    ]
    terms = []
    for num, pref, bracket in rows:
        coeffs = [F(0)] * (2 * len(bracket))
        for j, c in enumerate(bracket):
            coeffs[2 * j + 1] = pref * F(c)
        terms.append((F(num, 256), coeffs))
    return PolyExpSum(terms)


def sixteen_subinterval_crosscheck() -> CrosscheckReport:
    """Compare the generated f_{4,16} against its long printed transcription."""
    generated = build_subinterval(4, 16)
    return crosscheck_against(generated.form, _sixteen_subinterval_transcription(), 4, 16)
