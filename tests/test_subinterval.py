from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import PolyExpSum, RationalPolynomial, spline_coeff
from erfkit.oracle import CTX34
from erfkit.spline import build_interval_spline, build_spline, spline_form
from erfkit.subinterval import build_subinterval
from erfkit.transition import optimize_transition
from generation_reference import spline_form_fractions
from hermite_reference import hermite_explicit


def per_cell_form(n, m):
    """sqrt(pi) f_{n,m} summed cell by cell from the paper's formula.

    Each cell [ix/m, (i+1)x/m] contributes
    2 sum_k c_{n,k} (x/m)^(k+1) [p(k, ix/m) e^(-(ix/m)^2) + (-1)^k p(k, (i+1)x/m) e^(-((i+1)x/m)^2)],
    so every interior endpoint is expanded twice, once per cell that shares it.
    """
    x_m = RationalPolynomial([0, F(1, m)])
    terms = []
    for i in range(m):
        for k in range(n + 1):
            step = RationalPolynomial([0] * (k + 1) + [2 * spline_coeff(n, k) / F(m) ** (k + 1)])
            for end, sign in ((i, 1), (i + 1, (-1) ** k)):
                # p(k, end*x/m) by Horner in the polynomial end*x/m
                p_end = RationalPolynomial()
                for c in reversed(hermite_explicit(k).coeffs):
                    p_end = p_end * (end * x_m) + RationalPolynomial([c])
                terms.append((F(end * end, m * m), sign * (step * p_end)))
    return PolyExpSum(terms)


@pytest.mark.parametrize("n", range(9))
def test_generator_equals_per_cell_sum(n):
    for m in range(1, 7):
        assert build_subinterval(n, m).form == per_cell_form(n, m), m
    assert build_spline(n).form == per_cell_form(n, 1)


@pytest.mark.parametrize("n, m", [(16, 16), (32, 2), (32, 8), (12, 64), (0, 64), (1, 64), (24, 1)])
def test_generator_equals_per_cell_sum_at_the_corners(n, m):
    assert build_subinterval(n, m).form == per_cell_form(n, m)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 16, 63, 64])
def test_integer_generator_equals_the_fraction_loop(m):
    # the integer-numerator generator against the Fraction-per-step loop it replaced
    for n in range(33) if m <= 16 else (0, 1, 2, 15, 16, 31, 32):
        form = spline_form(n, m)
        assert form == spline_form_fractions(n, m), n
        assert all(type(c) is F for _, poly in form.terms for c in poly.coeffs), n


@pytest.mark.parametrize("n", range(11))
def test_m1_reduces_to_single_interval(n):
    assert build_subinterval(n, 1).form == build_spline(n).form


def test_rate_structure():
    for n, m in ((0, 4), (2, 5), (3, 16)):
        f = build_subinterval(n, m)
        assert f.form.rates == tuple(F(i * i, m * m) for i in range(m + 1))


def test_zero_and_odd():
    f = build_subinterval(2, 4)
    assert f.value(0, CTX34) == 0
    with CTX34.workdps():
        assert f.value(mp.mpf(-2), CTX34) == -f.value(mp.mpf(2), CTX34)


def test_printed_four_subinterval_order0():
    f = build_subinterval(0, 4).form
    quarter = RationalPolynomial([0, F(1, 4)])
    half = RationalPolynomial([0, F(1, 2)])
    assert f.poly_at(0) == quarter
    assert f.poly_at(F(1, 16)) == half
    assert f.poly_at(F(1, 4)) == half
    assert f.poly_at(F(9, 16)) == half
    assert f.poly_at(1) == quarter


def test_printed_four_subinterval_order1():
    f = build_subinterval(1, 4).form
    assert f.poly_at(1) == RationalPolynomial([0, F(1, 4), 0, F(1, 48)])
    # interior odd-k contributions cancel: pure x/2 at interior rates
    assert f.poly_at(F(1, 4)) == RationalPolynomial([0, F(1, 2)])


def test_first_order_general_m_form():
    # x/(m sqrt(pi)) [1 + 2 sum exp(-i^2x^2/m^2) + exp(-x^2)] + x^3/(3m^2 sqrt(pi)) e^(-x^2)
    for m in (2, 3, 8):
        f = build_subinterval(1, m).form
        assert f.poly_at(0) == RationalPolynomial([0, F(1, m)])
        for i in range(1, m):
            assert f.poly_at(F(i * i, m * m)) == RationalPolynomial([0, F(2, m)])
        assert f.poly_at(1) == RationalPolynomial([0, F(1, m), 0, F(1, 3 * m * m)])


# Printed fourth-order four-sub-interval expression; the x^6 denominator of
# the exp(-x^2/16) bracket is printed as 1,290,040 but generates as 1,290,240
# (confirmed by the relative-error reproduction); the generated value governs.
PRINTED_F44 = {
    F(0): [(1, F(1, 4)), (3, F(1, 4) * F(-1, 288)), (5, F(1, 4) * F(1, 322560))],
    F(1, 16): [
        (1, F(1, 2)),
        (3, F(1, 2) * F(-1, 288)),
        (5, F(1, 2) * F(47, 107520)),
        (7, F(1, 2) * F(-1, 1290240)),
        (9, F(1, 2) * F(1, 61931520)),
    ],
    F(1, 4): [
        (1, F(1, 2)),
        (3, F(1, 2) * F(-1, 288)),
        (5, F(1, 2) * F(187, 107520)),
        (7, F(1, 2) * F(-1, 322560)),
        (9, F(1, 2) * F(1, 3870720)),
    ],
    F(9, 16): [
        (1, F(1, 2)),
        (3, F(1, 2) * F(-1, 288)),
        (5, F(1, 2) * F(1261, 322560)),
        (7, F(1, 2) * F(-1, 143360)),
        (9, F(1, 2) * F(3, 2293760)),
    ],
    F(1): [
        (1, F(1, 4)),
        (3, F(1, 4) * F(31, 288)),
        (5, F(1, 4) * F(101, 15360)),
        (7, F(1, 4) * F(19, 80640)),
        (9, F(1, 4) * F(1, 241920)),
    ],
}


def test_fourth_order_four_subinterval_matches_print():
    form = build_subinterval(4, 4).form
    for rate, entries in PRINTED_F44.items():
        poly = form.poly_at(rate)
        for power, coeff in entries:
            assert poly.coeff(power) == coeff, (rate, power)


# Printed sixteen-sub-interval fourth-order expression, sqrt(pi)-scaled. Each
# row is (rate numerator over 256, leading 1/16 or 1/8 prefactor, bracket
# coefficients of x, x^3, x^5, ...).
PRINTED_F416 = [
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


def test_sixteen_subinterval_crosscheck_clean():
    terms = []
    for num, pref, bracket in PRINTED_F416:
        coeffs = [F(0)] * (2 * len(bracket))
        for j, c in enumerate(bracket):
            coeffs[2 * j + 1] = pref * F(c)
        terms.append((F(num, 256), coeffs))
    form = build_subinterval(4, 16).form
    assert len(form.rates) == 17
    assert form == PolyExpSum(terms)


def test_telescoping_against_interval_splines():
    # f_{n,m}(x) equals the sum of per-sub-interval rules at rational x
    with CTX34.workdps():
        tol = mp.mpf("1e-38")
        for n, m in ((0, 2), (1, 4), (3, 4), (2, 8)):
            f = build_subinterval(n, m)
            for xq in (F(1, 2), F(1), F(3)):
                total = mp.mpf(0)
                for i in range(m):
                    piece = build_interval_spline(n, xq * i / m)
                    total += piece.value(mp.mpf(xq.numerator) / xq.denominator * (i + 1) / m, CTX34)
                whole = f.value(mp.mpf(xq.numerator) / xq.denominator, CTX34)
                assert abs(total - whole) < tol, (n, m, xq)


def test_refinement_improves_bound():
    # coarse sweep is enough to see the refinement ordering
    bounds = {}
    for m in (4, 8, 16):
        res = optimize_transition(build_subinterval(1, m), (0, 8), 2000, CTX34)
        bounds[m] = res.re_b
    assert bounds[4] > bounds[8] > bounds[16]


def test_domain_errors():
    with pytest.raises(ValueError):
        build_subinterval(1, 0)
    with pytest.raises(ValueError):
        build_subinterval(40, 4)
