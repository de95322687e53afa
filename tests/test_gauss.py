from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import RationalPolynomial
from erfkit.gauss import (
    build_erf_series,
    build_gauss_g,
    build_gauss_h,
    gauss_g_parts,
)
from erfkit.oracle import CTX34, erf_ref
from erfkit.spline import build_spline
from erfkit.tables import gauss_sweep

PRINTED_G = {
    0: ([1], [1, 0, 2]),
    1: ([1], [1, 0, 1, 0, F(2, 3)]),
    2: ([1, 0, F(-1, 10)], [1, 0, F(9, 10), 0, F(2, 5), 0, F(2, 15)]),
    3: ([1, 0, F(-1, 7)], [1, 0, F(6, 7), 0, F(5, 14), 0, F(2, 21), 0, F(2, 105)]),
    4: (
        [1, 0, F(-1, 6), 0, F(1, 252)],
        [1, 0, F(5, 6), 0, F(85, 252), 0, F(11, 126), 0, F(1, 63), 0, F(2, 945)],
    ),
    5: (
        [1, 0, F(-2, 11), 0, F(1, 132)],
        [1, 0, F(9, 11), 0, F(43, 132), 0, F(1, 12), 0, F(1, 66), 0, F(1, 495), 0, F(2, 10395)],
    ),
    7: (
        [1, 0, F(-1, 5), 0, F(1, 78), 0, F(-1, 4290)],
        [
            1, 0, F(4, 5), 0, F(61, 195), 0, F(34, 429), 0, F(83, 5720), 0, F(1, 495),
            0, F(7, 32175), 0, F(4, 225225), 0, F(2, 2027025),
        ],
    ),
}


@pytest.mark.parametrize("n", sorted(PRINTED_G))
def test_gauss_g_matches_printed(n):
    g = build_gauss_g(n)
    num, den = PRINTED_G[n]
    assert g.numerator == RationalPolynomial(num)
    assert g.denominator == RationalPolynomial(den)


def test_gauss_h_fixtures():
    h0 = build_gauss_h(0)
    assert h0.numerator == RationalPolynomial([1, 0, F(-1, 2)])
    assert h0.denominator == RationalPolynomial([1, 0, F(1, 2)])
    h5 = build_gauss_h(5)
    assert h5.numerator == RationalPolynomial(
        [1, 0, F(-1, 2), 0, F(5, 44), 0, F(-1, 66), 0, F(1, 792), 0, F(-1, 15840), 0, F(1, 665280)]
    )
    assert h5.denominator == RationalPolynomial(
        [1, 0, F(1, 2), 0, F(5, 44), 0, F(1, 66), 0, F(1, 792), 0, F(1, 15840), 0, F(1, 665280)]
    )


def test_value_one_at_origin_and_even():
    for build in (build_gauss_g, build_gauss_h):
        for n in (0, 3, 6):
            a = build(n)
            assert a.numerator.coeff(0) == 1 and a.denominator.coeff(0) == 1
            assert a.numerator.is_even_poly() and a.denominator.is_even_poly()
            assert a.value(0, CTX34) == 1


def test_denominator_positive_on_range():
    with CTX34.workdps():
        for n in (0, 2, 5, 8):
            den = build_gauss_g(n).denominator
            for i in range(1, 121):
                x = mp.mpf(6) * i / 120
                assert den.eval_mpf(x) > 0


@pytest.mark.parametrize("n", range(25))
def test_derivative_identity(n):
    # d/dx (sqrt(pi) f_n) = 2*num + (2 - 2*den) e^(-x^2), exactly
    num, den = gauss_g_parts(n)
    d = build_spline(n).form.differentiate()
    assert d.poly_at(0) == 2 * num
    assert d.poly_at(1) == RationalPolynomial([2]) - 2 * den


def test_h_beats_g_at_higher_orders():
    with CTX34.workdps():
        b = 3 / mp.sqrt(2)
        for n in (3, 5, 8):
            gb = gauss_sweep(build_gauss_g(n), (0, b), 400, CTX34)
            hb = gauss_sweep(build_gauss_h(n), (0, b), 400, CTX34)
            assert hb < gb


def test_series_tail_fixtures():
    s0 = build_erf_series(0, 5)
    expected = {3: F(1, 3), 5: F(-3, 10), 7: F(5, 42), 9: F(-7, 216), 11: F(3, 440)}
    for power, coeff in expected.items():
        assert s0.tail.coeff(power) == coeff
    s1 = build_erf_series(1, 2)
    assert s1.tail.coeff(5) == F(1, 30)
    assert s1.tail.coeff(7) == F(-1, 21)
    assert build_erf_series(2, 1).tail.coeff(7) == F(1, 420)


def test_series_general_term_formula():
    # coefficient of x^(2k+3): (-1)^k (2k+1) / ((2k+3)(k+1)!)
    import math

    s = build_erf_series(0, 8)
    for k in range(8):
        expected = F((-1) ** k * (2 * k + 1), (2 * k + 3) * math.factorial(k + 1))
        assert s.tail.coeff(2 * k + 3) == expected


def test_series_earlier_coefficients_stable():
    a = build_erf_series(1, 2)
    b = build_erf_series(1, 6)
    for power in (5, 7):
        assert a.tail.coeff(power) == b.tail.coeff(power)


def test_series_order_of_contact():
    # erf - (f_n + tail) = O(x^(2n+2K+3)): slope on a log-log grid
    with CTX34.workdps():
        for n, terms in ((0, 3), (1, 2), (2, 1)):
            s = build_erf_series(n, terms)
            expected_power = 2 * n + 2 * terms + 3
            x1, x2 = mp.mpf("1e-3"), mp.mpf("1e-2")
            r1 = abs(erf_ref(x1, CTX34) - s.value(x1, CTX34))
            r2 = abs(erf_ref(x2, CTX34) - s.value(x2, CTX34))
            slope = mp.log(r2 / r1) / mp.log(x2 / x1)
            assert abs(slope - expected_power) < mp.mpf("0.2")


def test_series_value_is_odd():
    s = build_erf_series(1, 3)
    with CTX34.workdps():
        assert s.value(mp.mpf("-0.7"), CTX34) == -s.value(mp.mpf("0.7"), CTX34)


def test_series_value_is_base_plus_tail():
    # one poly-exp evaluation with the tail merged into the rate-0 term; the
    # sum differs from f_n + tail only by rounding in the guard digits
    s = build_erf_series(2, 3)
    assert s.form.poly_at(0) == s.base.form.poly_at(0) + s.tail
    assert s.form.poly_at(1) == s.base.form.poly_at(1)
    with CTX34.workdps():
        for x in (mp.mpf("0.4"), mp.mpf("1.3")):
            split = s.base.value(x, CTX34) + s.tail.eval_mpf(x) / mp.sqrt(mp.pi)
            assert mp.almosteq(s.value(x, CTX34), split, rel_eps=mp.mpf("1e-36"))


def test_series_validation():
    with pytest.raises(ValueError):
        build_erf_series(1, 0)


@pytest.mark.parametrize("n", [-1, 65, 70])
def test_gauss_h_rejects_orders_outside_the_rule(n):
    with pytest.raises(ValueError, match=r"gauss_h order must be in 0\.\.64, got %d" % n):
        build_gauss_h(n)
