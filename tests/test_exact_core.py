import math
from fractions import Fraction as F

import pytest

from erfkit.exact import (
    PolyExpSum,
    RationalPolynomial,
    hermite_table,
    hermite_values_mpf,
    integrate_odd,
    mpf_to_fraction,
    spline_coeff,
)
from erfkit.render import frac_str, parse_frac, polyexp_str
from erfkit.spline import spline_form
from erfkit.sqrtform import sqrt_transform
from generation_reference import integrate_odd_fractions
from hermite_reference import hermite_at_zero, hermite_explicit
from horner_reference import eval_poly

import mpmath as mp


def test_spline_coeff_fixtures():
    assert spline_coeff(0, 0) == F(1, 2)
    assert spline_coeff(1, 1) == F(1, 12)
    assert spline_coeff(1, 0) == F(1, 2)


def test_spline_coeff_domain_error():
    with pytest.raises(ValueError):
        spline_coeff(2, 3)
    with pytest.raises(ValueError):
        spline_coeff(3, -1)


def test_spline_coeff_closed_form():
    # direct factorial formula for a sample of (n, k)
    for n in range(0, 25, 4):
        for k in range(0, n + 1, 3):
            expected = F(math.factorial(n), math.factorial(n - k) * math.factorial(k + 1)) * F(
                math.factorial(2 * n + 1 - k), 2 * math.factorial(2 * n + 1)
            )
            assert spline_coeff(n, k) == expected


def test_hermite_fixture_rows():
    t = hermite_table(4)
    assert t[1] == RationalPolynomial([0, -2])
    assert t[3] == RationalPolynomial([0, 12, 0, -8])
    assert t[4] == RationalPolynomial([12, 0, -48, 0, 16])


def test_hermite_recurrence_equals_explicit_sum():
    t = hermite_table(32)
    for k in range(33):
        assert t[k] == hermite_explicit(k)


def test_hermite_row_structure():
    t = hermite_table(24)
    for k in range(25):
        row = t[k]
        assert row.degree == k
        # parity of row k equals parity of k
        assert all(not c for i, c in enumerate(row.coeffs) if (i - k) % 2)
        assert row.coeffs[-1] == F(-2) ** k


def test_hermite_at_zero():
    t = hermite_table(20)
    for k in range(21):
        assert t[k].coeff(0) == hermite_at_zero(k)
        if k % 2:
            assert hermite_at_zero(k) == 0
        else:
            j = k // 2
            assert hermite_at_zero(k) == F((-1) ** j * math.factorial(2 * j), math.factorial(j))


def test_hermite_numeric_recurrence_matches_rows():
    t = hermite_table(12)
    with mp.workdps(30):
        x = mp.mpf("0.731")
        vals = hermite_values_mpf(12, x)
        for k in range(13):
            assert mp.almosteq(vals[k], eval_poly(t[k], x), rel_eps=mp.mpf("1e-25"))


def test_polynomial_trimming_and_degree():
    assert RationalPolynomial([0, 1, 0]).degree == 1
    assert RationalPolynomial([]).degree == -1
    assert RationalPolynomial([0, 0]).degree == -1


def test_polyexp_differentiate_fixture():
    s = PolyExpSum([(1, [0, 1])])  # x e^{-x^2}
    assert s.differentiate() == PolyExpSum([(1, [1, 0, -2])])


def test_integrate_odd_monomial_fixture():
    # integral of t e^(-t^2) from 0 to x is 1/2 - e^(-x^2)/2
    integral = integrate_odd(PolyExpSum([(1, [0, 1])]))
    assert integral.poly_at(0) == RationalPolynomial([F(1, 2)])
    assert integral.poly_at(1) == RationalPolynomial([F(-1, 2)])


def test_integrate_odd_rejects_even_power():
    with pytest.raises(ValueError):
        integrate_odd(PolyExpSum([(1, [1])]))
    with pytest.raises(ValueError):
        integrate_odd(PolyExpSum([(0, [1])]))


@pytest.mark.parametrize("n, m", [(n, 1) for n in range(41)] + [(1, 4), (2, 4), (16, 16), (32, 64)])
def test_integrate_odd_is_exact_on_generated_forms(n, m):
    form = spline_form(n, m)  # sqrt(pi) f_{n,m}; m = 1 is f_n
    integral = integrate_odd(form)
    assert integral.differentiate() == form
    assert sum((poly.evaluate(0) for _, poly in integral.terms), F(0)) == 0


def test_integrate_then_differentiate_roundtrip():
    s = PolyExpSum([(F(1, 4), [0, F(2, 3), 0, 0, 0, F(1, 5)]), (2, [0, 7])])
    integral = integrate_odd(s)
    # constant of integration lands in the rate-0 part; derivative recovers input
    assert integral.differentiate() == s
    rate0 = integral.poly_at(0)
    assert rate0.degree == 0 and rate0.coeff(0) != 0


def test_polyexp_rates_sorted_and_merged():
    s = PolyExpSum([(1, [1]), (0, [0, 1]), (1, [0, 1]), (F(1, 2), [3])])
    assert s.rates == (F(0), F(1, 2), F(1))
    assert s.poly_at(1) == RationalPolynomial([1, 1])


def test_polyexp_eval_matches_direct():
    s = PolyExpSum([(0, [0, F(1, 3)]), (F(3, 2), [2, 0, -1])])
    with mp.workdps(40):
        x = mp.mpf("1.37")
        direct = x / 3 + (2 - x * x) * mp.exp(-mp.mpf(3) / 2 * x * x)
        assert mp.almosteq(s.eval_raw(x), direct, rel_eps=mp.mpf("1e-35"))


@pytest.mark.parametrize(
    "x, exact",
    [("0.1", F(1, 10)), (F(1, 3), F(1, 3)), (7, F(7)), (0.1, F(3602879701896397, 2**55))],
    ids=["str", "fraction", "int", "float"],
)
def test_mpf_to_fraction_reads_other_numbers_exactly(x, exact):
    # a str used to go through a 53-bit mp.mpf first
    assert mpf_to_fraction(x) == exact


@pytest.mark.parametrize(
    "x",
    ["nan", "inf", "-inf", float("nan"), float("inf"), float("-inf"), mp.nan, mp.inf, -mp.inf],
)
def test_mpf_to_fraction_rejects_nonfinite(x):
    with pytest.raises(ValueError):
        mpf_to_fraction(x)


def test_mpf_to_fraction_exact():
    with mp.workdps(40):
        assert mpf_to_fraction(mp.mpf("0.5")) == F(1, 2)
        assert mpf_to_fraction(mp.mpf(3)) == 3
        x = mp.mpf("0.1")  # not exactly 1/10 in binary; conversion must be exact anyway
        q = mpf_to_fraction(x)
        assert mp.mpf(q.numerator) / q.denominator == x


SQRT_BASES = {**{"f_%d" % n: (n, 1) for n in range(33)}, "f_16,16": (16, 16), "f_32,8": (32, 8)}


@pytest.mark.parametrize("n, m", list(SQRT_BASES.values()), ids=list(SQRT_BASES))
def test_integrate_odd_equals_the_fraction_loop_on_sqrt_radicands(n, m):
    base = spline_form(n, m)
    driving = PolyExpSum([(rate + 1, 4 * poly) for rate, poly in base.terms])
    expected = integrate_odd_fractions(driving)
    assert integrate_odd(driving) == expected
    assert sqrt_transform(base, n).radicand() == expected


def test_integrate_odd_equals_the_fraction_loop_on_mixed_denominators():
    s = PolyExpSum(
        [
            (0, [0, F(1, 3)]),
            (F(3, 7), [0, F(-5, 6), 0, F(7, 10), 0, 3]),
            (F(5, 2), [0, 1, 0, 0, 0, F(-1, 9)]),
            (12, [0, F(2, 15)]),
        ]
    )
    assert integrate_odd(s) == integrate_odd_fractions(s)


class _Sub(F):
    """A Fraction subclass, as a caller might pass one."""


@pytest.mark.parametrize(
    "value, expected",
    [(3, F(3)), (-2, F(-2)), (True, F(1)), (False, F(0)), (_Sub(6, -4), F(-3, 2)),
     (F(7, 9), F(7, 9))],
    ids=["int", "negative-int", "true", "false", "fraction-subclass", "fraction"],
)
def test_polynomials_and_frac_str_take_int_bool_and_fraction_subclasses(value, expected):
    poly = RationalPolynomial([1, value, F(1, 2)])
    assert poly == RationalPolynomial([1, expected, F(1, 2)])
    assert all(type(c) is F for c in poly.coeffs)
    ratio = "%d/%d" % (expected.numerator, expected.denominator)
    assert frac_str(value) == frac_str(expected) == ratio


@pytest.mark.parametrize("q", [F(0), F(1, 2), F(-3, 4), F(7), F(-2), F(10**40 + 1, 3**60)])
def test_parse_frac_reads_frac_str(q):
    assert parse_frac(frac_str(q)) == q and type(parse_frac(frac_str(q))) is F


@pytest.mark.parametrize(
    "text, q", [("5", F(5)), ("-7", F(-7)), ("10/20", F(1, 2)), ("-0/9", F(0))]
)
def test_parse_frac_reads_integers_and_reduces(text, q):
    assert parse_frac(text) == q


@pytest.mark.parametrize("text", ["0.5", "1e3", "abc", "", "/3", "3/", "1/2/3", "1//2", "1/0"])
def test_parse_frac_rejects_other_forms(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_frac(text)


@pytest.mark.parametrize(
    "terms, text",
    [
        ([(0, [1])], "1"),
        ([(1, [-1])], "-e^(-x^2)"),
        ([(F(1, 3), [0, -1])], "-x e^(-1/3 x^2)"),
        ([(2, [0, 0, F(-3, 7)])], "-3/7 x^2 e^(-2 x^2)"),
        (
            [(0, [F(-1, 2), 0, 3]), (1, [-1, 0, -2]), (F(5, 4), [1, -1]), (7, [0, 1])],
            "-1/2 + 3 x^2 - (1 + 2 x^2) e^(-x^2) + (1 - x) e^(-5/4 x^2) + x e^(-7 x^2)",
        ),
        (
            [(1, [-2]), (2, [2]), (3, [1, 0, 1]), (4, [-1, 0, -1])],
            "-2 e^(-x^2) + 2 e^(-2 x^2) + (1 + x^2) e^(-3 x^2) - (1 + x^2) e^(-4 x^2)",
        ),
    ],
)
def test_polyexp_str_signs_units_and_single_terms(terms, text):
    assert polyexp_str(PolyExpSum(terms)) == text
