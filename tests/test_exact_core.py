import math
from fractions import Fraction as F

import pytest

from erfkit.exact import (
    PolyExpSum,
    RationalPolynomial,
    hermite_at_zero,
    hermite_explicit,
    hermite_table,
    hermite_values_mpf,
    integrate_odd,
    mpf_to_fraction,
    spline_coeff,
)
from erfkit.spline import spline_form

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
            assert mp.almosteq(vals[k], t[k].eval_mpf(x), rel_eps=mp.mpf("1e-25"))


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


def test_mpf_to_fraction_exact():
    with mp.workdps(40):
        assert mpf_to_fraction(mp.mpf("0.5")) == F(1, 2)
        assert mpf_to_fraction(mp.mpf(3)) == 3
        x = mp.mpf("0.1")  # not exactly 1/10 in binary; conversion must be exact anyway
        q = mpf_to_fraction(x)
        assert mp.mpf(q.numerator) / q.denominator == x
