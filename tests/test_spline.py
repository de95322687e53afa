from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import PolyExpSum, RationalPolynomial
from erfkit.oracle import CTX34, PrecisionContext, erf_ref
from erfkit.spline import (
    build_interval_spline,
    build_spline,
    residual_derivative,
    residual_diagnostics,
    residual_scale,
)

# sqrt(pi)-scaled fixtures from the printed order-0..5 approximants
PRINTED_FORMS = {
    0: {0: [0, 1], 1: [0, 1]},
    1: {0: [0, 1], 1: [0, 1, 0, F(1, 3)]},
    2: {0: [0, 1, 0, F(-1, 30)], 1: [0, 1, 0, F(11, 30), 0, F(1, 15)]},
    3: {0: [0, 1, 0, F(-1, 21)], 1: [0, 1, 0, F(8, 21), 0, F(17, 210), 0, F(1, 105)]},
    4: {
        0: [0, 1, 0, F(-1, 18), 0, F(1, 1260)],
        1: [0, 1, 0, F(7, 18), 0, F(37, 420), 0, F(4, 315), 0, F(1, 945)],
    },
    5: {
        0: [0, 1, 0, F(-2, 33), 0, F(1, 660)],
        1: [0, 1, 0, F(13, 33), 0, F(61, 660), 0, F(67, 4620), 0, F(16, 10395), 0, F(1, 10395)],
    },
}


@pytest.mark.parametrize("n", sorted(PRINTED_FORMS))
def test_build_spline_matches_printed_forms(n):
    form = build_spline(n).form
    for rate, coeffs in PRINTED_FORMS[n].items():
        assert form.poly_at(rate) == RationalPolynomial(coeffs)


PRINTED_RESIDUAL_DERIVATIVES = {
    0: {0: [-1], 1: [1, 0, 2]},
    1: {0: [-1], 1: [1, 0, 1, 0, F(2, 3)]},
    2: {0: [-1, 0, F(1, 10)], 1: [1, 0, F(9, 10), 0, F(2, 5), 0, F(2, 15)]},
}


@pytest.mark.parametrize("n", sorted(PRINTED_RESIDUAL_DERIVATIVES))
def test_residual_derivative_matches_printed_forms(n):
    form = residual_derivative(n)
    for rate, coeffs in PRINTED_RESIDUAL_DERIVATIVES[n].items():
        assert form.poly_at(rate) == RationalPolynomial(coeffs)


@pytest.mark.parametrize("n", range(25))
def test_residual_identity(n):
    # eps'_n + f_n' = (2/sqrt(pi)) e^(-x^2), exactly
    s = build_spline(n)
    assert residual_derivative(n) + s.form.differentiate() == PolyExpSum([(1, [2])])


@pytest.mark.parametrize("n", range(11))
def test_spline_form_shape(n):
    form = build_spline(n).form
    assert form.rates == (F(0), F(1))
    assert form.poly_at(0).is_odd_poly() and form.poly_at(0).degree <= n + 1
    p1 = form.poly_at(1)
    assert p1.is_odd_poly() and p1.degree == 2 * n + 1


def test_spline_vanishes_at_zero_and_is_odd():
    f3 = build_spline(3)
    assert f3.value(0, CTX34) == 0
    with CTX34.workdps():
        assert f3.value(mp.mpf("-1.2"), CTX34) == -f3.value(mp.mpf("1.2"), CTX34)


def test_residual_diagnostics_fixtures():
    d0 = residual_diagnostics(0, 5)
    assert d0.x_n0 == 1
    assert d0.g_series[:3] == (F(1), F(-3, 2), F(5, 6))
    d1 = residual_diagnostics(1, 3)
    assert d1.x_n0 == 6
    assert d1.g_series == (F(1), F(-2), F(5, 4))
    assert residual_diagnostics(2, 1).x_n0 == 60


@pytest.mark.parametrize("n", range(9))
def test_residual_scale_closed_form(n):
    x_n0 = residual_scale(n)
    prod = 1
    for i in range(n + 1):
        prod *= 2 * i + 1
    assert x_n0 == 2**n * prod
    assert x_n0 >= 2**n * mp.factorial(n)


def test_interval_spline_alpha_zero_reduces():
    s = build_spline(3)
    iv = build_interval_spline(3, 0)
    assert iv.poly_alpha == s.form.poly_at(0)
    assert iv.poly_x == s.form.poly_at(1)


def test_interval_spline_empty_interval():
    iv = build_interval_spline(0, F(1, 2))
    with CTX34.workdps():
        assert abs(iv.value(mp.mpf("0.5"), CTX34)) < mp.mpf("1e-40")


def test_interval_spline_order1_value():
    # approximates erf(1) - erf(1/2) = 0.3222009151; order-1 error is visible
    iv = build_interval_spline(1, F(1, 2))
    with CTX34.workdps():
        v = iv.value(1, CTX34)
        ref = erf_ref(1, CTX34) - erf_ref(mp.mpf(1) / 2, CTX34)
        assert mp.almosteq(ref, mp.mpf("0.3222009151"), abs_eps=mp.mpf("1e-9"))
        assert abs(v - ref) < mp.mpf("5e-4")


def test_monotone_convergence_at_fixed_x():
    # |erf - f_n| falls with n; the order-0 residual changes sign near x = 2
    # (f_0 over-shoots there), so the 0 -> 1 step is exempt at that abscissa
    with CTX34.workdps():
        for x in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2)):
            ref = erf_ref(x, CTX34)
            errs = [abs(ref - build_spline(n).value(x, CTX34)) for n in range(11)]
            start = 1 if x == 2 else 0
            for lo, hi in zip(errs[start + 1 :], errs[start:-1]):
                assert lo <= hi * (1 + mp.mpf("1e-20"))


def test_residual_envelope_bound():
    # |eps'_n(x)| <= (k_o/sqrt(pi)) x^(2n+2)/x_{n,0} with k_o = 1.2 on (0, 6];
    # high precision needed near 0 where the poly-exp evaluation cancels
    ctx = PrecisionContext(80)
    with ctx.workdps():
        for n in (0, 2, 4, 6, 8):
            form = residual_derivative(n)
            x_n0 = residual_scale(n)
            worst = mp.mpf(0)
            for i in range(1, 241):
                x = mp.mpf(6) * i / 240
                g = abs(form.eval_raw(x)) * x_n0 / x ** (2 * n + 2)
                worst = max(worst, g)
            assert worst <= mp.mpf("1.2")


def test_constant_tail_error_far_out():
    # |1 - 1/erf| on [5, 12] stays below 1.6e-12
    with CTX34.workdps():
        worst = mp.mpf(0)
        for i in range(50, 121):
            x = mp.mpf(i) / 10
            worst = max(worst, abs(1 - 1 / erf_ref(x, CTX34)))
        assert worst < mp.mpf("1.6e-12")
