import hashlib
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import RationalPolynomial, as_mpf
from erfkit.gauss import (
    RationalFunctionApproximant,
    build_erf_series,
    build_gauss_g,
    build_gauss_h,
    gauss_g_parts,
)
from erfkit.oracle import CTX34, CTX70, erf_ref
from erfkit.spline import build_spline
from erfkit.tables import TABLE9, _enclosures, gauss_sweep
from erfkit.transition import grid_points, grid_step
from gauss_reference import gauss_error
from gauss_reference import gauss_sweep as all_point_sweep
from horner_reference import eval_poly, eval_polys

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
                assert eval_poly(den, x) > 0


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


BUILDERS = {"g": build_gauss_g, "h": build_gauss_h}

# sha256 of the Table 9 bound's _mpf_, recorded with the mpf walk
# max(abs(1 - value / mp.exp(-x * x))): (family, n, digits, points) -> digest.
# 34 digits run on Table 9's grid (0, 3/sqrt(2)], 70 digits on (0, 4].
TABLE9_PINS = {
    ("g", 2, 34, 10000): "d4b6126070513bad6fc24c4b43dca6619cc0657e9e482aebd3413c6f9fc9b0c9",
    ("g", 4, 34, 10000): "28848c8a5fa1d4212bdf7f0b13a258794d5cc4b9dbd01193df01f533ddc021ff",
    ("g", 12, 34, 10000): "99967ce6221b8128a948857d2a926d753c84d757763ca9d99c5ef204026a6fd0",
    ("h", 0, 34, 10000): "ebc4f6915f3acdd035031b973cd34f1a9a6f29142e44784fee0042e114d5600e",
    ("h", 5, 34, 10000): "33b7f70b670ef2085d91d3d9b30f73004c8f94a0dcd25c71f0e5d419d4884f1a",
    ("h", 10, 34, 10000): "63a0c95a7d916a1df2ce47d527e23f9767df5e106f1cb1a2282cce3b55bbdf69",
    ("g", 7, 70, 1000): "782507945ca2e1eacab9f8458dcb9eba834ca4c12639fca9bf9455f72d589bea",
    ("h", 8, 70, 1000): "63ce217a3a7e14a6c4deacb404e3703e24252858b31761658e2c41f9430e9bc8",
}


def _table9_interval(ctx):
    if ctx.working_digits == 70:
        return (0, 4)
    with ctx.workdps():
        return (mp.mpf(0), 3 / mp.sqrt(2))


@pytest.mark.parametrize("case", TABLE9_PINS, ids=lambda c: "%s%d-d%d-N%d" % c)
def test_gauss_sweep_pinned_bit_for_bit(case):
    tag, n, digits, points = case
    ctx = CTX34 if digits == 34 else CTX70
    bound = gauss_sweep(BUILDERS[tag](n), _table9_interval(ctx), points, ctx)
    digest = hashlib.sha256(b"%d %d %d %d\n" % bound._mpf_).hexdigest()
    assert digest == TABLE9_PINS[case]


@pytest.mark.parametrize("ctx", [CTX34, CTX70], ids=["d34", "d70"])
def test_gauss_sweep_is_the_all_point_walk_on_every_table9_row(ctx):
    interval = _table9_interval(ctx)
    for (tag, n), _ in TABLE9:
        approx = BUILDERS[tag](n)
        got = gauss_sweep(approx, interval, 1000, ctx)
        assert got._mpf_ == all_point_sweep(approx, interval, 1000, ctx)._mpf_, (tag, n)


@pytest.mark.parametrize("n_points", [2, 3, 17, 500])
def test_gauss_sweep_is_the_all_point_walk_on_random_grids(n_points):
    rng = random.Random(n_points)
    for case in range(8):
        lo, hi = sorted(rng.sample(range(6001), 2))
        interval = (0 if case % 3 == 0 else F(lo, 1000), F(hi, 1000))
        approx = BUILDERS[rng.choice("gh")](rng.randrange(17))
        ctx = CTX70 if case % 4 == 3 else CTX34
        got = gauss_sweep(approx, interval, n_points, ctx)
        assert got._mpf_ == all_point_sweep(approx, interval, n_points, ctx)._mpf_, (interval, approx)


@pytest.mark.parametrize(
    "tag, n, ctx", [("g", 4, CTX34), ("g", 12, CTX34), ("h", 8, CTX34), ("g", 7, CTX70)],
    ids=["g4-d34", "g12-d34", "h8-d34", "g7-d70"],
)
def test_screen_encloses_every_exact_error(tag, n, ctx):
    # lo_i <= the exact error <= hi_i at every point of Table 9's grid, and
    # the screen bounds every point, so it leaves few for the exact pass
    approx = BUILDERS[tag](n)
    with ctx.workdps():
        prec = mp.mp.prec
        am, step = grid_step(_table9_interval(ctx), 10000)
        indices = range(1, 10001)
        bounds = list(_enclosures(approx.float_coeffs, float(am), float(step), prec, indices))
        assert [i for i, _, _ in bounds] == list(indices)
        for i, lo, hi in bounds:
            err = mp.make_mpf(gauss_error(approx, (am + i * step)._mpf_, prec))
            assert lo <= err <= hi, i
        top = max(lo for _, lo, _ in bounds)
        assert sum(hi >= top for _, _, hi in bounds) <= 100


def _exact_points(monkeypatch, approx, interval, n_points, ctx):
    """gauss_sweep's value and the number of points it evaluated exactly."""
    calls = []
    quotient = RationalFunctionApproximant.quotient
    monkeypatch.setattr(
        RationalFunctionApproximant, "quotient", lambda self, *a: calls.append(1) or quotient(self, *a)
    )
    return gauss_sweep(approx, interval, n_points, ctx), len(calls)


@pytest.mark.parametrize("n", [10, 12])
def test_screen_gives_up_below_float_resolution(n, monkeypatch):
    # h_10 and h_12 err by 7e-14 and 5e-18 at 34 digits: the walk turns exact at every point
    approx, interval = build_gauss_h(n), _table9_interval(CTX34)
    bound, exact = _exact_points(monkeypatch, approx, interval, 10000, CTX34)
    assert exact == 10000
    assert bound._mpf_ == all_point_sweep(approx, interval, 10000, CTX34)._mpf_


def test_screen_gives_up_without_float_coefficients(monkeypatch):
    # 10^400 overflows a float, so there is nothing to screen with
    approx = RationalFunctionApproximant(
        1, RationalPolynomial([1, 0, 10**400]), RationalPolynomial([1, 0, F(1, 2)])
    )
    assert approx.float_coeffs is None
    interval = _table9_interval(CTX34)
    bound, exact = _exact_points(monkeypatch, approx, interval, 300, CTX34)
    assert exact == 300
    assert bound._mpf_ == all_point_sweep(approx, interval, 300, CTX34)._mpf_


def test_screen_evaluates_few_points_exactly(monkeypatch):
    approx, interval = build_gauss_g(4), _table9_interval(CTX34)
    bound, exact = _exact_points(monkeypatch, approx, interval, 10000, CTX34)
    assert exact <= 20
    assert bound._mpf_ == all_point_sweep(approx, interval, 10000, CTX34)._mpf_


@pytest.mark.parametrize("ctx", [CTX34, CTX70], ids=["d34", "d70"])
@pytest.mark.parametrize("tag, n", [("g", 0), ("g", 4), ("g", 12), ("h", 3), ("h", 10)])
def test_rational_value_is_the_eval_polys_quotient(tag, n, ctx):
    # the quotient num/den of the two kernel values, rounded once
    approx = BUILDERS[tag](n)
    with ctx.workdps():
        xs = [0, mp.mpf("-1.75"), F(-7, 3), mp.mpf("1e-30"), 10**6]
        xs += list(grid_points(_table9_interval(ctx), 200))
        for x in xs:
            num, den = eval_polys((approx.numerator, approx.denominator), as_mpf(x))
            assert approx.value(x, ctx)._mpf_ == (num / den)._mpf_, x


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
            split = s.base.value(x, CTX34) + eval_poly(s.tail, x) / mp.sqrt(mp.pi)
            assert mp.almosteq(s.value(x, CTX34), split, rel_eps=mp.mpf("1e-36"))


def test_series_validation():
    with pytest.raises(ValueError):
        build_erf_series(1, 0)


@pytest.mark.parametrize("n", [-1, 65, 70])
def test_gauss_h_rejects_orders_outside_the_rule(n):
    with pytest.raises(ValueError, match=r"gauss_h order must be in 0\.\.64, got %d" % n):
        build_gauss_h(n)
