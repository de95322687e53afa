from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import RationalPolynomial
from erfkit.oracle import CTX34, erf_ref, sqrt_pi
from erfkit.spline import build_spline
from erfkit.transition import (
    _REF_GRID_CACHE,
    EnvelopePair,
    PiecewiseApproximant,
    envelope,
    improved,
    optimize_transition,
    published_bounds,
    reference_grid,
    sweep,
    taylor,
)


def test_sweep_headline_value():
    rep = sweep(build_spline(2), (0, 2), 10000, CTX34)
    with CTX34.workdps():
        assert mp.almosteq(rep.re_b, mp.mpf("0.056"), rel_eps=mp.mpf("0.05"))


def test_sweep_oracle_against_itself():
    class Oracle:
        def value(self, x, ctx):
            return erf_ref(x, ctx)

    rep = sweep(Oracle(), (0, 3), 50, CTX34)
    assert rep.re_b == 0


def test_sweep_excludes_origin_and_is_deterministic():
    rep1 = sweep(build_spline(1), (0, 2), 100, CTX34)
    rep2 = sweep(build_spline(1), (0, 2), 100, CTX34)
    assert rep1.xs[0] > 0
    assert len(rep1.xs) == 100
    assert rep1.re == rep2.re and rep1.argmax_x == rep2.argmax_x


def test_constant_tail_sweep():
    class One:
        def value(self, x, ctx):
            return mp.mpf(1)

    rep = sweep(One(), (5, 12), 500, CTX34)
    with CTX34.workdps():
        assert rep.re_b < mp.mpf("1.6e-12")


def test_optimize_transition_table3_spots():
    with CTX34.workdps():
        res = optimize_transition(build_spline(4), (0, 5), 10000, CTX34)
        assert mp.almosteq(res.x_o, mp.mpf("2.3715"), abs_eps=mp.mpf("0.0005001"))
        assert mp.almosteq(res.re_b, mp.mpf("1.03e-3"), rel_eps=mp.mpf("0.05"))
        assert not res.tail_never_better


def test_optimize_transition_deterministic():
    a = optimize_transition(build_spline(6), (0, 5), 4000, CTX34)
    b = optimize_transition(build_spline(6), (0, 5), 4000, CTX34)
    assert a.x_o == b.x_o and a.re_b == b.re_b


def test_tail_never_better_outcome():
    # the oracle itself never loses to the constant-1 tail
    class Oracle:
        def value(self, x, ctx):
            return erf_ref(x, ctx)

    res = optimize_transition(Oracle(), (0, 3), 200, CTX34)
    assert res.tail_never_better


def test_piecewise_value_and_oddness():
    inner = build_spline(3)
    piece = PiecewiseApproximant(inner, mp.mpf(2))
    with CTX34.workdps():
        assert piece.value(mp.mpf(1), CTX34) == inner.value(mp.mpf(1), CTX34)
        assert piece.value(mp.mpf(3), CTX34) == 1
        assert piece.value(mp.mpf(-3), CTX34) == -1


def test_piecewise_beats_parts():
    inner = build_spline(4)
    piece, res = improved(inner, (0, 5), 2000, CTX34)
    rep_piece = sweep(piece, (0, 5), 2000, CTX34)
    rep_inner = sweep(inner, (0, 5), 2000, CTX34)

    class One:
        def value(self, x, ctx):
            return mp.mpf(1)

    rep_one = sweep(One(), (0, 5), 2000, CTX34)
    assert rep_piece.re_b <= rep_inner.re_b
    assert rep_piece.re_b <= rep_one.re_b
    assert rep_piece.re_b == res.re_b


def test_taylor_forms():
    t1 = taylor(1)
    assert t1.poly == RationalPolynomial([0, 2])
    t5 = taylor(5)
    assert t5.poly == RationalPolynomial([0, 2, 0, F(-2, 3), 0, F(1, 5)])
    with pytest.raises(ValueError):
        taylor(2)


def test_taylor_improved_table4_spot():
    with CTX34.workdps():
        res = optimize_transition(taylor(9), (0, 4), 10000, CTX34)
        assert mp.almosteq(res.x_o, mp.mpf("1.4532"), abs_eps=mp.mpf("0.0004001"))
        assert mp.almosteq(res.re_b, mp.mpf("0.0416"), rel_eps=mp.mpf("0.05"))


def test_envelope_containment_and_bounds():
    inner = build_spline(4)
    piece, res = improved(inner, (0, 5), 2000, CTX34)
    env = envelope(piece, res.re_b)
    xs, refs = [], []
    with CTX34.workdps():
        for i in range(1, 200):
            x = mp.mpf(5) * i / 200
            ref = erf_ref(x, CTX34)
            assert env.lower(x, CTX34) < ref < env.upper(x, CTX34)
        lo, hi = env.bound_errors()
        e = mp.mpf(res.re_b)
        assert lo == 2 * e / (1 + e)
        assert hi == 2 * e / (1 - e)


def test_bound_errors_use_working_precision():
    # outside any precision block the bounds still carry CTX34's digits
    lo, hi = EnvelopePair(build_spline(4), "1e-6").bound_errors()
    with CTX34.workdps():
        e = mp.mpf("1e-6")
        assert lo == 2 * e / (1 + e)
        assert hi == 2 * e / (1 - e)


def test_envelope_validation():
    with pytest.raises(ValueError):
        EnvelopePair(build_spline(2), mp.mpf(1))


def test_envelope_checks_eps_b_exactly():
    # eps_B just below 1 is accepted whatever the current precision
    below_one = (1 - F(1, 10**20), "0.99999999999999999999")
    with CTX34.workdps():
        below_one += (mp.mpf(1) - mp.mpf(10) ** -30,)
    for eps in below_one:
        EnvelopePair(build_spline(4), eps)
    for eps in (0, 1, F(1), "1", -F(1, 10**20), mp.mpf(-1), "nan", mp.nan, float("nan")):
        with pytest.raises(ValueError):
            EnvelopePair(build_spline(4), eps)


def test_envelope_collapses_with_tiny_eps():
    class Oracle:
        def value(self, x, ctx):
            return erf_ref(x, ctx)

    env = envelope(Oracle(), mp.mpf("1e-30"))
    with CTX34.workdps():
        x = mp.mpf("1.3")
        ref = erf_ref(x, CTX34)
        assert abs(env.lower(x, CTX34) - ref) < mp.mpf("2e-30")
        assert abs(env.upper(x, CTX34) - ref) < mp.mpf("2e-30")


def test_published_bounds_containment():
    with CTX34.workdps():
        for i in range(1, 60):
            x = mp.mpf(5) * i / 60
            ref = erf_ref(x, CTX34)
            for which in ("chu", "neuman", "yang"):
                lo, hi = published_bounds(x, which, CTX34)
                assert lo <= ref <= hi, (which, x)


def test_chu_bound_values_at_one():
    with CTX34.workdps():
        lo, hi = published_bounds(1, "chu", CTX34)
        assert mp.almosteq(lo, mp.sqrt(1 - mp.exp(-1)), rel_eps=mp.mpf("1e-30"))
        assert mp.almosteq(hi, mp.sqrt(1 - mp.exp(-4 / mp.pi)), rel_eps=mp.mpf("1e-30"))


def test_neuman_small_x_limits():
    with CTX34.workdps():
        x = mp.mpf("1e-8")
        lo, hi = published_bounds(x, "neuman", CTX34)
        linear = 2 * x / mp.sqrt(mp.pi)
        assert mp.almosteq(lo, linear, rel_eps=mp.mpf("1e-15"))
        assert mp.almosteq(hi, linear, rel_eps=mp.mpf("1e-15"))


def test_yang_p0_value():
    # closed-form radical evaluated at 34 digits stays fixed
    with CTX34.workdps():
        pi = mp.pi
        p0 = (21 * pi - 60 + mp.sqrt(3 * (147 * pi**2 - 920 * pi + 1440))) / (30 * (pi - 3))
        assert mp.almosteq(p0, mp.mpf("1.71318116494171412166853913344"), rel_eps=mp.mpf("1e-25"))


def test_csv_and_summary():
    rep = sweep(build_spline(2), (0, 2), 20, CTX34)
    rows = list(rep.rows())
    assert len(rows) == 20
    x, r, a = rows[0]
    assert a == abs(r)
    s = rep.summary()
    assert s["schema"] == "erfkit-sweep/1"
    assert s["points"] == 20


def test_reference_grid_tells_close_endpoints_apart():
    # the two right endpoints agree to 25 digits, beyond what str() prints
    with CTX34.workdps():
        b1 = 3 / mp.sqrt(2)
        b2 = b1 + mp.mpf("1e-25")
    xs1, _ = reference_grid((0, b1), 41, CTX34)
    xs2, _ = reference_grid((0, b2), 41, CTX34)
    with CTX34.workdps():
        assert xs2[-1] > xs1[-1]
        assert abs(xs2[-1] - b2) < mp.mpf("1e-40")
        assert sweep(build_spline(2), (0, b2), 41, CTX34).xs[-1] == xs2[-1]


def test_reference_grid_shares_equal_endpoints():
    size = len(_REF_GRID_CACHE)
    first = reference_grid((0, 0.5), 43, CTX34)
    assert reference_grid((0, F(1, 2)), 43, CTX34) is first
    assert reference_grid((F(0), "0.5"), 43, CTX34) is first
    assert len(_REF_GRID_CACHE) == size + 1


@pytest.mark.parametrize(
    "interval, n_points",
    [((1, 0), 3), ((2, 2), 10), ((-1, 1), 4), ((0, 1), 1), ((0, 1), 0)],
    ids=["reversed", "empty", "negative-a", "one-point", "no-points"],
)
def test_bad_grids_are_value_errors(interval, n_points):
    # each of these puts a point on x = 0 or is no interval of at least 2 points
    size = len(_REF_GRID_CACHE)
    inner = build_spline(2)
    for run in (
        lambda: reference_grid(interval, n_points, CTX34),
        lambda: sweep(inner, interval, n_points, CTX34),
        lambda: optimize_transition(inner, interval, n_points, CTX34),
    ):
        with pytest.raises(ValueError, match="0 <= a < b and at least 2 points"):
            run()
    assert len(_REF_GRID_CACHE) == size


@pytest.mark.parametrize("which", ["chu", "neuman", "yang"])
@pytest.mark.parametrize("x", [mp.nan, mp.inf, -mp.inf], ids=["nan", "inf", "-inf"])
def test_published_bounds_reject_nonfinite(which, x):
    with pytest.raises(ValueError):
        published_bounds(x, which, CTX34)


def test_piecewise_converts_x_at_working_precision():
    # "0.1" must be rounded at the working precision, not at 53 bits first
    inner = build_spline(4)
    assert PiecewiseApproximant(inner, 2).value("0.1", CTX34) == inner.value("0.1", CTX34)


def test_taylor_value_is_its_polynomial():
    t9 = taylor(9)
    with CTX34.workdps():
        for x in (mp.mpf("0.3"), mp.mpf("1.7"), mp.mpf(-2)):
            assert t9.value(x, CTX34) == t9.poly.eval_mpf(x) / sqrt_pi()
