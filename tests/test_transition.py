import weakref
from fractions import Fraction as F

import mpmath as mp
import pytest

from collections import Counter

from erfkit import transition
from erfkit.exact import RationalPolynomial, mpf_to_fraction
from erfkit.oracle import CTX34, CTX70, erf_ref, sqrt_pi
from erfkit.gauss import RationalFunctionApproximant, build_gauss_g
from erfkit.spline import SplineApproximant, build_spline
from erfkit.subinterval import build_subinterval
from erfkit.tables import gauss_sweep
from erfkit.transition import (
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
from horner_reference import eval_poly


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


def test_envelope_takes_a_float_eps_b_by_its_exact_value():
    base = build_spline(4)
    given, exact = envelope(base, 0.1), envelope(base, F(0.1))
    assert given.bound_errors(CTX34) == exact.bound_errors(CTX34)
    for x in ("0.3", 1, F(5, 2)):
        assert given.lower(x, CTX34) == exact.lower(x, CTX34)
        assert given.upper(x, CTX34) == exact.upper(x, CTX34)


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


@pytest.fixture
def value_calls(monkeypatch):
    """Counts the points each approximant object (keyed by id) is evaluated at.

    A sweep evaluates a spline in one lazy batch, ``transition.grid_values``,
    whose every yielded value counts one point; a ``SplineApproximant.value``
    call counts one point too.
    """
    calls = Counter()
    batch, value = transition.grid_values, SplineApproximant.value

    def batch_spy(approx, grid):
        for v in batch(approx, grid):
            calls[id(approx)] += 1
            yield v

    def value_spy(self, x, ctx=CTX34):
        calls[id(self)] += 1
        return value(self, x, ctx)

    monkeypatch.setattr(transition, "grid_values", batch_spy)
    monkeypatch.setattr(SplineApproximant, "value", value_spy)
    return calls


def cached_points():
    return sum(len(xs) for xs, _ in transition._REF_GRID_CACHE.values())


def pointwise_errors(approx, interval, n_points, ctx):
    """1 - f(x)/erf(x) at every grid point through approx.value, as the sweep once did."""
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        return tuple(1 - approx.value(x, ctx) / ref for x, ref in zip(xs, refs))


RECORD_GRID = ((0, 5), 120)


def crossing(result, interval, n_points, ctx):
    """Index of x_o on the grid: the search evaluates its inner at points 0..crossing."""
    return reference_grid(interval, n_points, ctx).xs.index(result.x_o)


def test_piecewise_sweep_after_optimize_transition_evaluates_nothing(transition_state, value_calls):
    inner = build_spline(4)
    piece, res = improved(inner, *RECORD_GRID, CTX34)
    assert 0 < value_calls[id(inner)] == crossing(res, *RECORD_GRID, CTX34) + 1 < 120
    value_calls.clear()
    rep = sweep(piece, *RECORD_GRID, CTX34)
    assert not value_calls
    assert rep.re == pointwise_errors(piece, *RECORD_GRID, CTX34)


@pytest.mark.parametrize("where", ["below-first", "interior", "past-crossing", "above-last"])
def test_piecewise_errors_are_the_pointwise_quotients(where, transition_state, value_calls):
    inner = build_spline(3)
    grid = reference_grid(*RECORD_GRID, CTX34)
    xs = grid.xs
    cross = crossing(optimize_transition(inner, *RECORD_GRID, CTX34), *RECORD_GRID, CTX34)
    x_o = {
        "below-first": mp.mpf("0.01"),
        "interior": xs[57],
        "past-crossing": xs[cross + 10],
        "above-last": mp.mpf(6),
    }[where]
    record = grid.record
    value_calls.clear()
    piece = PiecewiseApproximant(inner, x_o)
    rep = sweep(piece, *RECORD_GRID, CTX34)
    # the record answers when it holds every point up to x_o; else each of them is evaluated
    below = sum(1 for x in xs if x <= x_o)
    assert value_calls[id(inner)] == (0 if below <= cross + 1 else below)
    assert grid.record is record  # a sweep only reads the record
    expected = pointwise_errors(piece, *RECORD_GRID, CTX34)
    assert len(rep.re) == len(expected) == 120
    assert all(r == e for r, e in zip(rep.re, expected))
    with CTX34.workdps():
        assert rep.re_b == max(abs(e) for e in expected)


def test_record_is_not_reused_for_another_grid_ctx_or_inner(transition_state, value_calls):
    inner = build_spline(4)
    x_o = optimize_transition(inner, *RECORD_GRID, CTX34).x_o
    twin = SplineApproximant(inner.order, inner.form)
    assert twin == inner and twin is not inner
    for approx, interval, n_points, ctx in (
        (inner, (0, 5), 121, CTX34),  # another grid
        (inner, (0, 6), 120, CTX34),
        (inner, (0, 5), 120, CTX70),  # another ctx
        (twin, (0, 5), 120, CTX34),  # an equal but distinct inner
    ):
        value_calls.clear()
        piece = PiecewiseApproximant(approx, x_o)
        rep = sweep(piece, interval, n_points, ctx)
        xs, _ = reference_grid(interval, n_points, ctx)
        assert value_calls[id(approx)] == sum(1 for x in xs if x <= x_o) > 0
        assert rep.re == pointwise_errors(piece, interval, n_points, ctx)
    rep = sweep(PiecewiseApproximant(inner, x_o), *RECORD_GRID, CTX34)
    assert rep.re == sweep(PiecewiseApproximant(twin, x_o), *RECORD_GRID, CTX34).re


def test_each_grid_holds_its_own_record(transition_state, value_calls):
    inner = build_spline(4)
    first = optimize_transition(inner, (0, 5), 120, CTX34)
    second = optimize_transition(inner, (0, 6), 90, CTX34)
    for (interval, n_points), res in (((0, 5), 120), first), (((0, 6), 90), second):
        held, errors = reference_grid(interval, n_points, CTX34).record
        assert held is inner and len(errors) == crossing(res, interval, n_points, CTX34) + 1
        value_calls.clear()
        piece = PiecewiseApproximant(inner, res.x_o)
        rep = sweep(piece, interval, n_points, CTX34)
        assert value_calls[id(inner)] == 0
        assert rep.re == pointwise_errors(piece, interval, n_points, CTX34)
    value_calls.clear()
    sweep(PiecewiseApproximant(inner, mp.mpf(6)), (0, 5), 120, CTX34)
    assert value_calls[id(inner)] == 120  # past the record's crossing: every point


def test_a_search_on_another_grid_keeps_the_first_grids_record(transition_state, value_calls):
    first, _ = improved(build_spline(4), (0, 5), 50, CTX34)
    improved(build_spline(6), (0, 6), 50, CTX34)
    value_calls.clear()
    rep = sweep(first, (0, 5), 50, CTX34)
    assert not value_calls
    assert rep.re == pointwise_errors(first, (0, 5), 50, CTX34)


def test_record_of_an_evicted_grid_is_not_reused(transition_state, value_calls, monkeypatch):
    # the grid, its record with it, is freed on eviction; the grid built again has no record
    monkeypatch.setattr(transition, "_REF_GRID_CACHE_POINTS", 100)
    inner = build_spline(4)
    x_o = optimize_transition(inner, (0, 5), 60, CTX34).x_o
    evicted = weakref.ref(reference_grid((0, 5), 60, CTX34))
    assert evicted().record[0] is inner
    reference_grid((0, 6), 60, CTX34)  # 120 points: (0, 5] goes
    assert evicted() is None
    value_calls.clear()
    piece = PiecewiseApproximant(inner, x_o)
    rep = sweep(piece, (0, 5), 60, CTX34)
    assert value_calls[id(inner)] == sum(1 for x in rep.xs if x <= x_o) > 0
    assert rep.re == pointwise_errors(piece, (0, 5), 60, CTX34)


def test_reference_grid_shares_equal_endpoints(transition_state):
    first = reference_grid((0, 0.5), 43, CTX34)
    assert reference_grid((0, F(1, 2)), 43, CTX34) is first
    assert reference_grid((F(0), "0.5"), 43, CTX34) is first
    assert len(transition._REF_GRID_CACHE) == 1 and cached_points() == 43


def test_reference_grid_cache_evicts_least_recently_used(transition_state, monkeypatch):
    monkeypatch.setattr(transition, "_REF_GRID_CACHE_POINTS", 100)
    a = reference_grid((0, 1), 40, CTX34)
    b = reference_grid((0, 2), 40, CTX34)
    assert reference_grid((0, 1), 40, CTX34) is a  # a hit makes (0,1] the most recent
    c = reference_grid((0, 3), 40, CTX34)
    assert list(transition._REF_GRID_CACHE.values()) == [a, c]  # 120 points: (0,2] went first
    assert cached_points() == 80
    assert reference_grid((0, 2), 40, CTX34) is not b  # recomputed, equal, evicting (0,1]
    assert tuple(reference_grid((0, 2), 40, CTX34)) == tuple(b)
    assert list(transition._REF_GRID_CACHE.values()) == [c, reference_grid((0, 2), 40, CTX34)]
    assert reference_grid((0, 3), 40, CTX34) is c


def test_grid_above_the_cap_is_returned_not_kept(transition_state, monkeypatch):
    monkeypatch.setattr(transition, "_REF_GRID_CACHE_POINTS", 100)
    small = reference_grid((0, 1), 30, CTX34)
    xs, refs = reference_grid((0, 1), 101, CTX34)
    assert len(xs) == len(refs) == 101
    assert list(transition._REF_GRID_CACHE.values()) == [small]


@pytest.mark.parametrize(
    "interval, n_points",
    [((1, 0), 3), ((2, 2), 10), ((-1, 1), 4), ((0, 1), 1), ((0, 1), 0)],
    ids=["reversed", "empty", "negative-a", "one-point", "no-points"],
)
def test_bad_grids_are_value_errors(interval, n_points, transition_state):
    # each of these puts a point on x = 0 or is no interval of at least 2 points
    reference_grid((0, 1), 7, CTX34)
    inner = build_spline(2)
    for run in (
        lambda: reference_grid(interval, n_points, CTX34),
        lambda: sweep(inner, interval, n_points, CTX34),
        lambda: optimize_transition(inner, interval, n_points, CTX34),
        lambda: gauss_sweep(build_gauss_g(4), interval, n_points, CTX34),
    ):
        with pytest.raises(ValueError, match="0 <= a < b and at least 2 points"):
            run()
    assert len(transition._REF_GRID_CACHE) == 1 and cached_points() == 7


@pytest.mark.parametrize("which", ["chu", "neuman", "yang"])
@pytest.mark.parametrize("x", [mp.nan, mp.inf, -mp.inf], ids=["nan", "inf", "-inf"])
def test_published_bounds_reject_nonfinite(which, x):
    with pytest.raises(ValueError):
        published_bounds(x, which, CTX34)


def test_piecewise_converts_x_at_working_precision():
    # "0.1" must be rounded at the working precision, not at 53 bits first
    inner = build_spline(4)
    assert PiecewiseApproximant(inner, 2).value("0.1", CTX34) == inner.value("0.1", CTX34)


@pytest.mark.parametrize("ctx", [CTX34, CTX70], ids=["d34", "d70"])
@pytest.mark.parametrize("build", [lambda: build_spline(4), lambda: build_subinterval(4, 4)],
                         ids=["spline", "subinterval"])
def test_piecewise_calls_the_inner_branch_bit_for_bit(build, ctx):
    inner = build()
    piece = PiecewiseApproximant(inner, F(19, 8))  # x_o = 2.375, exact in binary
    with ctx.workdps():
        x_o = mp.mpf(2.375)
        ulp = mp.ldexp(1, mp.mag(x_o) - mp.mp.prec)
        below, above = x_o - ulp, x_o + ulp
    for x in ("0.1", "1.5", below, x_o, "-2.3"):  # every |x| <= x_o takes the inner
        assert piece.value(x, ctx) == inner.value(x, ctx), x
    for x in (above, "2.4", 7, "-2.4"):
        assert abs(piece.value(x, ctx)) == 1, x


@pytest.mark.parametrize(
    "inner",
    [erf_ref, RationalPolynomial([0, 1]), build_gauss_g(4), None],
    ids=["function", "polynomial", "gauss_g", "none"],
)
def test_piecewise_rejects_an_inner_that_is_not_odd_approximant(inner):
    with pytest.raises(ValueError, match="inner must be an OddApproximant"):
        PiecewiseApproximant(inner, 2)


def test_improved_rejects_a_gaussian_inner_before_any_grid(transition_state, monkeypatch):
    evaluated = []
    value = RationalFunctionApproximant.value

    def spy(self, x, ctx=CTX34):
        evaluated.append(x)
        return value(self, x, ctx)

    monkeypatch.setattr(RationalFunctionApproximant, "value", spy)
    with pytest.raises(ValueError, match="inner must be an OddApproximant"):
        improved(build_gauss_g(4), (0, 5), 40, CTX34)
    assert not transition._REF_GRID_CACHE and not evaluated


# x_o = 3.5 is grid point 7 of (0, 5] with N = 10, between grid points 3 and 4
@pytest.mark.parametrize("x_o", [F(7, 2), "3.5"], ids=["fraction", "str"])
def test_piecewise_exact_x_o_sweeps_as_the_mpf(x_o, transition_state):
    inner = build_spline(2)
    given = sweep(PiecewiseApproximant(inner, x_o), (0, 5), 10, CTX34)
    as_mpf = sweep(PiecewiseApproximant(inner, mp.mpf(3.5)), (0, 5), 10, CTX34)
    assert given.re == as_mpf.re and given.re_b == as_mpf.re_b
    with CTX34.workdps():  # x = x_o takes the inner
        assert given.re[6] == 1 - inner.value(mp.mpf(3.5), CTX34) / erf_ref(mp.mpf(3.5), CTX34)


def _x_o_forms():
    """x_o = 3.5, grid point 28 of (0, 5] with N = 40, in four forms, and one ulp either side."""
    with CTX34.workdps():
        on = mp.mpf(3.5)
        ulp = mp.ldexp(1, mp.mag(on) - mp.mp.prec)
        below, above = on - ulp, on + ulp
    return {
        "mpf": on, "fraction": F(7, 2), "float": 3.5, "str": "3.5",
        "ulp-below": below, "ulp-below-fraction": mpf_to_fraction(below),
        "ulp-above": above, "ulp-above-fraction": mpf_to_fraction(above),
    }


@pytest.mark.parametrize("with_record", [True, False], ids=["record", "no-record"])
@pytest.mark.parametrize("form", sorted(_x_o_forms()))
def test_piecewise_sweep_splits_exactly_at_x_o(form, with_record, transition_state):
    inner, x_o = build_spline(3), _x_o_forms()[form]
    if with_record:
        optimize_transition(inner, (0, 5), 40, CTX34)
    piece = PiecewiseApproximant(inner, x_o)
    rep = sweep(piece, (0, 5), 40, CTX34)
    assert rep.re == pointwise_errors(piece, (0, 5), 40, CTX34)
    with CTX34.workdps():  # grid point 28 (index 27) takes the inner unless x_o lies below it
        inner_error = 1 - inner.value(rep.xs[27], CTX34) / erf_ref(rep.xs[27], CTX34)
        assert (rep.re[27] == inner_error) == (not form.startswith("ulp-below"))
        assert rep.re[28] == 1 - 1 / erf_ref(rep.xs[28], CTX34)


@pytest.mark.parametrize("x_o", [F(7, 2), "3.5"], ids=["fraction", "str"])
def test_piecewise_exact_x_o_values_as_the_mpf(x_o):
    inner = build_spline(2)
    given, as_mpf = PiecewiseApproximant(inner, x_o), PiecewiseApproximant(inner, mp.mpf(3.5))
    for x in (3, F(7, 2), 4):
        assert given.value(x, CTX34) == as_mpf.value(x, CTX34)
    assert given.value(3, CTX34) == inner.value(3, CTX34) and given.value(4, CTX34) == 1


@pytest.mark.parametrize(
    "x_o",
    [mp.nan, mp.inf, float("nan"), float("-inf"), "nan", "abc", None, [1], -1, mp.mpf(-1), "-0.5"],
    ids=["mpf-nan", "mpf-inf", "float-nan", "float-inf", "str-nan", "str", "none", "list",
         "negative-int", "negative-mpf", "negative-str"],
)
def test_piecewise_rejects_bad_x_o_at_construction(x_o):
    with pytest.raises(ValueError, match="x_o"):
        PiecewiseApproximant(build_spline(2), x_o)


def test_taylor_value_is_its_polynomial():
    t9 = taylor(9)
    with CTX34.workdps():
        for x in (mp.mpf("0.3"), mp.mpf("1.7"), mp.mpf(-2)):
            assert t9.value(x, CTX34) == eval_poly(t9.poly, x) / sqrt_pi()
