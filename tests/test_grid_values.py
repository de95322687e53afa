"""The sweep's batch entry: poly-exp approximants on a cached grid, with held exponentials."""

import hashlib

import mpmath as mp
import pytest

from erfkit import transition
from erfkit.gauss import build_erf_series
from erfkit.oracle import CTX34, CTX70
from erfkit.spline import build_spline
from erfkit.subinterval import build_subinterval
from erfkit.transition import PiecewiseApproximant, optimize_transition, reference_grid, sweep, taylor

# label -> (approximant, interval, points, context). Grids of the certify-warm
# benchmark's shape; the piecewise row sweeps its inner up to x_o, a prefix.
CASES = {
    "f_4": (lambda: build_spline(4), (0, 5), 300, CTX34),
    "f_16": (lambda: build_spline(16), (0, 5), 300, CTX34),
    "f_0,4": (lambda: build_subinterval(0, 4), (0, 8), 300, CTX34),
    "f_8,4": (lambda: build_subinterval(8, 4), (0, 8), 300, CTX34),
    "f_16,4": (lambda: build_subinterval(16, 4), (0, 8), 300, CTX34),
    "f_0,16": (lambda: build_subinterval(0, 16), (0, 12), 100, CTX70),
    "f_8,16": (lambda: build_subinterval(8, 16), (0, 12), 100, CTX70),
    "f_16,16": (lambda: build_subinterval(16, 16), (0, 12), 100, CTX70),
    "T_9": (lambda: taylor(9), (0, 4), 200, CTX34),
    "series_4_3": (lambda: build_erf_series(4, 3), (0, 5), 300, CTX34),
    "piecewise_f_8,4": (lambda: PiecewiseApproximant(build_subinterval(8, 4), "4.6616"), (0, 8), 300, CTX34),
}

# sha256 of each case's signed sweep errors (one "sign man exp bc" line per
# point), recorded with the point-by-point value loop the batch replaced
SWEEP_ERROR_PINS = {
    "f_4": "070f77c07939c6b57b374e49a1adf1aa6a757b48d5729f4e35a747c044af3924",
    "f_16": "c57424ba4c4672c043ce9556cfd3ce96e4d828d7ad9f034925d0d3caf559c658",
    "f_0,4": "62e48c2d6c859d495bcf1e4ca71bbe4ac1d3f64108e048b5fc068054e4f69c45",
    "f_8,4": "de5ae4523448269550961eb7b916b284a7201ff38f3d4471cc639eda2c0ccb0a",
    "f_16,4": "7b178e84b149bbb4856b73c4b80987787b06f006dc7e88a143a1378b8a8c2d9f",
    "f_0,16": "e1d46fdc69eb7cb78b9c60bce3196e3ba56937d716e07aa2efd76ac64f625891",
    "f_8,16": "fa0666ea6e2499ba1aae3692ffec05c8499b0f647ae5e2b1f1311d078ca36453",
    "f_16,16": "8f6c0dafc1f9b7cebc5ff89e5b7dcc743271ffbd52fa94f84e9c1ba8a8baf976",
    "T_9": "cd5159d392996bc69f18a9bd66af3e232b32f6415a9b818f6f6ad31bd71eef7c",
    "series_4_3": "cc8513cbce7ed442b1dcee03aec7570349ff1e8062d7bc6faf842b97d7931343",
    "piecewise_f_8,4": "f99b6a36f9ff4a6a28463cef69a60a40b1fac8854153cd9ee19e584c73c51f03",
}


def held_values(exps):
    return sum(len(column) for _, column in exps.values())


def pointwise_errors(approx, xs, refs, ctx):
    with ctx.workdps():
        return tuple(1 - approx.value(x, ctx) / ref for x, ref in zip(xs, refs))


@pytest.mark.parametrize("label", CASES)
def test_sweep_errors_pinned_bit_for_bit(label, transition_state):
    build, interval, n_points, ctx = CASES[label]
    digest = hashlib.sha256()
    for r in sweep(build(), interval, n_points, ctx).re:
        digest.update(b"%d %d %d %d\n" % r._mpf_)
    assert digest.hexdigest() == SWEEP_ERROR_PINS[label]


@pytest.mark.parametrize("label", [label for label in CASES if not label.startswith("piecewise")])
def test_held_exps_give_the_cold_and_pointwise_errors(label, transition_state):
    build, interval, n_points, ctx = CASES[label]
    approx = build()
    xs, refs = reference_grid(interval, n_points, ctx)
    expected = pointwise_errors(approx, xs, refs, ctx)
    rates = sum(1 for rate in approx.form.rates if rate)
    with ctx.workdps():
        # a grid that is not cached: every exponential computed, none held
        cold = transition._relative_errors(approx, tuple(list(xs)), refs, n_points, ctx)
        assert cold == expected and not transition._GRID_EXPS
        # a prefix fills the held exponentials of the whole grid, one per rate
        assert transition._relative_errors(approx, xs, refs, 37, ctx) == expected[:37]
        assert len(transition._GRID_EXPS) == rates
        assert held_values(transition._GRID_EXPS) == rates * n_points
        held = dict(transition._GRID_EXPS)
        warm = transition._relative_errors(approx, xs, refs, n_points, ctx)
        assert warm == expected and transition._GRID_EXPS == held
        assert transition._relative_errors(approx, xs, refs, 5, ctx) == expected[:5]


def test_orders_on_one_grid_share_their_rates(transition_state):
    # f_{n,4} has the rates j^2/16 for every n, and f_{n,8} the j^2/64: half of
    # them are f_{n,4}'s, so f_{8,8} adds four columns to f_{0,4}'s four
    xs, refs = reference_grid((0, 8), 80, CTX34)
    for approx, columns in ((build_subinterval(0, 4), 4), (build_subinterval(16, 4), 4),
                            (build_subinterval(8, 8), 8), (build_spline(12), 8)):
        with CTX34.workdps():
            errors = transition._relative_errors(approx, xs, refs, 80, CTX34)
        assert errors == pointwise_errors(approx, xs, refs, CTX34)
        assert len(transition._GRID_EXPS) == columns


def test_optimize_transition_and_sweep_match_pointwise_errors(transition_state):
    inner = build_subinterval(4, 16)
    res = optimize_transition(inner, (0, 12), 60, CTX70)
    xs, refs = reference_grid((0, 12), 60, CTX70)
    expected = pointwise_errors(inner, xs, refs, CTX70)
    assert transition._INNER_ERRORS[2] == expected[: xs.index(res.x_o) + 1]  # up to the crossing
    transition._REF_GRID_CACHE.clear()  # the record's grid tuple is gone: the sweep evaluates
    piece = PiecewiseApproximant(inner, res.x_o)
    rep = sweep(piece, (0, 12), 60, CTX70)
    assert rep.re == pointwise_errors(piece, rep.xs, reference_grid((0, 12), 60, CTX70)[1], CTX70)


def test_exps_of_an_evicted_grid_are_gone(transition_state, monkeypatch):
    monkeypatch.setattr(transition, "_REF_GRID_CACHE_POINTS", 100)
    first = sweep(build_subinterval(2, 4), (0, 5), 60, CTX34).xs
    assert {entry[0] for entry in transition._GRID_EXPS.values()} == {first}
    assert held_values(transition._GRID_EXPS) == 4 * 60
    second = sweep(build_spline(2), (0, 6), 60, CTX34).xs  # 120 points: (0, 5] goes
    assert [xs for xs, _ in transition._REF_GRID_CACHE.values()] == [second]
    assert [entry[0] for entry in transition._GRID_EXPS.values()] == [second]
    assert held_values(transition._GRID_EXPS) == 60


def test_exps_cap_holds_and_keeps_every_grid(transition_state, monkeypatch):
    monkeypatch.setattr(transition, "_GRID_EXPS_VALUES", 100)
    with CTX34.workdps():
        quarter, one, prec = (-mp.mpf(1) / 4)._mpf_, (-mp.mpf(1))._mpf_, mp.mp.prec
    a = sweep(build_subinterval(0, 2), (0, 5), 40, CTX34).xs  # rates 1/4 and 1: 80 values
    b = sweep(build_spline(4), (0, 6), 40, CTX34).xs  # rate 1 on another grid: 1/4 on a goes
    assert list(transition._GRID_EXPS) == [(id(a), one, prec), (id(b), one, prec)]
    assert held_values(transition._GRID_EXPS) == 80 and len(transition._REF_GRID_CACHE) == 2
    # 160 exponentials on 40 points are more than the cap: formed at each point, none held
    approx = build_subinterval(0, 4)
    xs, refs = reference_grid((0, 5), 40, CTX34)
    assert sweep(approx, (0, 5), 40, CTX34).re == pointwise_errors(approx, xs, refs, CTX34)
    assert list(transition._GRID_EXPS) == [(id(a), one, prec), (id(b), one, prec)]
    assert (id(a), quarter, prec) not in transition._GRID_EXPS
    assert len(transition._REF_GRID_CACHE) == 2


def test_grid_above_the_point_cap_holds_no_exps(transition_state, monkeypatch):
    monkeypatch.setattr(transition, "_REF_GRID_CACHE_POINTS", 100)
    sweep(build_spline(4), (0, 5), 101, CTX34)
    assert not transition._REF_GRID_CACHE and not transition._GRID_EXPS


def test_grid_cache_values_are_the_pairs_the_benchmark_reads():
    # perfbench/worker.py counts the points held as sum(len(xs) for xs, _ in values)
    optimize_transition(build_subinterval(4, 4), (0, 8), 30, CTX34)
    sweep(build_subinterval(4, 16), (0, 12), 20, CTX70)
    assert transition._GRID_EXPS
    cache = transition._REF_GRID_CACHE
    for (a, b, n_points, ctx), value in cache.items():
        assert type(value) is tuple and len(value) == 2
        xs, refs = value
        assert len(xs) == len(refs) == n_points
    assert sum(len(xs) for xs, _ in cache.values()) == sum(key[2] for key in cache)
