from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.apps import (
    _Y4,
    FilterModel,
    _periodic_trapezoid,
    arbitrate_harmonics,
    filter_convolution_oracle,
    filter_response_approx,
    filter_response_exact,
    harmonic_levels,
    harmonic_quadrature,
    output_power,
    output_power_quadrature,
)
from erfkit.exact import as_mpf
from erfkit.oracle import CTX34, PrecisionContext, erf_ref
from erfkit.spline import build_spline
from erfkit.transition import PiecewiseApproximant, improved


def test_power_zero_input_limit():
    # the three constant terms cancel: P -> 0 as a -> 0
    with CTX34.workdps():
        assert output_power(mp.mpf("1e-6"), CTX34) < mp.mpf("1e-11")


def test_power_saturates():
    with CTX34.workdps():
        p = output_power(mp.mpf(30), CTX34)
        assert mp.mpf("0.9") < p < 1


def test_power_against_quadrature():
    with CTX34.workdps():
        for a in ("0.5", "1", "2", "3"):
            p = output_power(mp.mpf(a), CTX34)
            q = output_power_quadrature(mp.mpf(a), CTX34)
            assert abs(p - q) / q < mp.mpf("4e-4"), a


def test_power_bounds():
    with CTX34.workdps():
        for a in ("0.25", "1", "2", "3"):
            am = mp.mpf(a)
            p = output_power(am, CTX34)
            assert 0 < p < min(mp.mpf(1), 2 * am * am / mp.pi)


def test_power_monotone_in_amplitude():
    with CTX34.workdps():
        prev = mp.mpf(0)
        for i in range(1, 13):
            p = output_power(mp.mpf(i) / 4, CTX34)
            assert p > prev
            prev = p


def test_harmonics_even_orders_vanish():
    assert harmonic_levels(1, 2, CTX34) == 0
    with pytest.raises(ValueError):
        harmonic_levels(1, 9, CTX34)


def test_harmonics_closed_forms_match_quadrature():
    # printed forms for k = 1, 3, 5 pass arbitration; k = 7 is flagged
    for a in ("0.5", "2"):
        report = arbitrate_harmonics(a, CTX34)
        for k in (1, 3, 5):
            closed, quad, dev, flagged = report[k]
            assert not flagged
            assert dev < mp.mpf("1e-3")
        _, _, _, flagged7 = report[7]
        assert flagged7


def test_harmonic_small_signal_limit():
    # c_{4,1}/sqrt(T) -> sqrt(2) a / sqrt(pi) as a -> 0
    ctx = PrecisionContext(50)
    with ctx.workdps():
        a = mp.mpf("1e-3")
        lim = mp.sqrt(2) * a / mp.sqrt(mp.pi)
        closed = harmonic_levels(a, 1, ctx)
        quad = harmonic_quadrature(a, 1, ctx)
        assert mp.almosteq(closed, lim, rel_eps=mp.mpf("1e-5"))
        assert mp.almosteq(quad, lim, rel_eps=mp.mpf("1e-5"))


def test_fifth_harmonic_small_a_cancellation():
    # the printed 1/a leading terms cancel: c_{4,5} scales like a^5
    ctx = PrecisionContext(50)
    with ctx.workdps():
        v1 = harmonic_levels(mp.mpf("1e-2"), 5, ctx)
        v2 = harmonic_levels(mp.mpf("2e-2"), 5, ctx)
        assert abs(v1) < mp.mpf("1e-9")
        ratio = v2 / v1
        assert mp.almosteq(ratio, mp.mpf(32), rel_eps=mp.mpf("0.01"))


def y4_power_quadrature(a, ctx: PrecisionContext = CTX34):
    """Mean of y4^2 over a period: the total power carried by the harmonics."""
    with ctx.workdps():
        am = as_mpf(a)
        two_pi = 2 * mp.pi

        def f(t):
            return _Y4.value(am * mp.sin(two_pi * t), ctx) ** 2

        return _periodic_trapezoid(f, mp.mpf(1) / 2, ctx, 256) * 2


def test_parseval_gap():
    # first four odd harmonics carry nearly all of the y4 signal's power
    with CTX34.workdps():
        for a in ("1", "2"):
            am = mp.mpf(a)
            report = arbitrate_harmonics(am, CTX34)
            harm_power = sum(report[k][1] ** 2 for k in (1, 3, 5, 7))
            total = y4_power_quadrature(am, CTX34)
            gap = total - harm_power
            assert -mp.mpf("1e-30") < gap < mp.mpf("1e-4"), a


def test_filter_initial_rest_and_dc_gain():
    m = FilterModel(F(1, 2), 1)
    assert filter_response_exact(m, 0, CTX34) == 0
    with CTX34.workdps():
        assert mp.almosteq(filter_response_exact(m, 12, CTX34), mp.mpf(1), abs_eps=mp.mpf("1e-9"))


def test_filter_exact_matches_convolution():
    m = FilterModel(F(1, 2), 1)
    with CTX34.workdps():
        for t in ("0.2", "0.5", "1", "2"):
            ye = filter_response_exact(m, t, CTX34)
            yc = filter_convolution_oracle(m, t, CTX34)
            assert abs(ye - yc) < mp.mpf("1e-35"), t


def test_filter_approx_with_oracle_equals_exact():
    class Oracle:
        def value(self, x, ctx):
            return erf_ref(x, ctx)

    m = FilterModel(F(1, 2), 1)
    with CTX34.workdps():
        t = mp.mpf("0.8")
        assert filter_response_approx(m, Oracle(), t, CTX34) == filter_response_exact(m, t, CTX34)


def test_filter_approx_zero_at_origin():
    m = FilterModel(F(1, 2), 1)
    piece = PiecewiseApproximant(build_spline(4), mp.mpf("2.3715"))
    assert filter_response_approx(m, piece, 0, CTX34) == 0


def test_filter_approx_order_improves():
    # max |y_n - y| over a coarse grid decreases with order (2, 4, 8)
    m = FilterModel(F(1, 2), 1)
    with CTX34.workdps():
        ts = [mp.mpf(3) * i / 40 for i in range(1, 41)]
        exact = [filter_response_exact(m, t, CTX34) for t in ts]
        worst = {}
        for n in (2, 4, 8):
            piece, _ = improved(build_spline(n), (0, 5), 2000, CTX34)
            worst[n] = max(
                abs(filter_response_approx(m, piece, t, CTX34) - e) for t, e in zip(ts, exact)
            )
        assert worst[2] > worst[4] > worst[8]


def test_filter_rejects_negative_time():
    with pytest.raises(ValueError):
        filter_response_exact(FilterModel(F(1, 2), 1), -1, CTX34)


@pytest.mark.parametrize(
    "gamma, f_p", [(0, 1), (F(1, 2), 0), (-1, 1), (F(1, 2), F(-2)), (mp.inf, 1), (F(1, 2), mp.nan)]
)
def test_filter_model_rejects_nonpositive_or_nonfinite_parameters(gamma, f_p):
    with pytest.raises(ValueError):
        FilterModel(gamma, f_p)


@pytest.mark.parametrize(
    "oracle, closed",
    [(output_power_quadrature, output_power), (lambda a, ctx: harmonic_quadrature(a, 1, ctx),
                                                lambda a, ctx: harmonic_levels(a, 1, ctx))],
    ids=["power", "harmonic"],
)
@pytest.mark.parametrize("a", [-2, 0, "-1e-3"])
def test_quadrature_oracles_reject_what_their_closed_forms_reject(oracle, closed, a):
    # the oracle once gave P(-2) = P(2), P(0) = 0 and c_{4,1}(-1) = -0.6395
    for form in (closed, oracle):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            form(a, CTX34)


def test_convolution_oracle_rejects_negative_time_and_is_zero_at_rest():
    m = FilterModel(F(1, 2), 1)
    for response in (filter_response_exact, filter_convolution_oracle):
        with pytest.raises(ValueError, match="filter response defined for t >= 0"):
            response(m, -1, CTX34)  # the oracle once gave -750.11
        assert response(m, 0, CTX34) == 0
