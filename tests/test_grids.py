from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.grids import (
    GridApproximant,
    build_grid_table,
    build_nonuniform_grid,
    covering_grid,
    eval_nonuniform,
    floor_cells,
)
from erfkit.oracle import CTX34, erf_ref
from erfkit.spline import build_spline
from erfkit.transition import sweep


def test_table_values_at_half():
    t = build_grid_table(F(1, 2), 12, CTX34)
    with CTX34.workdps():
        assert mp.almosteq(t.c[1], mp.mpf("5.204998778e-1"), rel_eps=mp.mpf("1e-9"))
        assert mp.almosteq(t.c[12], mp.mpf("7.336328181e-15"), rel_eps=mp.mpf("1e-9"))
    assert t.c[0] == 0
    assert t.k_max == 12


@pytest.mark.parametrize(
    "delta, b, k_max", [(F(19, 20), 5, 7), (F(3, 8), 8, 23), (F(1, 4), 8, 34), (F(3, 4), 8, 12)]
)
def test_covering_grid_tabulates_two_cells_past_b(delta, b, k_max):
    grid = covering_grid(2, delta, (0, b), CTX34)
    assert (grid.order, grid.table.resolution, grid.table.k_max) == (2, delta, k_max)


def test_covering_grid_rejects_nonpositive_resolution():
    for delta in (0, F(-1, 2)):
        with pytest.raises(ValueError, match="resolution must be positive"):
            covering_grid(2, delta, (0, 8))


def test_table_columns_positive_decreasing():
    t = build_grid_table(F(1, 2), 12, CTX34)
    for k in range(1, 12):
        assert t.c[k] > 0
        if k * F(1, 2) >= 1:
            assert t.c[k + 1] < t.c[k]
    with CTX34.workdps():
        for k in range(1, 13):
            assert mp.almosteq(t.partial[k], erf_ref(mp.mpf(k) / 2, CTX34), rel_eps=mp.mpf("1e-40"))


def test_floor_cells_fixtures():
    idx, off = floor_cells(mp.mpf(1), F(1, 2))
    assert (idx, off) == (2, 0)
    with CTX34.workdps():
        idx, off = floor_cells(mp.mpf("0.74"), F(1, 2))
        assert idx == 1
        assert mp.almosteq(off, mp.mpf("0.24"), abs_eps=mp.mpf("1e-40"))
        # a hair below the boundary stays in the lower cell: no snapping
        idx, off = floor_cells(mp.mpf("0.4999999999"), F(1, 2))
        assert idx == 0
        assert off > mp.mpf("0.49")


def test_first_cell_reduces_to_plain_spline():
    t = build_grid_table(F(1, 2), 8, CTX34)
    g = GridApproximant(0, t)
    f0 = build_spline(0)
    with CTX34.workdps():
        for xs in ("0.1", "0.3", "0.49"):
            x = mp.mpf(xs)
            assert abs(g.value(x, CTX34) - f0.value(x, CTX34)) < mp.mpf("1e-42")


def test_matches_printed_low_order_forms():
    # the explicit order-1 and order-2 printed expansions, checked numerically
    t = build_grid_table(F(1, 2), 10, CTX34)
    with CTX34.workdps():
        for n in (1, 2, 3, 4):
            g = GridApproximant(n, t)
            for xs in ("0.74", "1.2", "2.31"):
                x = mp.mpf(xs)
                idx, off = floor_cells(x, F(1, 2))
                alpha = mp.mpf(idx) / 2
                base = t.partial[idx]
                # directly assemble the printed bracket structure for order 1
                if n == 1:
                    direct = (
                        base
                        + off / mp.sqrt(mp.pi) * (mp.exp(-alpha * alpha) + mp.exp(-x * x))
                        - off**2
                        / (3 * mp.sqrt(mp.pi))
                        * (alpha * mp.exp(-alpha * alpha) - x * mp.exp(-x * x))
                    )
                    assert mp.almosteq(g.value(x, CTX34), direct, rel_eps=mp.mpf("1e-38"))
                # residual against erf shrinks with order
                assert abs(1 - g.value(x, CTX34) / erf_ref(x, CTX34)) < mp.mpf(10) ** (-(2 * n))


def test_knot_continuity_and_accuracy():
    t = build_grid_table(F(1, 2), 12, CTX34)
    g = GridApproximant(2, t)
    with CTX34.workdps():
        for k in (1, 2, 4, 8):
            x = mp.mpf(k) / 2
            # the error re-sets at knots: table values are oracle-exact there
            re = abs(1 - g.value(x, CTX34) / erf_ref(x, CTX34))
            assert re < mp.mpf("1e-40")
            # the spline term vanishes at zero cell width: right-continuity
            right = g.value(x + mp.mpf("1e-30"), CTX34)
            assert abs(right - g.value(x, CTX34)) < mp.mpf("1e-28")
            # approaching from below carries the full-cell residual (the reset)
            left = g.value(x - mp.mpf("1e-30"), CTX34)
            assert abs(left - g.value(x, CTX34)) < mp.mpf("1e-4")


def test_resolution_refinement_improves_bound():
    bounds = {}
    for delta in (F(1), F(1, 2), F(1, 4)):
        t = build_grid_table(delta, int(8 / delta) + 2, CTX34)
        rep = sweep(GridApproximant(2, t), (0, 8), 1500, CTX34)
        bounds[delta] = rep.re_b
    assert bounds[F(1)] > bounds[F(1, 2)] > bounds[F(1, 4)]


def test_beyond_table_raises_unless_saturated():
    t = build_grid_table(F(1, 2), 4, CTX34)
    g = GridApproximant(1, t)
    assert not t.saturated
    with pytest.raises(ValueError):
        g.value(mp.mpf(3), CTX34)
    # a table built far out saturates and then extends quietly
    t2 = build_grid_table(F(1, 2), 40, CTX34)
    assert t2.saturated
    g2 = GridApproximant(1, t2)
    with CTX34.workdps():
        v = g2.value(mp.mpf(19), CTX34)
        assert mp.almosteq(v, mp.mpf(1), abs_eps=mp.mpf("1e-30"))


def test_nonuniform_matches_uniform_on_uniform_knots():
    t = build_grid_table(F(1, 2), 12, CTX34)
    with CTX34.workdps():
        knots = [mp.mpf(k) / 2 for k in range(1, 13)]
        grid = build_nonuniform_grid(knots, CTX34)
        x = mp.mpf("2.75")
        a = eval_nonuniform(2, grid, x, CTX34)
        b = GridApproximant(2, t).value(x, CTX34)
        assert mp.almosteq(a, b, rel_eps=mp.mpf("1e-38"))


def test_nonuniform_below_first_knot_is_plain_spline():
    with CTX34.workdps():
        grid = build_nonuniform_grid([mp.mpf(1), mp.mpf(2)], CTX34)
        x = mp.mpf("0.6")
        assert mp.almosteq(
            eval_nonuniform(3, grid, x, CTX34), build_spline(3).value(x, CTX34),
            rel_eps=mp.mpf("1e-38"),
        )


def test_nonuniform_beyond_last_knot_error_grows():
    # spline runs from x_m over a widening interval; error grows with distance
    with CTX34.workdps():
        grid = build_nonuniform_grid([mp.mpf(1) / 2, mp.mpf(1)], CTX34)
        errs = []
        for xs in ("1.5", "2.5", "3.5"):
            x = mp.mpf(xs)
            errs.append(abs(1 - eval_nonuniform(2, grid, x, CTX34) / erf_ref(x, CTX34)))
        assert errs[0] < errs[1] < errs[2]


def test_bad_inputs():
    with pytest.raises(ValueError):
        build_grid_table(F(0), 4, CTX34)
    with pytest.raises(ValueError):
        floor_cells(mp.mpf(-1), F(1, 2))
    with pytest.raises(ValueError):
        build_nonuniform_grid([mp.mpf(2), mp.mpf(1)], CTX34)
