import hashlib
from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import as_mpf
from erfkit.grids import (
    GridApproximant,
    build_grid_table,
    build_nonuniform_grid,
    covering_grid,
    eval_nonuniform,
    floor_cells,
)
from erfkit.oracle import CTX34, CTX70, erf_ref
from erfkit.spline import build_spline
from erfkit.tables import TABLE10
from erfkit.transition import grid_points, sweep


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


@pytest.mark.parametrize("n", [-1, 65])
def test_covering_grid_rejects_bad_order_before_tabulating(n, monkeypatch):
    def no_oracle(*args):
        raise AssertionError("the erf table was tabulated for an invalid order")

    monkeypatch.setattr("erfkit.grids.erf_ref", no_oracle)
    with pytest.raises(ValueError, match=r"grid order must be in 0\.\.64, got %d" % n):
        covering_grid(n, F(1, 2), (0, 8))


def test_cells_reject_orders_outside_the_rule():
    knots = build_nonuniform_grid([mp.mpf(1), mp.mpf(2)], CTX34)
    table = build_grid_table(F(1, 2), 4, CTX34)
    for run in (
        lambda: eval_nonuniform(-1, knots, "1.5", CTX34),
        lambda: GridApproximant(65, table).value(1, CTX34),
    ):
        with pytest.raises(ValueError, match=r"interval spline order must be in 0\.\.64"):
            run()


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
        for n in (2, 6):
            for x in ("0.3", "2.75", "4.5", "5.9"):
                a = eval_nonuniform(n, grid, mp.mpf(x), CTX34)
                b = GridApproximant(n, t).value(mp.mpf(x), CTX34)
                assert a == b, (n, x)


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


# sha256 of the _mpf_ of grid values at a fixed sample: 97 sweep points of the
# interval, every knot k*delta and the points 1e-9 either side of each. The
# first four are the Table 10 grid rows, the last a 70-digit table.
GRID_VALUE_PINS = {
    "grid n=3 d=3/4": "a55c90ca2adfb0c73a830a270c7a49600fa90849512ec7435b8ba0407bd5b974",
    "grid n=4 d=3/8": "5509b701f41cac4a7e9b1a40050eda433a08f12d721a19b0f1bc108df5a4592e",
    "grid n=6 d=1/4": "20493e0f8ba193ce9aa274d14919ac96c14699dd06808c924581f4e283559b79",
    "grid n=2 d=19/20": "b7a0718652709ce0b23e88800b2f94c440a550a485364f843fc5c3d1409b0e63",
    "70 digits n=4 d=1/2": "273bcd233af51a72f7a016d6c55bfde294d70f9a3b6fe2d3f08256b681d00d1c",
}


def _grid_case(label):
    if label.startswith("70 digits"):
        return GridApproximant(4, build_grid_table(F(1, 2), 18, CTX70)), (0, 9), CTX70
    n, delta = int(label.split()[1][2:]), F(label.split()[2][2:])
    interval = (0, 5) if delta == F(19, 20) else (0, 8)
    return covering_grid(n, delta, interval, CTX34), interval, CTX34


@pytest.mark.parametrize(
    "label", [row[0] for row in TABLE10 if row[0].startswith("grid")] + ["70 digits n=4 d=1/2"]
)
def test_grid_values_pinned_bit_for_bit(label):
    grid, interval, ctx = _grid_case(label)
    delta, k_max = grid.table.resolution, grid.table.k_max
    step = F(1, 10**9)
    digest = hashlib.sha256()
    with ctx.workdps():
        xs = list(grid_points(interval, 97))
        xs += [as_mpf(delta * k) for k in range(k_max + 1)]
        xs += [as_mpf(delta * k + s) for k in range(1, k_max) for s in (-step, step)]
        for x in xs:
            sign, man, exp, bc = grid.value(x, ctx)._mpf_
            digest.update(b"%d %d %d %d\n" % (sign, man, exp, bc))
    assert digest.hexdigest() == GRID_VALUE_PINS[label]
