"""The transition search stops at the crossing and gives the all-points walk's result."""

import pytest

from erfkit.oracle import CTX34, CTX70
from erfkit.spline import build_spline
from erfkit.sqrtform import build_sqrt
from erfkit.subinterval import build_subinterval
from erfkit.transition import optimize_transition, reference_grid, taylor
from transition_reference import optimize_transition as all_points_search

# label -> (inner, interval, points, context, crossing index or None). The
# certify-warm benchmark's ten candidates on their seed-0 grids, then an inner
# that never crosses, one that crosses at the first grid point and one that is
# not poly-exp (evaluated through ``value``).
CASES = {
    "f_0,4": (lambda: build_subinterval(0, 4), (0, 8), 300, CTX34, 101),
    "f_4,4": (lambda: build_subinterval(4, 4), (0, 8), 300, CTX34, 139),
    "f_8,4": (lambda: build_subinterval(8, 4), (0, 8), 300, CTX34, 174),
    "f_16,4": (lambda: build_subinterval(16, 4), (0, 8), 300, CTX34, 238),
    "f_4,16": (lambda: build_subinterval(4, 16), (0, 12), 100, CTX70, 59),
    "f_8,16": (lambda: build_subinterval(8, 16), (0, 12), 100, CTX70, 63),
    "f_16,16": (lambda: build_subinterval(16, 16), (0, 12), 100, CTX70, 74),
    "f_4": (lambda: build_spline(4), (0, 5), 300, CTX34, 142),
    "f_10": (lambda: build_spline(10), (0, 5), 300, CTX34, 184),
    "f_16": (lambda: build_spline(16), (0, 5), 300, CTX34, 234),
    "never": (lambda: build_spline(16), (0, 2), 50, CTX34, None),
    "first": (lambda: taylor(1), (5, 10), 20, CTX34, 0),
    "sqrt_6": (lambda: build_sqrt(6), (0, 30), 25, CTX34, 2),
}


@pytest.mark.parametrize("label", CASES)
def test_search_equals_the_all_points_walk(label, transition_state):
    build, interval, n_points, ctx, cross = CASES[label]
    inner = build()
    got = optimize_transition(inner, interval, n_points, ctx)
    want = all_points_search(inner, interval, n_points, ctx)
    assert got.x_o == want.x_o and got.re_b == want.re_b
    assert got.tail_never_better == want.tail_never_better == (cross is None)
    grid = reference_grid(interval, n_points, ctx)
    assert got.x_o is grid.xs[n_points - 1 if cross is None else cross]
    # the grid's record holds the evaluated prefix: up to the crossing, or every point
    held, errors = grid.record
    assert held is inner
    assert len(errors) == (n_points if cross is None else cross + 1)
    with ctx.workdps():
        assert errors == tuple(1 - inner.value(x, ctx) / ref for x, ref in zip(*grid))[: len(errors)]
