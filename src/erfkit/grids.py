"""Dynamic-constant-plus-spline approximants on tables of exact knots.

A table holds exact knots 0 = x_0 < x_1 < ... < x_m, either k*delta for a
rational resolution delta or given, and the erf increments
c_k = erf(x_k) - erf(x_{k-1}). ``GridApproximant`` adds the order-n
``spline.IntervalSpline`` from the largest knot x_k <= x to the tabulated
erf(x_k). Cell classification is exact: the mpf argument is converted to its
dyadic rational and compared against the exact knots, so boundary points land
in the right cell with offset exactly 0 and nearly-boundary points are never
snapped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .exact import as_mpf, fraction_to_mpf, mpf_to_fraction
from .oracle import CTX34, OddApproximant, PrecisionContext, _series_eps, erf_ref
from .spline import IntervalSpline, check_order


@dataclass(frozen=True)
class GridTable:
    """erf at exact knots, k*delta (uniform) or given, at a set precision."""

    knots: tuple  # exact Fractions, knots[0] = 0
    resolution: Fraction | None  # delta for knots k*delta, None for given knots
    c: tuple  # c[k] = erf(knots[k]) - erf(knots[k-1]), c[0] = 0
    partial: tuple  # partial[k] = sum_{j<=k} c[j] = erf(knots[k])
    saturated: bool  # uniform increments below table precision past the last entry

    @property
    def k_max(self) -> int:
        return len(self.c) - 1


def _tabulate(knots, resolution, ctx: PrecisionContext) -> GridTable:
    """erf at each knot; a uniform table stops at its first increment (k > 1) below precision."""
    with ctx.workdps():
        eps = _series_eps(ctx.total_digits)
        kept, cs, partial = [Fraction(0)], [mp.mpf(0)], [mp.mpf(0)]
        saturated = False
        for knot in knots:
            cur = erf_ref(fraction_to_mpf(knot), ctx)
            ck = cur - partial[-1]
            if resolution is not None and ck < eps and len(cs) > 1:
                saturated = True
                break
            kept.append(knot)
            cs.append(ck)
            partial.append(cur)
    return GridTable(tuple(kept), resolution, tuple(cs), tuple(partial), saturated)


def build_grid_table(delta, k_max: int, ctx: PrecisionContext = CTX34) -> GridTable:
    """Tabulate c_k on knots k*delta, k <= k_max; stops early once c_k is below precision."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("resolution must be positive")
    return _tabulate((delta * k for k in range(1, k_max + 1)), delta, ctx)


def build_nonuniform_grid(knots, ctx: PrecisionContext = CTX34) -> GridTable:
    """Tabulate given knots x_1 < ... < x_m, each rounded at the working precision, kept exactly."""
    with ctx.workdps():
        ks = [mpf_to_fraction(as_mpf(k)) for k in knots]
    if any(b <= a for a, b in zip(ks, ks[1:])) or (ks and ks[0] <= 0):
        raise ValueError("knots must be strictly increasing and positive")
    return _tabulate(ks, None, ctx)


class GridApproximant(OddApproximant):
    """Tabulated erf at the cell's knot plus the cell's order-n IntervalSpline.

    Given knots run the spline from the last knot past it; a saturated uniform
    table keeps adding cells k*delta on erf(last knot); an unsaturated one raises.
    """

    def __init__(self, order: int, table: GridTable):
        self.order = order
        self.table = table
        self._cells: dict = {}

    def positive(self, xm, ctx: PrecisionContext):
        table, x = self.table, mpf_to_fraction(xm)
        if table.resolution is None:
            index = bisect_right(table.knots, x) - 1
        else:
            index = int(x / table.resolution)  # the exact floor: x >= 0
            if index > table.k_max and not table.saturated:
                raise ValueError(
                    "x = %s lies beyond the tabulated grid (k_max = %d)"
                    % (mp.nstr(xm, 8), table.k_max)
                )
        cell = self._cells.get(index)
        if cell is None:
            knot = table.knots[index] if table.resolution is None else table.resolution * index
            cell = self._cells[index] = IntervalSpline(self.order, knot)
        return table.partial[min(index, table.k_max)] + cell._correction(xm)


def covering_grid(n: int, delta, interval, ctx: PrecisionContext = CTX34) -> GridApproximant:
    """Order-n grid approximant covering [0, b] for interval (a, b): k_max = floor(b/delta) + 2."""
    check_order("grid", n)
    delta, b = Fraction(delta), mpf_to_fraction(interval[1])
    if delta <= 0:
        raise ValueError("resolution must be positive")
    if b <= 0:
        raise ValueError("interval end must be positive, got %s" % (interval[1],))
    k_max = int(b / delta) + 2
    return GridApproximant(n, build_grid_table(delta, k_max, ctx))
