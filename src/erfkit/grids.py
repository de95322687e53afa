"""Dynamic-constant-plus-spline approximants on rational-resolution grids.

A table of exact erf increments c_k = erf(k*delta) - erf((k-1)*delta) covers
[0, k_max*delta]; a cell adds the order-n ``spline.IntervalSpline`` from its
exact knot delta*floor(x/delta) to x, and non-uniform knots use the same rule
at the knot's exact dyadic value. Cell classification is exact: the mpf
argument is converted to its dyadic rational and compared against rational
multiples of delta, so boundary points land in the right cell with offset
exactly 0 and nearly-boundary points are never snapped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .exact import as_mpf, fraction_to_mpf, mpf_to_fraction
from .oracle import CTX34, OddApproximant, PrecisionContext, erf_ref
from .spline import IntervalSpline, check_order


def floor_cells(x, delta) -> tuple:
    """(index, offset) with index = floor(x/delta) computed exactly, offset = x - delta*index."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("resolution must be positive")
    xm = as_mpf(x)
    if xm < 0:
        raise ValueError("floor_cells requires x >= 0")
    index = int(mpf_to_fraction(xm) / delta)
    offset = xm - fraction_to_mpf(delta * index)
    return index, offset


@dataclass(frozen=True)
class GridTable:
    """erf increments on the uniform grid {delta, 2*delta, ...} at a set precision."""

    resolution: Fraction
    c: tuple  # c[k], c[0] = 0
    partial: tuple  # partial[k] = sum_{j<=k} c[j] = erf(k*delta)
    saturated: bool  # increments below table precision past the last entry

    @property
    def k_max(self) -> int:
        return len(self.c) - 1


def build_grid_table(delta, k_max: int, ctx: PrecisionContext = CTX34) -> GridTable:
    """Tabulate c_k from the erf oracle; stops early once c_k is below precision."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("resolution must be positive")
    with ctx.workdps():
        eps = mp.mpf(10) ** (-ctx.total_digits)
        cs = [mp.mpf(0)]
        partial = [mp.mpf(0)]
        prev = mp.mpf(0)
        saturated = False
        for k in range(1, k_max + 1):
            cur = erf_ref(fraction_to_mpf(delta * k), ctx)
            ck = cur - prev
            if ck < eps and k > 1:
                saturated = True
                break
            cs.append(ck)
            partial.append(cur)
            prev = cur
    return GridTable(delta, tuple(cs), tuple(partial), saturated)


class GridApproximant(OddApproximant):
    """Tabulated erf at the cell's knot plus the cell's order-n IntervalSpline; valid for covered x."""

    def __init__(self, order: int, table: GridTable):
        self.order = order
        self.table = table
        self._cells: dict = {}

    def positive(self, xm, ctx: PrecisionContext):
        index, _ = floor_cells(xm, self.table.resolution)
        if index > self.table.k_max:
            if not self.table.saturated:
                raise ValueError(
                    "x = %s lies beyond the tabulated grid (k_max = %d)"
                    % (mp.nstr(xm, 8), self.table.k_max)
                )
            base = self.table.partial[-1]
        else:
            base = self.table.partial[index]
        cell = self._cells.get(index)
        if cell is None:
            cell = self._cells[index] = IntervalSpline(self.order, self.table.resolution * index)
        return base + cell._correction(xm)


def covering_grid(n: int, delta, interval, ctx: PrecisionContext = CTX34) -> GridApproximant:
    """Order-n grid approximant covering [0, b] for interval (a, b): k_max = floor(b/delta) + 2."""
    check_order("grid", n)
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("resolution must be positive")
    k_max = int(Fraction(interval[1]) / delta) + 2
    return GridApproximant(n, build_grid_table(delta, k_max, ctx))


@dataclass(frozen=True)
class NonUniformGrid:
    """Monotone knots x_1 < ... < x_m with increments c_k = erf(x_k) - erf(x_{k-1})."""

    knots: tuple  # mpf knots, not including 0
    c: tuple  # c[k] pairs with knots[k-1]; c[0] = 0
    partial: tuple
    _cells: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_nonuniform_grid(knots, ctx: PrecisionContext = CTX34) -> NonUniformGrid:
    with ctx.workdps():
        ks = [as_mpf(k) for k in knots]
        if any(b <= a for a, b in zip(ks, ks[1:])) or (ks and ks[0] <= 0):
            raise ValueError("knots must be strictly increasing and positive")
        cs = [mp.mpf(0)]
        partial = [mp.mpf(0)]
        prev = mp.mpf(0)
        for k in ks:
            cur = erf_ref(k, ctx)
            cs.append(cur - prev)
            partial.append(cur)
            prev = cur
    return NonUniformGrid(tuple(ks), tuple(cs), tuple(partial))


def eval_nonuniform(n: int, grid: NonUniformGrid, x, ctx: PrecisionContext = CTX34):
    """Order-n spline from the largest knot x_S <= x; x may exceed the last knot."""
    with ctx.workdps():
        xm = as_mpf(x)
        if xm < 0:
            return -eval_nonuniform(n, grid, -xm, ctx)
        idx = bisect_right(grid.knots, xm)
        cell = grid._cells.get((n, idx))
        if cell is None:
            alpha = mpf_to_fraction(grid.knots[idx - 1]) if idx else Fraction(0)
            cell = grid._cells[n, idx] = IntervalSpline(n, alpha)
        return grid.partial[idx] + cell._correction(xm)
