"""Dynamic-constant-plus-spline approximants on rational-resolution grids.

A table of exact erf increments c_k = erf(k*delta) - erf((k-1)*delta) covers
[0, k_max*delta]; inside a cell the order-n interval spline corrects over
[delta*floor(x/delta), x]. Cell classification is exact: the mpf argument is
converted to its dyadic rational and compared against rational multiples of
delta, so boundary points land in the right cell with offset exactly 0 and
nearly-boundary points are never snapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .exact import (
    as_mpf,
    fraction_to_mpf,
    hermite_table,
    hermite_values_mpf,
    mpf_to_fraction,
    spline_coeff,
)
from .oracle import CTX34, OddApproximant, PrecisionContext, erf_ref, sqrt_pi


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


def _spline_weights(n: int) -> list:
    """Doubled quadrature weights 2 c_{n,k}, k = 0..n."""
    return [2 * spline_coeff(n, k) for k in range(n + 1)]


def _corrected(base, weights, xm, offset, pk_alpha, ealpha):
    """base plus the order-n interval spline for erf over [xm - offset, xm].

    pk_alpha holds p(k, alpha) and ealpha is exp(-alpha^2) at the cell start
    alpha = xm - offset; weights are the doubled quadrature weights.
    """
    px = hermite_values_mpf(len(weights) - 1, xm)
    ex = mp.exp(-xm * xm)
    acc = mp.mpf(0)
    wk = offset
    for k, c in enumerate(weights):
        ck = fraction_to_mpf(c)
        right = px[k] * ex if k % 2 == 0 else -px[k] * ex
        acc += ck * wk * (pk_alpha[k] * ealpha + right)
        wk *= offset
    return base + acc / sqrt_pi()


class GridApproximant(OddApproximant):
    """Order-n spline correction on top of a GridTable; valid for covered x."""

    def __init__(self, order: int, table: GridTable):
        self.order = order
        self.table = table
        self._htable = hermite_table(order)
        self._coeffs = _spline_weights(order)
        self._cell_cache: dict = {}

    def _cell_data(self, index: int):
        """p(k, alpha) values and exp(-alpha^2) for a cell start alpha = index*delta."""
        key = (index, mp.mp.prec)
        hit = self._cell_cache.get(key)
        if hit is None:
            alpha = self.table.resolution * index
            alpha_m = fraction_to_mpf(alpha)
            pk = [fraction_to_mpf(self._htable[k].evaluate(alpha)) for k in range(self.order + 1)]
            hit = (pk, mp.exp(-alpha_m * alpha_m))
            self._cell_cache[key] = hit
        return hit

    def positive(self, xm, ctx: PrecisionContext):
        index, offset = floor_cells(xm, self.table.resolution)
        if index > self.table.k_max:
            if not self.table.saturated:
                raise ValueError(
                    "x = %s lies beyond the tabulated grid (k_max = %d)"
                    % (mp.nstr(xm, 8), self.table.k_max)
                )
            base = self.table.partial[-1]
        else:
            base = self.table.partial[index]
        return _corrected(base, self._coeffs, xm, offset, *self._cell_data(index))


def covering_grid(n: int, delta, interval, ctx: PrecisionContext = CTX34) -> GridApproximant:
    """Order-n grid approximant covering [0, b] for interval (a, b): k_max = floor(b/delta) + 2."""
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
        idx = 0
        for i, k in enumerate(grid.knots, start=1):
            if k <= xm:
                idx = i
            else:
                break
        x_s = grid.knots[idx - 1] if idx else mp.mpf(0)
        pk_alpha = hermite_values_mpf(n, x_s)
        ealpha = mp.exp(-x_s * x_s)
        return _corrected(grid.partial[idx], _spline_weights(n), xm, xm - x_s, pk_alpha, ealpha)
