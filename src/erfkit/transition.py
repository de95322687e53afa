"""Relative-error sweeps, piecewise improved approximants and bound envelopes.

Sweeps use the deterministic grid x_i = a + i(b-a)/N for i = 1..N; the left
endpoint is excluded so x = 0 (where every approximant and erf both vanish)
never reaches the relative-error quotient. Reference values are cached per
(interval, N, digits) because table reproduction reuses the same grids many
times; the cache keeps the most recently used grids up to a total point count.

A cached grid is a ``SweepGrid``. Besides its points and erf references it
holds, formed the first time a sweep needs them, the rounded squares u = x*x,
the signed constant-1 tail errors 1 - 1/erf(x), each decay rate's
e^(-k x_i^2) up to the last point read (every order on that grid with that
rate reuses it: f_{n,m} has the rates j^2/m^2 for every n) and the search
record below. A poly-exp approximant (spline, sub-interval, Taylor, erf
series) or a ``SqrtForm`` (whose radicand is a poly-exp sum) is swept in one
batch (``grid_values``) on libmp ``_mpf_`` tuples. It rounds the operations
``value`` and the mpf expression 1 - f/erf round, so every error is the
point-by-point quotient's, bit for bit; mpf objects are made only for the
errors a caller keeps. Other approximants go through ``value`` point by point.

``optimize_transition`` evaluates its inner only up to the crossing x_o and
writes those signed errors into the grid's record, which sweeps only read. A
sweep of that very inner object, or of a ``PiecewiseApproximant`` around it,
on that grid reads the record if it holds every point needed (up to x_o for a
piecewise sweep, whose error beyond x_o is 1 - 1/erf(x)), and else evaluates
them from the first point, so approximants must not change between the calls.
An evicted grid takes all it holds with it.
x <= x_o is decided on exact values (``exact.mpf_to_fraction``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, islice

import mpmath as mp
from mpmath.libmp import fone, from_man_exp, mpf_abs, mpf_cmp, mpf_div, mpf_ge, mpf_lt, mpf_mul
from mpmath.libmp import mpf_rdiv_int, mpf_sub, round_nearest

from .exact import PolyExpSum, RationalPolynomial, as_mpf, exp_parts, mpf_to_fraction
from .oracle import CTX34, OddApproximant, PrecisionContext, erf_ref, sqrt_pi
from .spline import PolyExpApproximant
from .sqrtform import SqrtForm

# Cached grids, least recently used first: key -> SweepGrid. At most
# _REF_GRID_CACHE_POINTS points in all (about 800 bytes each at 34-70 digits
# with their squares and tails, so 80 MB). One table holds at most 23,000
# (Table 10), the certify-warm benchmark's three shared grids at most 706, and
# the whole test suite, every table in one process, 99,215.
_REF_GRID_CACHE: OrderedDict = OrderedDict()
_REF_GRID_CACHE_POINTS = 100_000

# Held exponentials on the cached grids in all, a column counted at its grid's length however far
# it is filled; over it the least recently used grid's oldest columns go first. 110-175 bytes each
# at 34-70 digits, so 35 MB: Table 6 holds 160,000 (16 rates on 10,000 points).
_GRID_EXPS_VALUES = 200_000
_FILL = 16  # points a held column is extended by at a time

_by_value = cmp_to_key(mpf_cmp)  # orders ``_mpf_`` tuples by the numbers they hold


@dataclass(eq=False, repr=False)
class SweepGrid:
    """Points xs, erf references refs and what the sweeps of one grid share; unpacks as (xs, refs).

    ``squares`` and ``tails``: per point, x*x and 1 - 1/ref as ``_mpf_`` tuples, rounded at the
    current precision (every sweep of a grid runs inside its ctx.workdps()) when first read.
    ``exps``: (-k, prec) -> e^(-k x_i^2) as ``exp_parts`` pairs, up to the last point read.
    ``record``: the last ``optimize_transition``'s (inner, signed mpf errors up to x_o), or None.
    """

    xs: tuple
    refs: tuple
    exps: dict = field(default_factory=dict)
    record: tuple = None

    def __iter__(self):
        return iter((self.xs, self.refs))

    @cached_property
    def squares(self) -> tuple:
        prec = mp.mp.prec
        return tuple(mpf_mul(x._mpf_, x._mpf_, prec, round_nearest) for x in self.xs)

    @cached_property
    def tails(self) -> tuple:
        prec = mp.mp.prec
        inverses = (mpf_rdiv_int(1, ref._mpf_, prec, round_nearest) for ref in self.refs)
        return tuple(mpf_sub(fone, q, prec, round_nearest) for q in inverses)


def grid_step(interval, n_points: int) -> tuple:
    """(a, (b-a)/N) as mpf at the current precision; a ValueError unless 0 <= a < b and N >= 2."""
    am, bm = as_mpf(interval[0]), as_mpf(interval[1])
    if not 0 <= am < bm or n_points < 2:
        msg = "a sweep grid needs 0 <= a < b and at least 2 points, got (%s, %s] with %d"
        raise ValueError(msg % (interval[0], interval[1], n_points))
    return am, (bm - am) / n_points


def grid_points(interval, n_points: int):
    """x_i = a + i(b-a)/N, i = 1..N, as a generator at the current precision (``grid_step``)."""
    am, step = grid_step(interval, n_points)
    return (am + i * step for i in range(1, n_points + 1))


def reference_grid(interval, n_points: int, ctx: PrecisionContext) -> SweepGrid:
    """The ``SweepGrid`` of a sweep specification, with cached erf references.

    Keyed by the endpoints as mpf at the working precision, the exact values
    the grid is computed from. A hit becomes the most recently used grid; a
    new grid evicts the least recently used ones beyond the point cap.
    """
    with ctx.workdps():
        key = (as_mpf(interval[0]), as_mpf(interval[1]), n_points, ctx)
        hit = _REF_GRID_CACHE.get(key)
        if hit is not None:
            _REF_GRID_CACHE.move_to_end(key)
            return hit
        xs = tuple(grid_points(interval, n_points))
        hit = SweepGrid(xs, tuple(erf_ref(x, ctx) for x in xs))
    if n_points <= _REF_GRID_CACHE_POINTS:  # a larger grid is returned, not kept
        _REF_GRID_CACHE[key] = hit
        total = sum(len(grid.xs) for grid in _REF_GRID_CACHE.values())
        while total > _REF_GRID_CACHE_POINTS:
            total -= len(_REF_GRID_CACHE.popitem(last=False)[1].xs)
    return hit


def _grid_exps(grid: SweepGrid, negk, prec: int) -> list:
    """The grid's column of e^(-k x^2) (``exp_parts`` pairs), filled by ``grid_values`` as read."""
    exps = grid.exps.get((negk, prec))
    if exps is None:
        exps = grid.exps[negk, prec] = []
        total = sum(len(g.xs) * len(g.exps) for g in _REF_GRID_CACHE.values())
        for cached in _REF_GRID_CACHE.values():
            while total > _GRID_EXPS_VALUES and cached.exps:
                del cached.exps[next(iter(cached.exps))]
                total -= len(cached.xs)
    return exps


def grid_values(approx, grid: SweepGrid, ctx: PrecisionContext):
    """Yields ``approx.value`` at each grid point as an ``_mpf_``, bit for bit, inside ctx.workdps().

    The batch entry of a sweep of a poly-exp approximant or a ``SqrtForm``: ``PolyExpSum._sum_at``,
    the kernel ``value`` runs too, reads the grid's squares and each rate's e^(-k u) from
    ``_grid_exps`` (a form with more exponentials on the grid than the cap holds forms them at each
    point), then divides by sqrt(pi) or takes ``SqrtForm.root``. Lazy: a point is summed only when
    the caller asks for it, and a held column is extended _FILL points at a time as far as read.
    """
    prec = mp.mp.prec
    if isinstance(approx, SqrtForm):
        form = approx.radicand()
        finish = lambda r, x: approx.root(r, x, ctx)
    else:
        form, root = approx.form, sqrt_pi()._mpf_
        finish = lambda r, x: mpf_div(r, root, prec, round_nearest)
    plans = form.plan(prec)
    columns, filled = (), 0  # the form's held columns, each filled at least to point ``filled``
    if sum(negk is not None for negk, _ in plans) * len(grid.xs) <= _GRID_EXPS_VALUES:
        columns = [None if negk is None else _grid_exps(grid, negk, prec) for negk, _ in plans]
        exps_at = lambda i, u: [None if column is None else column[i] for column in columns]
    else:
        exps_at = lambda i, u: [exp_parts(negk, u, prec) for negk, _ in plans]
    for i, (x, u) in enumerate(zip(grid.xs, grid.squares)):
        if i == filled:
            filled += _FILL
            for (negk, _), column in zip(plans, columns):
                if column is not None:
                    column += (exp_parts(negk, v, prec) for v in grid.squares[len(column) : filled])
        m, e = form._sum_at(plans, x._mpf_, u, exps_at(i, u), prec)
        yield finish(from_man_exp(m, e, prec, round_nearest), x)


def _errors(approx, grid: SweepGrid, ctx: PrecisionContext):
    """Yields the signed 1 - f(x)/erf(x) at each grid point as an ``_mpf_``, inside ctx.workdps().

    A poly-exp or sqrt-form approximant is evaluated in one batch (``grid_values``), anything else
    point by point through ``value``; either way lazily, rounded as the mpf expression rounds.
    """
    prec = mp.mp.prec
    if isinstance(approx, (PolyExpApproximant, SqrtForm)):
        values = grid_values(approx, grid, ctx)
    else:
        values = (approx.value(x, ctx)._mpf_ for x in grid.xs)
    for v, ref in zip(values, grid.refs):
        yield mpf_sub(fone, mpf_div(v, ref._mpf_, prec, round_nearest), prec, round_nearest)


def _relative_errors(approx, grid: SweepGrid, n: int, ctx: PrecisionContext) -> tuple:
    """Signed 1 - f(x)/erf(x) on the first n points of the grid as ``_mpf_``, inside ctx.workdps().

    The grid's record answers if it is of this approx and holds n points;
    else they are evaluated. A ``PiecewiseApproximant`` is 1 beyond x_o,
    where its errors are the grid's tails; up to x_o (a prefix: the grid
    ascends) its errors are its inner's.
    """
    if grid.record is not None and grid.record[0] is approx and len(grid.record[1]) >= n:
        return tuple(r._mpf_ for r in grid.record[1][:n])
    if isinstance(approx, PiecewiseApproximant):
        split = bisect_right(grid.xs, approx._bound, hi=n, key=mpf_to_fraction)
        return _relative_errors(approx.inner, grid, split, ctx) + grid.tails[split:n]
    return tuple(islice(_errors(approx, grid, ctx), n))


@dataclass(frozen=True)
class SweepReport:
    """Certification record: grid spec, signed per-point errors, bound, argmax."""

    interval: tuple
    n_points: int
    digits: int
    xs: tuple
    re: tuple
    re_b: object
    argmax_x: object
    argmax_index: int

    def rows(self):
        for x, r in zip(self.xs, self.re):
            yield x, r, abs(r)

    def summary(self) -> dict:
        return {
            "schema": "erfkit-sweep/1",
            "interval": [str(self.interval[0]), str(self.interval[1])],
            "points": self.n_points,
            "digits": self.digits,
            "re_b": mp.nstr(self.re_b, 6),
            "argmax_x": mp.nstr(self.argmax_x, 12),
            "argmax_index": self.argmax_index,
        }


def sweep(approx, interval, n_points: int, ctx: PrecisionContext = CTX34) -> SweepReport:
    """Relative-error sweep of an approximant against the erf oracle.

    A ``PiecewiseApproximant`` at x_o swept after ``optimize_transition`` of
    its inner on the same grid reads that grid's record and evaluates
    nothing; a sweep the record does not cover evaluates from the first point.
    """
    grid = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        res = _relative_errors(approx, grid, n_points, ctx)
    best_i = max(range(n_points), key=lambda i: _by_value(mpf_abs(res[i])))
    return SweepReport(
        interval=(interval[0], interval[1]),
        n_points=n_points,
        digits=ctx.working_digits,
        xs=grid.xs,
        re=tuple(map(mp.make_mpf, res)),
        re_b=mp.make_mpf(mpf_abs(res[best_i])),
        argmax_x=grid.xs[best_i],
        argmax_index=best_i,
    )


def _check_inner(inner):
    if not isinstance(inner, OddApproximant):
        raise ValueError("inner must be an OddApproximant, got %r" % (inner,))


@dataclass(frozen=True)
class PiecewiseApproximant(OddApproximant):
    """Inner odd approximant switched to the constant 1 beyond x_o (odd overall)."""

    inner: OddApproximant
    x_o: object

    def __post_init__(self):
        _check_inner(self.inner)
        msg = "x_o must be a finite number >= 0, got %r" % (self.x_o,)
        try:
            object.__setattr__(self, "_bound", mpf_to_fraction(self.x_o))
        except (TypeError, ValueError) as exc:
            raise ValueError(msg) from exc
        if self._bound < 0:
            raise ValueError(msg)

    def positive(self, xm, ctx: PrecisionContext):
        return self.inner.positive(xm, ctx) if mpf_to_fraction(xm) <= self._bound else mp.mpf(1)


@dataclass(frozen=True)
class TransitionResult:
    x_o: object
    re_b: object
    tail_never_better: bool


def optimize_transition(
    inner, interval, n_points: int, ctx: PrecisionContext = CTX34
) -> TransitionResult:
    """Transition point for switching to the constant-1 tail, plus the bound.

    x_o is the first grid point where |1 - f_n/erf| has risen to meet
    |1 - 1/erf| (the crossing of the two error curves); when the inner error
    has interior humps the assembled bound is flat around the crossing, so
    this choice also minimizes the piecewise re_B up to grid quantization.
    The smallest qualifying grid point is taken; the returned re_B is the
    max of the inner errors up to x_o and the tail errors beyond it.

    The inner is evaluated only up to x_o; the tail errors are the grid's,
    formed once per grid. When the inner curve never reaches the tail curve,
    x_o is the last grid point and tail_never_better is set.

    The inner is walked from the first grid point on every call, and its
    signed errors up to x_o replace the grid's record, so that a sweep of
    ``PiecewiseApproximant(inner, x_o)`` on this grid reads them.
    """
    grid = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        errors = []
        for err, tail in zip(_errors(inner, grid, ctx), grid.tails):
            errors.append(err)
            if mpf_ge(mpf_abs(err), mpf_abs(tail)):
                break
    grid.record = (inner, tuple(map(mp.make_mpf, errors)))
    inner_max = max(map(mpf_abs, errors), key=_by_value)
    cross = len(errors) - 1
    if mpf_lt(mpf_abs(errors[-1]), mpf_abs(grid.tails[cross])):  # every point walked, none crossed
        return TransitionResult(grid.xs[-1], mp.make_mpf(inner_max), tail_never_better=True)
    # every tail past x_o: erf_ref can exceed 1 at large x, so the tail is not monotone
    bound = max(chain((inner_max,), map(mpf_abs, grid.tails[cross + 1 :])), key=_by_value)
    return TransitionResult(grid.xs[cross], mp.make_mpf(bound), tail_never_better=False)


def improved(inner, interval, n_points: int, ctx: PrecisionContext = CTX34):
    """Convenience: optimize the transition and return the piecewise approximant.

    An inner that is not an ``OddApproximant`` is a ValueError before any grid is built.
    """
    _check_inner(inner)
    result = optimize_transition(inner, interval, n_points, ctx)
    return PiecewiseApproximant(inner, result.x_o), result


@dataclass(frozen=True)
class TaylorApproximant(PolyExpApproximant):
    """Odd-order Taylor partial sum; ``poly`` is sqrt(pi) * T_n."""

    order: int
    poly: RationalPolynomial

    @cached_property
    def form(self) -> PolyExpSum:
        return PolyExpSum([(0, self.poly)])


def taylor(n: int) -> TaylorApproximant:
    """T_n(x) = (2/sqrt(pi)) sum_k (-1)^k x^(2k+1) / ((2k+1) k!), k <= (n-1)/2."""
    if n < 1 or n % 2 == 0:
        raise ValueError("Taylor order must be odd and >= 1, got %r" % n)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range((n - 1) // 2 + 1):
        coeffs[2 * k + 1] = Fraction(2 * (-1) ** k, (2 * k + 1) * math.factorial(k))
    return TaylorApproximant(n, RationalPolynomial(coeffs))


@dataclass(frozen=True)
class EnvelopePair:
    """Certified lower/upper bracketing functions f_A/(1 +- eps_B)."""

    base: object
    eps_b: object

    def __post_init__(self):
        # exact, so no working precision rounds an eps_B just below 1 up to 1
        if not 0 < mpf_to_fraction(self.eps_b) < 1:
            raise ValueError("envelope requires 0 < eps_B < 1")

    def lower(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            return self.base.value(x, ctx) / (1 + as_mpf(self.eps_b))

    def upper(self, x, ctx: PrecisionContext = CTX34):
        with ctx.workdps():
            return self.base.value(x, ctx) / (1 - as_mpf(self.eps_b))

    def bound_errors(self, ctx: PrecisionContext = CTX34):
        """Worst-case relative errors (lower, upper): 2e/(1+e), 2e/(1-e) at ctx's precision."""
        with ctx.workdps():
            e = as_mpf(self.eps_b)
            return 2 * e / (1 + e), 2 * e / (1 - e)


envelope = EnvelopePair


def published_bounds(x, which: str, ctx: PrecisionContext = CTX34):
    """Literature lower/upper bounds for erf: 'chu', 'neuman' or 'yang'.

    Chu is taken with p = 1 and the smallest admissible q = 4/pi.
    """
    with ctx.workdps():
        xm = as_mpf(x)
        if xm <= 0:
            raise ValueError("published bounds are stated for x > 0")
        u = xm * xm
        if which == "chu":
            return mp.sqrt(1 - mp.exp(-u)), mp.sqrt(1 - mp.exp(-(4 / mp.pi) * u))
        if which == "neuman":
            lower = 2 * xm / sqrt_pi() * mp.exp(-u / 3)
            upper = 4 * xm / (3 * sqrt_pi()) * (1 + mp.exp(-u) / 2)
            return lower, upper
        if which == "yang":
            pi = mp.pi
            lower = mp.sqrt(
                1
                - (20 / (3 * pi)) * (1 - pi / 4) * mp.exp(-8 * u / 5)
                - (mp.mpf(8) / 3) * (1 - 5 / (2 * pi)) * mp.exp(-u)
            )
            p0 = (21 * pi - 60 + mp.sqrt(3 * (147 * pi**2 - 920 * pi + 1440))) / (
                30 * (pi - 3)
            )
            lam = 4 * (7 * pi - 20 - 5 * (pi - 3) * p0) / (pi * (15 * p0**2 - 40 * p0 + 28))
            mu = 4 * (5 * p0 - 7) / (5 * (3 * p0 - 4))
            upper = mp.sqrt(1 - lam * mp.exp(-p0 * u) - (1 - lam) * mp.exp(-mu * u))
            return lower, upper
        raise ValueError("unknown bound family %r" % which)
