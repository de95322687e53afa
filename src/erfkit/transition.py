"""Relative-error sweeps, piecewise improved approximants and bound envelopes.

Sweeps use the deterministic grid x_i = a + i(b-a)/N for i = 1..N; the left
endpoint is excluded so x = 0 (where every approximant and erf both vanish)
never reaches the relative-error quotient. Reference values are cached per
(interval, N, digits) because table reproduction reuses the same grids many
times; the cache keeps the most recently used grids up to a total point count.

A poly-exp approximant (spline, sub-interval, Taylor, erf series) is swept in
one batch (``grid_values``): per point u = x*x is rounded once, and each decay
rate's e^(-k x_i^2) is computed once per cached grid and held beside it, so
every order on that grid with that rate reuses it (f_{n,m} has the rates
j^2/m^2 for every n). Those are the operations ``value`` does, so every error
is the point-by-point quotient's, bit for bit. Other approximants go through
``value`` point by point.

``optimize_transition`` evaluates its inner approximant only up to the
crossing x_o and writes those signed errors, a prefix of one grid, into a
one-slot record that sweeps only read. A sweep of that very inner object, or
of a ``PiecewiseApproximant`` around it, on that very cached grid tuple reads
the record if it holds every point needed (up to x_o for a piecewise sweep,
whose error beyond x_o is 1 - 1/erf(x)), and else evaluates them from the
first point. Approximants must therefore not change between the calls. A
grid built again after eviction is a new tuple, which no record matches.
x <= x_o is decided on exact values (``exact.mpf_to_fraction``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_mul, round_nearest

from .exact import PolyExpSum, RationalPolynomial, as_mpf, exp_parts, mpf_to_fraction
from .oracle import CTX34, OddApproximant, PrecisionContext, erf_ref, sqrt_pi
from .spline import PolyExpApproximant

# Cached grids, least recently used first: key -> (xs, refs). At most
# _REF_GRID_CACHE_POINTS points in all (about 500 bytes each at 34-70 digits,
# so 50 MB). One table holds at most 23,000 (Table 10), the certify-warm
# benchmark's three shared grids at most 706, and the whole test suite, every
# table in one process, 99,215.
_REF_GRID_CACHE: OrderedDict = OrderedDict()
_REF_GRID_CACHE_POINTS = 100_000

# Exponentials of cached grids, least recently used first: (id(xs), -k, prec)
# -> (xs, e^(-k x_i^2) per point as a (mantissa, exponent) pair). An entry
# goes with its grid, and a grid that is not kept gets none. At most
# _GRID_EXPS_VALUES pairs in all, apart from the grid cap (110-175 bytes each
# at 34-70 digits, so at most 35 MB, against 500 bytes a grid point): Table 6
# holds 160,000 (16 rates on 10,000 points), the certify-warm benchmark 3,100.
# Holding xs keeps id(xs) from being reused while the entry is held.
_GRID_EXPS: OrderedDict = OrderedDict()
_GRID_EXPS_VALUES = 200_000

# (grid xs, inner, signed errors) of the last optimize_transition, its only writer, or None.
# The strong references keep their ids from being reused while they are
# held, so a match by identity is sound.
_INNER_ERRORS = None


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


def reference_grid(interval, n_points: int, ctx: PrecisionContext):
    """Grid points and cached erf references for a sweep specification.

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
        hit = (xs, tuple(erf_ref(x, ctx) for x in xs))
    if n_points <= _REF_GRID_CACHE_POINTS:  # a larger grid is returned, not kept
        _REF_GRID_CACHE[key] = hit
        total = sum(len(cached) for cached, _ in _REF_GRID_CACHE.values())
        while total > _REF_GRID_CACHE_POINTS:
            gone = _REF_GRID_CACHE.popitem(last=False)[1][0]
            total -= len(gone)
            for exps_key in [k for k in _GRID_EXPS if k[0] == id(gone)]:
                del _GRID_EXPS[exps_key]
    return hit


def _grid_exps(xs, negk, prec: int) -> tuple:
    """e^(-k x^2) at every point of the grid xs (``exp_parts`` pairs), held while xs is cached."""
    key = (id(xs), negk, prec)
    hit = _GRID_EXPS.get(key)
    if hit is not None:
        _GRID_EXPS.move_to_end(key)
        return hit[1]
    exps = tuple(exp_parts(negk, mpf_mul(x._mpf_, x._mpf_, prec, round_nearest), prec) for x in xs)
    if any(cached is xs for cached, _ in _REF_GRID_CACHE.values()):
        _GRID_EXPS[key] = (xs, exps)
        total = sum(len(held) for _, held in _GRID_EXPS.values())
        while total > _GRID_EXPS_VALUES:
            total -= len(_GRID_EXPS.popitem(last=False)[1][1])
    return exps


def grid_values(approx: PolyExpApproximant, xs):
    """Yields ``approx.value`` at each point of xs in turn, bit for bit, inside its ctx.workdps().

    The batch entry of a sweep: per point u = x*x is rounded once, and each
    rate's e^(-k u) comes from ``_grid_exps``; ``PolyExpSum._sum_at`` is the
    kernel ``value`` runs too. A form with more exponentials on xs than the
    cap holds (f_{1,64} on 20,000 points) forms them at each point instead.
    Lazy: a point is summed only when the caller asks for it.
    """
    prec = mp.mp.prec
    form = approx.form
    plans = form.plan(prec)
    if sum(negk is not None for negk, _ in plans) * len(xs) <= _GRID_EXPS_VALUES:
        columns = [None if negk is None else _grid_exps(xs, negk, prec) for negk, _ in plans]
        exps_at = lambda i, u: [None if column is None else column[i] for column in columns]
    else:
        exps_at = lambda i, u: [exp_parts(negk, u, prec) for negk, _ in plans]
    root = sqrt_pi()._mpf_
    for i, x in enumerate(xs):
        t = x._mpf_
        u = mpf_mul(t, t, prec, round_nearest)
        m, e = form._sum_at(plans, t, u, exps_at(i, u), prec)
        yield mp.make_mpf(mpf_div(from_man_exp(m, e, prec, round_nearest), root, prec, round_nearest))


def _errors(approx, xs, refs, ctx: PrecisionContext):
    """Yields the signed 1 - f(x)/erf(x) at each point of xs in turn, inside ctx.workdps().

    A poly-exp approximant is evaluated in one batch (``grid_values``),
    anything else point by point through ``value``; either way lazily.
    """
    if isinstance(approx, PolyExpApproximant):
        values = grid_values(approx, xs)
    else:
        values = (approx.value(x, ctx) for x in xs)
    return (1 - v / ref for v, ref in zip(values, refs))


def _relative_errors(approx, xs, refs, n: int, ctx: PrecisionContext) -> tuple:
    """Signed 1 - f(x)/erf(x) on the first n points of the cached grid xs, inside ctx.workdps().

    The record of the last ``optimize_transition`` answers if it is of this
    approx on this grid tuple and holds n points; else they are evaluated. A
    ``PiecewiseApproximant`` is 1 beyond x_o, where its error is
    1 - 1/erf(x); up to x_o (a prefix: the grid ascends) its errors are its
    inner's.
    """
    record = _INNER_ERRORS
    if record is not None and record[0] is xs and record[1] is approx and len(record[2]) >= n:
        return record[2][:n]
    if isinstance(approx, PiecewiseApproximant):
        split = bisect_right(xs, approx._bound, hi=n, key=mpf_to_fraction)
        head = _relative_errors(approx.inner, xs, refs, split, ctx)
        return head + tuple(1 - 1 / ref for ref in refs[split:n])
    return tuple(islice(_errors(approx, xs, refs, ctx), n))


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

    A ``PiecewiseApproximant`` at x_o swept right after ``optimize_transition``
    of its inner on the same grid reads that call's record and evaluates
    nothing; a sweep the record does not cover evaluates from the first point.
    """
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        res = _relative_errors(approx, xs, refs, n_points, ctx)
        best_i = max(range(n_points), key=lambda i: abs(res[i]))
        best = abs(res[best_i])
    return SweepReport(
        interval=(interval[0], interval[1]),
        n_points=n_points,
        digits=ctx.working_digits,
        xs=xs,
        re=res,
        re_b=best,
        argmax_x=xs[best_i],
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
        try:
            bound = mpf_to_fraction(self.x_o)
        except (TypeError, ValueError) as exc:
            raise ValueError("x_o must be a finite number, got %r" % (self.x_o,)) from exc
        object.__setattr__(self, "_bound", bound)

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

    The inner is evaluated only up to x_o, the tail at every point. When the
    inner curve never reaches the tail curve, x_o is the last grid point and
    tail_never_better is set.

    The inner is walked from the first grid point on every call, and its
    signed errors up to x_o replace the module's one-grid record, so that a
    sweep of ``PiecewiseApproximant(inner, x_o)`` on this grid reads them.
    """
    global _INNER_ERRORS
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        # every tail error: erf_ref can exceed 1 at large x, so the tail is not monotone
        tail_abs = [abs(1 - 1 / ref) for ref in refs]
        errors = []
        for err, tail in zip(_errors(inner, xs, refs, ctx), tail_abs):
            errors.append(err)
            if abs(err) >= tail:
                break
        _INNER_ERRORS = (xs, inner, tuple(errors))
        inner_abs = [abs(r) for r in errors]
        cross = len(errors) - 1
        if inner_abs[-1] < tail_abs[cross]:  # every point walked, none crossed
            return TransitionResult(xs[-1], max(inner_abs), tail_never_better=True)
        bound = max(chain(inner_abs, islice(tail_abs, cross + 1, None)))
    return TransitionResult(xs[cross], bound, tail_never_better=False)


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
