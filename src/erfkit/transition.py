"""Relative-error sweeps, piecewise improved approximants and bound envelopes.

Sweeps use the deterministic grid x_i = a + i(b-a)/N for i = 1..N; the left
endpoint is excluded so x = 0 (where every approximant and erf both vanish)
never reaches the relative-error quotient. Reference values are cached per
(interval, N, digits) because table reproduction reuses the same grids many
times; the cache keeps the most recently used grids up to a total point count.

``optimize_transition`` records the signed errors of its inner approximant
(one grid's worth, in one slot), matched by identity with the cached grid
tuple and the inner object. A ``PiecewiseApproximant`` swept next on that
grid around that very inner object reads its errors up to x_o from the
record instead of evaluating the inner again; beyond x_o its error is
1 - 1/erf(x). Approximants must therefore not change between the two calls.
A grid built again after eviction is a new tuple, which no record matches.
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

from .exact import PolyExpSum, RationalPolynomial, as_mpf, mpf_to_fraction
from .oracle import CTX34, OddApproximant, PrecisionContext, erf_ref, sqrt_pi
from .spline import PolyExpApproximant

# Cached grids, least recently used first: key -> (xs, refs). At most
# _REF_GRID_CACHE_POINTS points in all (about 500 bytes each at 34-70 digits,
# so 50 MB). One table holds at most 23,000 (Table 10), the certify-warm
# benchmark's three shared grids at most 706, and the whole test suite, every
# table in one process, 99,215.
_REF_GRID_CACHE: OrderedDict = OrderedDict()
_REF_GRID_CACHE_POINTS = 100_000

# (grid xs, inner, signed errors) of the last optimize_transition, or None.
# The strong references keep their ids from being reused while they are
# held, so a match by identity is sound.
_INNER_ERRORS = None


def grid_points(interval, n_points: int):
    """Yield x_i = a + i(b-a)/N, i = 1..N, at the current mpmath precision."""
    am, bm = as_mpf(interval[0]), as_mpf(interval[1])
    step = (bm - am) / n_points
    for i in range(1, n_points + 1):
        yield am + i * step


def reference_grid(interval, n_points: int, ctx: PrecisionContext):
    """Grid points and cached erf references for a sweep specification.

    Keyed by the endpoints as mpf at the working precision, the exact values
    the grid is computed from. A hit becomes the most recently used grid; a
    new grid evicts the least recently used ones beyond the point cap. A
    grid needs 0 <= a < b and N >= 2, so that no point lands on x = 0;
    anything else is a ValueError.
    """
    with ctx.workdps():
        key = (as_mpf(interval[0]), as_mpf(interval[1]), n_points, ctx)
        hit = _REF_GRID_CACHE.get(key)
        if hit is not None:
            _REF_GRID_CACHE.move_to_end(key)
            return hit
        if not 0 <= key[0] < key[1] or n_points < 2:
            raise ValueError(
                "a sweep grid needs 0 <= a < b and at least 2 points, got (%s, %s] with %d"
                % (interval[0], interval[1], n_points)
            )
        xs = tuple(grid_points(interval, n_points))
        hit = (xs, tuple(erf_ref(x, ctx) for x in xs))
    if n_points <= _REF_GRID_CACHE_POINTS:  # a larger grid is returned, not kept
        _REF_GRID_CACHE[key] = hit
        total = sum(len(cached) for cached, _ in _REF_GRID_CACHE.values())
        while total > _REF_GRID_CACHE_POINTS:
            total -= len(_REF_GRID_CACHE.popitem(last=False)[1][0])
    return hit


def _relative_errors(approx, xs, refs, n: int, ctx: PrecisionContext) -> tuple:
    """Signed 1 - f(x)/erf(x) on the first n points of the cached grid xs, inside ctx.workdps().

    The record of the last ``optimize_transition`` answers for its inner on
    its grid. A ``PiecewiseApproximant`` is 1 beyond x_o, where its error is
    1 - 1/erf(x); up to x_o (a prefix: the grid ascends) its errors are its
    inner's. Everything else is evaluated point by point.
    """
    record = _INNER_ERRORS
    if record is not None and record[0] is xs and record[1] is approx:
        return record[2][:n]
    if isinstance(approx, PiecewiseApproximant):
        split = bisect_right(xs, approx._bound, hi=n, key=mpf_to_fraction)
        head = _relative_errors(approx.inner, xs, refs, split, ctx)
        return head + tuple(1 - 1 / ref for ref in refs[split:n])
    return tuple(1 - approx.value(x, ctx) / ref for x, ref in zip(xs[:n], refs))


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

    A ``PiecewiseApproximant`` swept right after ``optimize_transition`` of
    its inner on the same grid reuses the inner errors that call recorded.
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


@dataclass(frozen=True)
class PiecewiseApproximant(OddApproximant):
    """Inner odd approximant switched to the constant 1 beyond x_o (odd overall)."""

    inner: OddApproximant
    x_o: object

    def __post_init__(self):
        if not isinstance(self.inner, OddApproximant):
            raise ValueError("inner must be an OddApproximant, got %r" % (self.inner,))
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

    When the inner curve never reaches the tail curve, the sweep is reported
    with x_o at the last grid point and tail_never_better set.

    The signed inner errors replace the module's one-grid record, so that
    a sweep of ``PiecewiseApproximant(inner, x_o)`` on this grid reads them.
    """
    global _INNER_ERRORS
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        errors = _relative_errors(inner, xs, refs, n_points, ctx)
        _INNER_ERRORS = (xs, inner, errors)
        inner_abs = [abs(r) for r in errors]
        tail_abs = [abs(1 - 1 / ref) for ref in refs]
        cross = next((j for j, (e, t) in enumerate(zip(inner_abs, tail_abs)) if e >= t), None)
        if cross is None:
            return TransitionResult(xs[-1], max(inner_abs), tail_never_better=True)
        bound = max(chain(islice(inner_abs, cross + 1), islice(tail_abs, cross + 1, None)))
    return TransitionResult(xs[cross], bound, tail_never_better=False)


def improved(inner, interval, n_points: int, ctx: PrecisionContext = CTX34):
    """Convenience: optimize the transition and return the piecewise approximant."""
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
