"""Relative-error sweeps, piecewise improved approximants and bound envelopes.

Sweeps use the deterministic grid x_i = a + i(b-a)/N for i = 1..N; the left
endpoint is excluded so x = 0 (where every approximant and erf both vanish)
never reaches the relative-error quotient. Reference values are cached per
(interval, N, digits) because table reproduction reuses the same grids many
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

import mpmath as mp

from .exact import PolyExpSum, RationalPolynomial, as_mpf, mpf_to_fraction
from .oracle import CTX34, OddApproximant, PrecisionContext, erf_ref, sqrt_pi
from .spline import PolyExpApproximant

_REF_GRID_CACHE: dict = {}


def grid_points(interval, n_points: int):
    """Yield x_i = a + i(b-a)/N, i = 1..N, at the current mpmath precision."""
    am, bm = as_mpf(interval[0]), as_mpf(interval[1])
    step = (bm - am) / n_points
    for i in range(1, n_points + 1):
        yield am + i * step


def reference_grid(interval, n_points: int, ctx: PrecisionContext):
    """Grid points and cached erf references for a sweep specification.

    Keyed by the endpoints as mpf at the working precision, the exact values
    the grid is computed from. A grid needs 0 <= a < b and N >= 2, so that no
    point lands on x = 0; anything else is a ValueError.
    """
    with ctx.workdps():
        key = (as_mpf(interval[0]), as_mpf(interval[1]), n_points, ctx)
        hit = _REF_GRID_CACHE.get(key)
        if hit is None:
            if not 0 <= key[0] < key[1] or n_points < 2:
                raise ValueError(
                    "a sweep grid needs 0 <= a < b and at least 2 points, got (%s, %s] with %d"
                    % (interval[0], interval[1], n_points)
                )
            xs = tuple(grid_points(interval, n_points))
            hit = _REF_GRID_CACHE[key] = (xs, tuple(erf_ref(x, ctx) for x in xs))
    return hit


def _relative_errors(approx, xs, refs, ctx: PrecisionContext):
    """Signed 1 - f(x)/erf(x) on a cached grid; iterate inside ctx.workdps()."""
    for x, ref in zip(xs, refs):
        yield 1 - approx.value(x, ctx) / ref


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
    """Relative-error sweep of an approximant against the erf oracle."""
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        res = tuple(_relative_errors(approx, xs, refs, ctx))
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
    """Inner approximant switched to the constant 1 beyond x_o (odd overall)."""

    inner: object
    x_o: object

    def positive(self, xm, ctx: PrecisionContext):
        if xm <= self.x_o:
            return self.inner.value(xm, ctx)
        return mp.mpf(1)


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
    """
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        inner_abs = [abs(r) for r in _relative_errors(inner, xs, refs, ctx)]
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
        e = self.eps_b
        e = Fraction(e) if isinstance(e, (Fraction, int, str)) else mpf_to_fraction(e)
        if not 0 < e < 1:
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
