"""The transition search written as an all-points walk.

The reference for ``transition.optimize_transition``: it evaluates the inner
at every grid point through ``value``, then takes x_o as the first point
where the inner error reaches the constant-1 tail's and re_B as the max of
the inner errors up to x_o and the tail errors beyond it. The library stops
evaluating at the crossing; tests assert that both give the same result.
"""

from itertools import chain, islice

from erfkit.transition import TransitionResult, reference_grid


def optimize_transition(inner, interval, n_points, ctx):
    """The transition search on every grid point of (a, b] (``reference_grid``)."""
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        inner_abs = [abs(1 - inner.value(x, ctx) / ref) for x, ref in zip(xs, refs)]
        tail_abs = [abs(1 - 1 / ref) for ref in refs]
        cross = next((j for j, (e, t) in enumerate(zip(inner_abs, tail_abs)) if e >= t), None)
        if cross is None:
            return TransitionResult(xs[-1], max(inner_abs), tail_never_better=True)
        bound = max(chain(islice(inner_abs, cross + 1), islice(tail_abs, cross + 1, None)))
    return TransitionResult(xs[cross], bound, tail_never_better=False)
