"""The Table 9 walk that evaluates every grid point exactly.

The reference for ``erfkit.tables.gauss_sweep``: the library screens the
grid in floats first and evaluates exactly only where a point can reach the
maximum, and tests assert that both give the same ``_mpf_``.
"""

import mpmath as mp
from mpmath.libmp import fone, fzero, mpf_abs, mpf_div, mpf_exp, mpf_gt, mpf_mul, mpf_neg
from mpmath.libmp import mpf_sub, round_nearest

from erfkit.transition import grid_points


def gauss_error(approx, t, prec):
    """``_mpf_`` of |1 - f(x)/exp(-x^2)| at x = t, each operation rounded at prec as mpf rounds it."""
    u = mpf_mul(t, t, prec, round_nearest)
    q = mpf_div(approx.quotient(t, u, prec), mpf_exp(mpf_neg(u), prec, round_nearest), prec,
                round_nearest)
    return mpf_abs(mpf_sub(fone, q, prec, round_nearest))


def gauss_sweep(approx, interval, n_points, ctx):
    """max |1 - f(x)/exp(-x^2)| over every point of the sweep grid, as an mpf."""
    with ctx.workdps():
        prec = mp.mp.prec
        best = fzero
        for x in grid_points(interval, n_points):
            err = gauss_error(approx, x._mpf_, prec)
            if mpf_gt(err, best):
                best = err
        return mp.make_mpf(best)
