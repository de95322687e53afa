"""The Horner and poly-exp loops written on mpf objects.

The reference for ``erfkit.exact``: the library runs the same operations on
Python-int (mantissa, exponent) pairs, and tests assert that both give the
same ``_mpf_`` at every point. ``eval_polys`` and ``eval_poly`` are the
library kernel's own values as mpf, for the tests that read them.
"""

from functools import lru_cache

import mpmath as mp
from mpmath.libmp import mpf_mul, round_nearest

from erfkit.exact import fraction_to_mpf, poly_values


def eval_polys(polys, x) -> tuple:
    """The kernel's values of several polynomials as mpf at the current precision (x via mp.mpf)."""
    prec = mp.mp.prec
    t = mp.mpf(x)._mpf_
    return tuple(map(mp.make_mpf, poly_values(polys, t, mpf_mul(t, t, prec, round_nearest), prec)))


def eval_poly(poly, x):
    """The kernel's value of one polynomial (see ``eval_polys``)."""
    return eval_polys((poly,), x)[0]


@lru_cache(maxsize=None)
def _rounded(poly, prec):
    """(mode, coefficient mpfs), rounded once per binary precision."""
    with mp.workprec(prec):
        vals = tuple(fraction_to_mpf(c) for c in poly.coeffs)
    if poly.is_odd_poly():
        return "odd", vals[1::2]
    if poly.is_even_poly():
        return "even", vals[0::2]
    return "dense", vals


def eval_mpf(poly, x):
    """Horner in u = x*x for parity-pure polynomials (times x when odd), in x otherwise."""
    if not poly.coeffs:
        return mp.mpf(0)
    mode, data = _rounded(poly, mp.mp.prec)
    x = mp.mpf(x)
    if mode == "dense":
        acc = mp.mpf(0)
        for c in reversed(data):
            acc = acc * x + c
        return acc
    u = x * x
    acc = mp.mpf(0)
    for c in reversed(data):
        acc = acc * u + c
    return acc if mode == "even" else acc * x


def eval_raw(form, x):
    """sum_i p_i(x) exp(-k_i x^2), accumulated from 0 in ascending rate order."""
    x = mp.mpf(x)
    u = x * x
    acc = mp.mpf(0)
    for r, p in form.terms:
        pv = eval_mpf(p, x)
        acc += pv if not r else pv * mp.exp(-fraction_to_mpf(r) * u)
    return acc

