"""Spline approximants over m equal-width sub-intervals of [0, x].

f_{n,m} applies the order-n interval rule to each [jx/m, (j+1)x/m];
``spline.spline_form`` collects the terms by the exact rational decay rate
j^2/m^2, so the form has exactly m+1 distinct rates. Interior odd-k
contributions cancel through the 1+(-1)^k weight of a shared endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import PolyExpSum
from .spline import PolyExpApproximant, spline_form


@dataclass(frozen=True)
class SubintervalApproximant(PolyExpApproximant):
    """Order-n, m-sub-interval approximant; ``form`` is sqrt(pi) * f_{n,m}."""

    order: int
    subintervals: int
    form: PolyExpSum


def build_subinterval(n: int, m: int) -> SubintervalApproximant:
    """Exact f_{n,m}: order n <= 32 over m <= 64 equal sub-intervals."""
    if m < 1 or m > 64:
        raise ValueError("subinterval count must be in 1..64, got %r" % m)
    if n < 0 or n > 32:
        raise ValueError("order must be in 0..32, got %r" % n)
    return SubintervalApproximant(n, m, spline_form(n, m))
