"""Exact rational algebra behind every generated approximant.

All coefficient generation happens in Fraction arithmetic so the very large
table denominators (1e13 and beyond) are produced, not transcribed. Floating
point enters only through ``eval_mpf``, which rounds each coefficient once at
the active mpmath precision and evaluates in Horner form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


def mpf_to_fraction(x) -> Fraction:
    """Exact value of an mpmath float as a Fraction (mpf values are dyadic).

    An mpf is read as given, at any precision; other numbers go through mp.mpf.
    """
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    if not mp.isfinite(x):
        raise ValueError("cannot convert non-finite value %r" % x)
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def fraction_to_mpf(q: Fraction):
    """Round a Fraction once at the current working precision."""
    if q.denominator == 1:
        return mp.mpf(q.numerator)
    return mp.mpf(q.numerator) / q.denominator


def as_mpf(value):
    """mpf from mpf/int/float/str/Fraction at the current precision; NaN and inf raise ValueError."""
    xm = fraction_to_mpf(value) if isinstance(value, Fraction) else mp.mpf(value)
    if not mp.isfinite(xm):
        raise ValueError("expected a finite number, got %r" % value)
    return xm


class RationalPolynomial:
    """Dense polynomial over Fraction; index = power of x.

    Trailing zero coefficients are trimmed and the zero polynomial has
    degree -1. Instances are immutable; all operations return new objects.
    """

    __slots__ = ("coeffs", "_eval_cache")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._eval_cache = {}

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "RationalPolynomial(%s)" % (list(self.coeffs),)

    def __add__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if not self.coeffs or not other.coeffs:
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return RationalPolynomial(out)
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def mul_x_power(self, power: int):
        """Multiply by x**power."""
        if not self.coeffs:
            return self
        return RationalPolynomial((Fraction(0),) * power + self.coeffs)

    def derivative(self):
        return RationalPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self):
        """Antiderivative with zero constant term."""
        return RationalPolynomial(
            [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)]
        )

    def is_even_poly(self) -> bool:
        return all(not c for c in self.coeffs[1::2])

    def is_odd_poly(self) -> bool:
        return all(not c for c in self.coeffs[0::2])

    def evaluate(self, x):
        """Exact evaluation at a Fraction (or int) argument."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mpf(self, x):
        """Horner evaluation at the current mpmath precision.

        Parity-pure polynomials (the normal case here) are evaluated in
        u = x^2 to halve the multiply count. Rounded coefficient vectors are
        cached per binary precision.
        """
        if not self.coeffs:
            return mp.mpf(0)
        prec = mp.mp.prec
        cached = self._eval_cache.get(prec)
        if cached is None:
            vals = tuple(fraction_to_mpf(c) for c in self.coeffs)
            if self.is_odd_poly():
                cached = ("odd", vals[1::2])
            elif self.is_even_poly():
                cached = ("even", vals[0::2])
            else:
                cached = ("dense", vals)
            self._eval_cache[prec] = cached
        mode, data = cached
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


ZERO_POLY = RationalPolynomial()
X_POLY = RationalPolynomial([0, 1])


class PolyExpSum:
    """Exact sum  sum_i p_i(x) * exp(-k_i x^2)  with rational rates k_i >= 0.

    Rates are kept distinct and sorted ascending; the k=0 term is the pure
    polynomial part. Any overall prefactor (the families' 1/sqrt(pi)) is
    applied by callers at evaluation time.
    """

    __slots__ = ("terms", "_rate_cache")

    def __init__(self, terms=()):
        acc = {}
        for rate, poly in terms:
            rate = rate if isinstance(rate, Fraction) else Fraction(rate)
            if rate < 0:
                raise ValueError("negative decay rate %s" % rate)
            if not isinstance(poly, RationalPolynomial):
                poly = RationalPolynomial(poly)
            if not poly:
                continue
            acc[rate] = acc[rate] + poly if rate in acc else poly
        items = sorted(((r, p) for r, p in acc.items() if p), key=lambda t: t[0])
        self.terms = tuple(items)
        self._rate_cache = {}

    @property
    def rates(self):
        return tuple(r for r, _ in self.terms)

    def poly_at(self, rate) -> RationalPolynomial:
        rate = Fraction(rate)
        for r, p in self.terms:
            if r == rate:
                return p
        return ZERO_POLY

    def __eq__(self, other):
        if isinstance(other, PolyExpSum):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return "PolyExpSum(%s)" % (list(self.terms),)

    def __add__(self, other):
        if not isinstance(other, PolyExpSum):
            return NotImplemented
        return PolyExpSum(self.terms + other.terms)

    def __neg__(self):
        return PolyExpSum([(r, -p) for r, p in self.terms])

    def __sub__(self, other):
        if not isinstance(other, PolyExpSum):
            return NotImplemented
        return self + (-other)

    def differentiate(self):
        """d/dx via the product rule on each p(x)exp(-k x^2) term."""
        out = []
        for r, p in self.terms:
            dp = p.derivative()
            if r:
                dp = dp - (2 * r) * (X_POLY * p)
            out.append((r, dp))
        return PolyExpSum(out)

    def eval_raw(self, x):
        """Evaluate the stored sum (no prefactor) at current precision."""
        x = mp.mpf(x)
        prec = mp.mp.prec
        rates = self._rate_cache.get(prec)
        if rates is None:
            rates = tuple(fraction_to_mpf(r) for r, _ in self.terms)
            self._rate_cache[prec] = rates
        u = x * x
        acc = mp.mpf(0)
        for rv, (r, p) in zip(rates, self.terms):
            pv = p.eval_mpf(x)
            acc += pv if not r else pv * mp.exp(-rv * u)
        return acc


def integrate_odd(s: PolyExpSum) -> PolyExpSum:
    """Exact integral from 0 to x of a sum whose polynomials are all odd.

    The k=0 part integrates to an even polynomial. Under exp(-k x^2) the
    integral of an odd P is Q(x)exp(-k x^2) - Q(0) with Q even and
    P = Q' - 2k x Q, which fixes Q from the top coefficient down in one pass:
    b_2i = ((2i+2) b_(2i+2) - a_(2i+1)) / (2k). Raises ValueError when a term
    carries an even power (no closed form here).
    """
    parts = []
    constant = Fraction(0)
    for rate, poly in s.terms:
        if rate == 0:
            if not poly.is_odd_poly():
                raise ValueError("polynomial part must be odd")
            parts.append((Fraction(0), poly.antiderivative()))
            continue
        if not poly.is_odd_poly():
            raise ValueError(
                "even power under exp(-%s x^2): no closed form in this algebra" % rate
            )
        a = poly.coeffs
        q = [Fraction(0)] * len(a)
        b = Fraction(0)
        for j in range(len(a) - 2, -1, -2):
            b = q[j] = ((j + 2) * b - a[j + 1]) / (2 * rate)
        constant -= b
        parts.append((rate, RationalPolynomial(q)))
    if constant:
        parts.append((Fraction(0), RationalPolynomial([constant])))
    return PolyExpSum(parts)


def spline_coeff(n: int, k: int) -> Fraction:
    """Two-point spline quadrature weight c_{n,k} = n!/[(n-k)!(k+1)!] * (2n+1-k)!/[2(2n+1)!]."""
    if not 0 <= k <= n:
        raise ValueError("spline_coeff requires 0 <= k <= n, got (%d, %d)" % (n, k))
    return Fraction(
        math.factorial(n), math.factorial(n - k) * math.factorial(k + 1)
    ) * Fraction(math.factorial(2 * n + 1 - k), 2 * math.factorial(2 * n + 1))


_hermite_rows = [RationalPolynomial([1])]


def hermite_table(max_order: int) -> tuple:
    """Rows p(k,x), k = 0..max_order, from p(k) = p'(k-1) - 2x p(k-1), p(0) = 1.

    Equals (-1)^k H_k(x) with H_k the physicists' Hermite polynomial.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    while len(_hermite_rows) <= max_order:
        prev = _hermite_rows[-1]
        _hermite_rows.append(prev.derivative() - 2 * (X_POLY * prev))
    return tuple(_hermite_rows[: max_order + 1])


def hermite_explicit(k: int) -> RationalPolynomial:
    """Closed-form row: sum_i (-1)^(i+k) k!/(i!(k-2i)!) 2^(k-2i) x^(k-2i)."""
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(k // 2 + 1):
        power = k - 2 * i
        coeffs[power] = Fraction(
            (-1) ** (i + k) * math.factorial(k) * 2**power,
            math.factorial(i) * math.factorial(power),
        )
    return RationalPolynomial(coeffs)


def hermite_at_zero(k: int) -> Fraction:
    """p(k,0): zero for odd k, (-1)^j (2j)!/j! for k = 2j."""
    if k % 2:
        return Fraction(0)
    j = k // 2
    return Fraction((-1) ** j * math.factorial(2 * j), math.factorial(j))


def hermite_values_mpf(order: int, x):
    """Numeric [p(0,x), ..., p(order,x)] via p(k) = -2x p(k-1) - 2(k-1) p(k-2)."""
    x = mp.mpf(x)
    vals = [mp.mpf(1)]
    if order >= 1:
        vals.append(-2 * x)
    for k in range(2, order + 1):
        vals.append(-2 * x * vals[k - 1] - 2 * (k - 1) * vals[k - 2])
    return vals
