"""Exact rational algebra behind every generated approximant.

Generators sum integer numerators and build each coefficient's Fraction once,
so the very large table denominators (1e13 and beyond) are produced, not
transcribed. Floating point enters only through evaluation: each polynomial's
``plan`` rounds its coefficients once per binary precision, and one Horner
kernel (``horner``) evaluates every polynomial and poly-exp sum on Python-int
(mantissa, exponent) pairs. It rounds the same operations in the same order as
the mpf Horner loop it replaced, so every value is that loop's value bit for
bit. The one rounding rule, half to even as mpf arithmetic rounds
(``_rounded``), is written out inline in the two hot loops: ``horner`` and the
erf oracle's. The kernels take u = x*x (and a poly-exp sum its exponentials)
from the caller, so a sweep forms them once per point, or once per grid.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_exp, mpf_mul, round_nearest


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a number as a Fraction; nothing is rounded.

    An mpf is read as given, at any precision (mpf values are dyadic); any
    other number is ``Fraction(x)``. NaN and infinities raise ValueError.
    """
    if not isinstance(x, mp.mpf):
        try:
            return Fraction(x)
        except OverflowError:  # a float infinity
            raise ValueError("cannot convert non-finite value %r" % x) from None
    if not mp.isfinite(x):
        raise ValueError("cannot convert non-finite value %r" % x)
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


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

    __slots__ = ("coeffs", "_plans")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._plans = {}

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

    def plan(self, prec: int) -> tuple:
        """(mode, coefficients) for ``horner`` at binary precision prec, built once per precision.

        Parity-pure polynomials (the normal case here) are evaluated in
        u = x^2 to halve the multiply count: mode "odd" keeps the odd
        coefficients (the sum is then multiplied by x), "even" the even ones,
        "dense" all of them. Each coefficient is rounded once at prec and
        stored top first as (signed mantissa, exponent, exponent + bit count);
        a zero coefficient is (0, 0, 0).
        """
        cached = self._plans.get(prec)
        if cached is None:
            with mp.workprec(prec):
                parts = [fraction_to_mpf(c)._mpf_ for c in self.coeffs]
            coeffs = tuple((-m if s else m, e, e + bc) for s, m, e, bc in reversed(parts))
            if self.is_odd_poly():  # the degree is odd, so the top is the first odd power
                cached = ("odd", coeffs[::2])
            elif self.is_even_poly():
                cached = ("even", coeffs[::2])
            else:
                cached = ("dense", coeffs)
            self._plans[prec] = cached
        return cached


def _rounded(m: int, e: int, prec: int) -> tuple:
    """m * 2^e (m signed) rounded once to prec bits, half to even; trailing zeros are kept."""
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)
        m = (t >> 1) + 1 if t & 1 and (t & 2 or t << (n - 1) != m) else t >> 1
        e += n
    return m, e


def horner(coeffs: tuple, tm: int, te: int, prec: int) -> tuple:
    """acc = acc * t + c over a plan's coefficients (top first), on Python ints.

    t = tm * 2^te. Each product and each sum is rounded once to prec bits,
    half to even, exactly as ``mpf_mul`` and ``mpf_add`` round at
    ``round_nearest``, so the result is the mpf Horner loop's value bit for
    bit. Mantissas are signed and not normalised; a zero coefficient skips
    its add (adding 0 returns the rounded product unchanged). Returns
    (mantissa, exponent). ``_rounded`` is written out inline: this loop is
    the evaluation hot path. A multiply by t = 1 changes no value, so
    ``horner(((0, 0, 0),) + terms, 1, 0, prec)`` is the terms' running sum.
    """
    it = iter(coeffs)
    m, e, _ = next(it)
    margin = prec + 4
    for cm, ce, ctop in it:
        m *= tm
        e += te
        bc = m.bit_length()
        if bc > prec:
            n = bc - prec
            t = m >> (n - 1)
            m = (t >> 1) + 1 if t & 1 and (t & 2 or t << (n - 1) != m) else t >> 1
            e += n
            bc = prec  # a round-up to 2^prec is one bit more, still inside the margin
        if not cm:
            continue
        if not m:
            m, e = cm, ce
            continue
        # an addend more than prec + 4 bits below the other cannot move the rounded
        # sum (mpf_add's sticky bit rounds back to the larger); no shift grows with the gap
        gap = e + bc - ctop
        if gap > margin:
            continue
        if gap < -margin:
            m, e = cm, ce
            continue
        if e > ce:
            m = (m << (e - ce)) + cm
            e = ce
        else:
            m += cm << (ce - e)
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            m = (t >> 1) + 1 if t & 1 and (t & 2 or t << (n - 1) != m) else t >> 1
            e += n
    return m, e


def _finite_parts(t: tuple) -> tuple:
    """(signed mantissa, exponent) of an ``_mpf_`` tuple; NaN and infinities raise ValueError."""
    sign, man, exp, _ = t
    if not man and exp:
        raise ValueError("expected a finite number, got %r" % mp.make_mpf(t))
    return (-man if sign else man), exp


def _plan_at(plan: tuple, xm: int, xe: int, u: tuple, prec: int) -> tuple:
    """(mantissa, exponent) of a planned polynomial at x = xm * 2^xe, with u = x*x rounded."""
    mode, coeffs = plan
    if not coeffs:
        return 0, 0
    if mode == "dense":
        return horner(coeffs, xm, xe, prec)
    m, e = horner(coeffs, u[1], u[2], prec)
    return _rounded(m * xm, e + xe, prec) if mode == "odd" else (m, e)


def poly_values(polys, t: tuple, u: tuple, prec: int) -> list:
    """``_mpf_`` values of several polynomials at x = t (an ``_mpf_``), at binary precision prec.

    u is x*x rounded at prec, formed once by the caller and shared. Each value
    is that of the mpf Horner loop acc = acc*u + c (times x for odd
    polynomials, in x itself for mixed parity) from acc = 0, bit for bit.
    """
    xm, xe = _finite_parts(t)
    return [
        from_man_exp(*_plan_at(p.plan(prec), xm, xe, u, prec), prec, round_nearest) for p in polys
    ]


def exp_parts(negk, u: tuple, prec: int):
    """(mantissa, exponent) of e^(-k u): ``mpf_exp`` of the rounded product -k*u, as mp.exp(-k*u).

    negk is -k rounded at prec (``PolyExpSum.plan``); None, the k = 0 term, gives None.
    """
    if negk is None:
        return None
    return mpf_exp(mpf_mul(negk, u, prec, round_nearest), prec, round_nearest)[1:3]


def _to_mpf(parts: tuple, prec: int):
    """The mpf of a kernel result (mantissa, exponent), normalised; it already fits in prec bits."""
    return mp.make_mpf(from_man_exp(parts[0], parts[1], prec, round_nearest))


ZERO = Fraction(0)
ZERO_POLY = RationalPolynomial()
X_POLY = RationalPolynomial([0, 1])


class PolyExpSum:
    """Exact sum  sum_i p_i(x) * exp(-k_i x^2)  with rational rates k_i >= 0.

    Rates are kept distinct and sorted ascending; the k=0 term is the pure
    polynomial part. Any overall prefactor (the families' 1/sqrt(pi)) is
    applied by callers at evaluation time.
    """

    __slots__ = ("terms", "_plans")

    def __init__(self, terms=()):
        acc = {}
        for rate, poly in terms:
            rate = rate if type(rate) is Fraction else Fraction(rate)
            if rate < 0:
                raise ValueError("negative decay rate %s" % rate)
            if not isinstance(poly, RationalPolynomial):
                poly = RationalPolynomial(poly)
            if not poly:
                continue
            acc[rate] = acc[rate] + poly if rate in acc else poly
        items = sorted(((r, p) for r, p in acc.items() if p), key=lambda t: t[0])
        self.terms = tuple(items)
        self._plans = {}

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

    def plan(self, prec: int) -> tuple:
        """((-k rounded at prec, or None for k = 0), polynomial plan) per term, once per precision."""
        cached = self._plans.get(prec)
        if cached is None:
            with mp.workprec(prec):
                cached = tuple(
                    ((-fraction_to_mpf(r))._mpf_ if r else None, p.plan(prec)) for r, p in self.terms
                )
            self._plans[prec] = cached
        return cached

    def _sum_at(self, plans, t: tuple, u: tuple, exps, prec: int) -> tuple:
        """(mantissa, exponent) of sum_i P_i(x) e^(-k_i u) at x = t (an ``_mpf_``): the one kernel.

        plans are per-term polynomial plans (``plan``), u is x*x rounded at
        prec and exps holds, per term, e^(-k u) as ``exp_parts`` gives it (None
        for k = 0). Every product and the running sum are rounded as the mpf
        loop rounds them. ``eval_raw`` is the one-point call; a sweep passes u
        and exps formed once per point and per grid.
        """
        xm, xe = _finite_parts(t)
        parts = [(0, 0, 0)]
        for (_, plan), ex in zip(plans, exps):
            m, e = _plan_at(plan, xm, xe, u, prec)
            if ex is not None and m:
                m, e = _rounded(m * ex[0], e + ex[1], prec)
            parts.append((m, e, e + m.bit_length()))
        return horner(parts, 1, 0, prec)

    def _sum_mpf(self, plans, x):
        """``_sum_at`` at the mpf x as an mpf at the current precision, u and exps formed here."""
        prec = mp.mp.prec
        t = x._mpf_
        u = mpf_mul(t, t, prec, round_nearest)
        exps = [exp_parts(negk, u, prec) for negk, _ in plans]
        return _to_mpf(self._sum_at(plans, t, u, exps, prec), prec)

    def eval_raw(self, x):
        """Evaluate the stored sum (no prefactor) at current precision.

        Bit for bit the mpf loop acc += p_i(x) * mp.exp(-k_i * u) from acc = 0,
        with each p_i(x) the mpf Horner loop's value (``RationalPolynomial.plan``).
        """
        return self._sum_mpf(self.plan(mp.mp.prec), mp.mpf(x))

    def cancellation_digits(self, x):
        """Decimal digits the sum loses to cancellation at x: log10(sum_i |p_i|(|x|) e^(-k_i x^2) / |value|).

        The absolute sum runs through the same kernel with every coefficient
        replaced by its magnitude. A diagnostic: evaluation never calls it.
        0 where both sums are 0; infinite where only the value is.
        """
        x = abs(mp.mpf(x))
        absolute = tuple(
            (negk, (mode, tuple((abs(m), e, top) for m, e, top in coeffs)))
            for negk, (mode, coeffs) in self.plan(mp.mp.prec)
        )
        bound = self._sum_mpf(absolute, x)
        value = abs(self.eval_raw(x))
        if not bound:
            return mp.mpf(0)
        return mp.log10(bound / value) if value else mp.inf


def integrate_odd(s: PolyExpSum) -> PolyExpSum:
    """Exact integral from 0 to x of a sum whose polynomials are all odd.

    The k=0 part integrates to an even polynomial. Under exp(-k x^2) the
    integral of an odd P is Q(x)exp(-k x^2) - Q(0) with Q even and
    P = Q' - 2k x Q, which fixes Q from the top coefficient down in one pass:
    b_2i = ((2i+2) b_(2i+2) - a_(2i+1)) / (2k). For k = p/q, step s keeps b_2i
    as B / (L (2p)^s), L the lcm of the a denominators, with the integer
    B = ((2i+2) B' - L a_(2i+1) (2p)^(s-1)) q. Raises ValueError when a term
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
        lcm = math.lcm(*(c.denominator for c in poly.coeffs))
        a = [c.numerator * (lcm // c.denominator) for c in poly.coeffs]
        out, big, power = [ZERO] * len(a), 0, 1
        for j in range(len(a) - 2, -1, -2):
            big = ((j + 2) * big - a[j + 1] * power) * rate.denominator
            power *= 2 * rate.numerator
            if big:
                out[j] = Fraction(big, lcm * power)
        constant -= out[0]
        parts.append((rate, RationalPolynomial(out)))
    if constant:
        parts.append((Fraction(0), RationalPolynomial([constant])))
    return PolyExpSum(parts)


def spline_coeff(n: int, k: int) -> Fraction:
    """Two-point spline quadrature weight c_{n,k} = (2n+1-k)! C(n+1, k+1) / [2 (n+1) (2n+1)!]."""
    if not 0 <= k <= n:
        raise ValueError("spline_coeff requires 0 <= k <= n, got (%d, %d)" % (n, k))
    num = math.factorial(2 * n + 1 - k) * math.comb(n + 1, k + 1)
    return Fraction(num, 2 * (n + 1) * math.factorial(2 * n + 1))


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


def hermite_values_mpf(order: int, x):
    """Numeric [p(0,x), ..., p(order,x)] via p(k) = -2x p(k-1) - 2(k-1) p(k-2)."""
    x = mp.mpf(x)
    vals = [mp.mpf(1)]
    if order >= 1:
        vals.append(-2 * x)
    for k in range(2, order + 1):
        vals.append(-2 * x * vals[k - 1] - 2 * (k - 1) * vals[k - 2])
    return vals
