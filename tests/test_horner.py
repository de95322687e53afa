"""The integer Horner kernel against the mpf loops it replaces, bit for bit."""

import hashlib
from fractions import Fraction as F
from functools import partial

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_mul, round_nearest

import horner_reference as ref
from erfkit import gauss
from erfkit.exact import PolyExpSum, RationalPolynomial, _rounded, as_mpf, horner
from erfkit.gauss import build_erf_series, build_gauss_g, build_gauss_h
from erfkit.oracle import CTX34, CTX70, PrecisionContext
from erfkit.spline import build_spline
from erfkit.sqrtform import build_sqrt
from erfkit.subinterval import build_subinterval
from erfkit.tables import TABLE4, TABLE5, TABLE6, TABLE9, TABLE10
from erfkit.transition import taylor

CTXS = [PrecisionContext(16), CTX34, CTX70, PrecisionContext(100)]
CTX_IDS = ["d16", "d34", "d70", "d100"]

ROWS = [row[0] for row in TABLE5]
assert ROWS == [row[0] for row in TABLE6]
SQRT_ORDERS = [int(label.split("=")[1]) for label, *_ in TABLE10 if label.startswith("sqrt")]


def _approximants():
    """(label, approximant): f_n for n <= 24, the Table 4-6, 8/10 and 9 rows, and two m = 64 forms."""
    out = [("f_%d" % n, build_spline(n)) for n in range(25)]
    out += [("f_%d,%d" % (n, m), build_subinterval(n, m)) for m in (4, 16) for n in ROWS]
    out += [("f_1,64", build_subinterval(1, 64)), ("f_32,64", build_subinterval(32, 64))]
    out += [("T_%d" % row[0], taylor(row[0])) for row in TABLE4]
    out += [("series_%d_%d" % nk, build_erf_series(*nk)) for nk in ((0, 1), (4, 3), (12, 2))]
    out += [("sqrt_%d" % n, build_sqrt(n)) for n in SQRT_ORDERS + [1]]
    build = {"g": build_gauss_g, "h": build_gauss_h}
    out += [("%s_%d" % key, build[key[0]](key[1])) for key, _ in TABLE9]
    return out


APPROXIMANTS = _approximants()


def _form(approx):
    return approx.radicand() if hasattr(approx, "radicand") else approx.form


def raw_cases():
    """(label, evaluate, reference): every sum's eval_raw and every g_n/h_n polynomial's kernel value."""
    for label, approx in APPROXIMANTS:
        if hasattr(approx, "numerator"):
            for part in ("numerator", "denominator"):
                poly = getattr(approx, part)
                kernel, loop = partial(ref.eval_poly, poly), lambda x, p=poly: ref.eval_mpf(p, x)
                yield "%s.%s" % (label, part), kernel, loop
        else:
            form = _form(approx)
            yield label, form.eval_raw, lambda x, f=form: ref.eval_raw(f, x)


def raw_points(ctx):
    """Eight grid points on each of (0,5], (0,8], (0,12], (0,30] and four negative ones."""
    with ctx.workdps():
        pts = [as_mpf(F(b * i, 8)) for b in (5, 8, 12, 30) for i in range(1, 9)]
        return pts + [-pts[3], -pts[10], -pts[20], -pts[31]]


VALUE_POINTS = [0, mp.ldexp(1, -200), F(-3, 2), F(7, 3), "-11.25"]


def reference_quotient(self, t, u, prec):
    """``RationalFunctionApproximant.quotient`` from the mpf loops, at the working precision."""
    x = mp.make_mpf(t)
    return (ref.eval_mpf(self.numerator, x) / ref.eval_mpf(self.denominator, x))._mpf_


def reference_value(monkeypatch, approx, x, ctx):
    """approx.value(x, ctx) with the mpf loops in place of the kernel."""
    with monkeypatch.context() as m:
        m.setattr(PolyExpSum, "eval_raw", ref.eval_raw)
        m.setattr(gauss.RationalFunctionApproximant, "quotient", reference_quotient)
        return approx.value(x, ctx)


@pytest.mark.parametrize("ctx", CTXS, ids=CTX_IDS)
def test_kernel_is_the_mpf_loop_bit_for_bit(ctx, monkeypatch):
    points = raw_points(ctx)
    with ctx.workdps():
        for label, evaluate, reference in raw_cases():
            for x in points:
                assert evaluate(x)._mpf_ == reference(x)._mpf_, (label, x)
    for label, approx in APPROXIMANTS:
        for x in VALUE_POINTS:
            expected = reference_value(monkeypatch, approx, x, ctx)
            assert approx.value(x, ctx)._mpf_ == expected._mpf_, (label, x)


# sha256 of the 4,400 values per precision that
# test_kernel_is_the_mpf_loop_bit_for_bit compares, recorded with the mpf loops
HORNER_VALUE_PINS = {
    "d16": "b2a5da55b6f9bc6db6a58b0c4af80a70d1985fcaa1cce5b72424839453fee7fd",
    "d34": "f3e8916f2baaebb6cc9cd4c289c45bae65e6e52b0b6676747f8f5795f5c58e09",
    "d70": "753c0d406c90e6605429f56f186727bc76895dab2457e65e3ca3eaab129e7779",
    "d100": "e7cb64b713eb000db8d0ad471429c0ce83ee3bbf7b6a69ed0fa8344528e48fcb",
}


@pytest.mark.parametrize("ctx", CTXS, ids=CTX_IDS)
def test_kernel_values_pinned_bit_for_bit(ctx):
    digest = hashlib.sha256()
    points = raw_points(ctx)
    with ctx.workdps():
        values = [evaluate(x) for _, evaluate, _ in raw_cases() for x in points]
    values += [approx.value(x, ctx) for _, approx in APPROXIMANTS for x in VALUE_POINTS]
    for v in values:
        digest.update(b"%d %d %d %d\n" % v._mpf_)
    assert digest.hexdigest() == HORNER_VALUE_PINS[CTX_IDS[CTXS.index(ctx)]]


def _normal(m, e):
    """m * 2^e as libmp stores it: (sign, odd mantissa, exponent, bit count), or fzero."""
    if not m:
        return fzero
    sign, m = int(m < 0), abs(m)
    zeros = (m & -m).bit_length() - 1
    return sign, m >> zeros, e + zeros, (m >> zeros).bit_length()


def _added(a, b, prec):
    """a + b as the two-entry Horner sum at t = 1, the way a poly-exp sum adds its terms."""
    return horner(tuple((m, e, e + m.bit_length()) for m, e in (a, b)), 1, 0, prec)


@pytest.mark.parametrize("prec", [8, 53, 113, 233])
def test_rounding_primitives_match_libmp(prec):
    # the one rounding rule of the kernel and the oracle, against libmp at round_nearest
    half = 1 << (prec - 1)  # the smallest prec-bit mantissa
    top = 2 * half - 1  # the largest
    cases = {
        "tie kept even": (2 * (half + 2) + 1, (half + 2, 1)),
        "tie from odd": (2 * (half + 1) + 1, (half + 2, 1)),
        "tie below zero": (-(2 * (half + 1) + 1), (-(half + 2), 1)),
        "tie plus sticky": (((2 * (half + 2) + 1) << 6) | 1, (half + 3, 7)),
        "carry to 2^prec": (2 * top + 1, (2 * half, 1)),
        "exact": (half << 3, (half, 3)),
    }
    for label, (m, expected) in cases.items():
        assert _rounded(m, 0, prec) == expected, label
        for e in (-prec, 0, 7):
            assert _normal(*_rounded(m, e, prec)) == from_man_exp(m, e, prec, round_nearest), label
    for a in (half + 1, half + 3, top, -top):
        for b in (3, 5, half + 1, top):  # 3 * (half + 1) and 3 * (half + 3) are ties
            expected = mpf_mul(from_man_exp(a, -4), from_man_exp(b, 9), prec, round_nearest)
            assert _normal(*_rounded(a * b, 5, prec)) == expected, (a, b)
    pairs = [
        ((top, 0), (1, -1)),  # a tie that carries to 2^prec
        ((half + 1, 0), (1, -1)),  # a tie from an odd mantissa
        ((half + 2, 0), (1, -1)),  # a tie kept even
        ((half + 2, 0), (3, -2)),  # a tie plus a sticky bit
        ((half + 2, 0), (-(half + 2), 0)),  # exact cancellation to 0
        ((0, 0), (half + 3, -5)),
        ((-top, 4), (0, 0)),
        ((0, 0), (0, 0)),
    ]
    # the top of b lies gap bits below the top of a: the sum's cut-off is prec + 4,
    # and at prec + 1 a power of two minus b can round into the binade below
    for gap in (prec + 1, prec + 4, prec + 5):
        for am in (half, half + 1, top, -half):
            for bm in (1, 3, -1, -top, half):
                pairs.append(((am, 0), (bm, prec - gap - bm.bit_length())))
    for a, b in pairs:
        # the inputs have at most prec bits, so from_man_exp without prec is exact
        expected = mpf_add(from_man_exp(*a), from_man_exp(*b), prec, round_nearest)
        assert _normal(*_added(a, b, prec)) == expected, (a, b)
        assert _normal(*_added(b, a, prec)) == expected, (b, a)


EDGE_POLYS = {
    # acc = 1*4 - 4 is exactly 0 halfway, then the constant term alone
    "even-cancels-midway": (RationalPolynomial([F(1, 3), 0, -4, 0, 1]), 2),
    "even-cancels-to-zero": (RationalPolynomial([-16, 0, 0, 0, 1]), 2),
    "dense-cancels-midway": (RationalPolynomial([5, F(3, 7), -1, 1]), 1),
    "dense-negative-x": (RationalPolynomial([F(1, 3), F(-2, 5), F(1, 7), F(5, 9)]), F(-9, 7)),
    "odd-cancels-to-zero": (RationalPolynomial([0, -2, 0, F(1, 2)]), 2),
}


@pytest.mark.parametrize("ctx", CTXS, ids=CTX_IDS)
@pytest.mark.parametrize("label", sorted(EDGE_POLYS))
def test_exact_cancellation_matches_the_mpf_loop(label, ctx):
    poly, x = EDGE_POLYS[label]
    with ctx.workdps():
        xm = as_mpf(x)
        assert ref.eval_poly(poly, xm)._mpf_ == ref.eval_mpf(poly, xm)._mpf_
        form = PolyExpSum([(0, poly), (F(1, 4), poly)])
        assert form.eval_raw(xm)._mpf_ == ref.eval_raw(form, xm)._mpf_
    if label.endswith("to-zero"):
        with ctx.workdps():
            assert ref.eval_poly(poly, xm) == 0


@pytest.mark.parametrize("ctx", CTXS, ids=CTX_IDS)
def test_far_apart_addends_match_the_mpf_loop(ctx):
    # at x = 1e6 each Horner product lies far above the next coefficient and
    # e^(-k x^2) far below the polynomial part; at 1e-30 the reverse
    with ctx.workdps():
        xs = [mp.mpf(10) ** 6, -(mp.mpf(10) ** 6), mp.mpf(10) ** -30]
        for label, evaluate, reference in raw_cases():
            for x in xs:
                assert evaluate(x)._mpf_ == reference(x)._mpf_, (label, x)


def test_plans_hold_zero_coefficients():
    # the zeros test_kernel_is_the_mpf_loop_bit_for_bit sees the kernel skip:
    # an erf series' rate-0 part is zero from above f_n's top power to the tail
    plans = [p.plan(mp.mp.prec) for _, p in build_erf_series(4, 3).form.terms]
    assert any(mode == "odd" and (0, 0, 0) in coeffs for mode, coeffs in plans)
    assert (0, 0, 0) in EDGE_POLYS["even-cancels-to-zero"][0].plan(mp.mp.prec)[1]


def test_eval_polys_shares_one_square():
    g = build_gauss_g(7)
    with CTX34.workdps():
        x = as_mpf(F(17, 10))
        num, den = ref.eval_polys((g.numerator, g.denominator), x)
        assert num._mpf_ == ref.eval_mpf(g.numerator, x)._mpf_
        assert den._mpf_ == ref.eval_mpf(g.denominator, x)._mpf_
        with pytest.raises(ValueError, match="finite"):
            ref.eval_polys((g.numerator,), mp.inf)


def test_taylor_cancellation_grows_like_x_squared():
    # sum |c_k| x^(2k+1) = 2 * integral_0^x e^(t^2) dt = sqrt(pi) erfi(x)
    t = taylor(201)
    with CTX34.workdps():
        for x in (mp.mpf(3), mp.mpf(9) / 2, mp.mpf(5)):
            lost = t.form.cancellation_digits(x)
            exact = mp.log10(mp.sqrt(mp.pi) * mp.erfi(x) / abs(t.form.eval_raw(x)))
            assert abs(lost - exact) < mp.mpf("1e-20")
            assert abs(lost - x * x * mp.log10(mp.e)) < 1
        assert t.form.cancellation_digits(-5) == t.form.cancellation_digits(5)


@pytest.mark.parametrize("n", [0, 4, 12, 24])
def test_spline_loses_under_one_digit_at_small_x(n):
    form = build_spline(n).form
    with CTX34.workdps():
        for x in (F(1, 100), F(1, 10), F(1, 2)):
            assert 0 <= form.cancellation_digits(as_mpf(x)) < 1


def test_cancellation_digits_at_zero_and_for_exact_zeros():
    with CTX34.workdps():
        assert build_spline(4).form.cancellation_digits(0) == 0
        form = PolyExpSum([(0, [-16, 0, 0, 0, 1])])
        assert form.cancellation_digits(2) == mp.inf
