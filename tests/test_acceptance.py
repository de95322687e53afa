"""Acceptance gate: one test per criterion, printed pass/fail per line.

Grid specifications follow the published table footnotes; printed 3-digit
bounds carry a 5% relative tolerance and transition points must land within
one grid step. The two long-precision criteria (sixteen-sub-interval table
and the 70-digit grid row) dominate the runtime.
"""

from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import PolyExpSum, RationalPolynomial
from erfkit.gauss import build_erf_series
from erfkit.grids import GridApproximant, build_grid_table
from erfkit.oracle import CTX34, CTX70, PrecisionContext, erf_ref
from erfkit.spline import build_spline, residual_derivative, residual_scale
from erfkit.sqrtform import build_sqrt, pi_constant_sequence, sqrt_transform
from erfkit.subinterval import build_subinterval
from erfkit.tables import reproduce_table, sqrt_family_bound
from erfkit.transition import (
    PiecewiseApproximant,
    improved,
    optimize_transition,
    reference_grid,
    sweep,
    taylor,
)

from test_gauss import PRINTED_G
from test_spline import PRINTED_FORMS, PRINTED_RESIDUAL_DERIVATIVES
from test_sqrtform import PRINTED_SQRT
from test_subinterval import PRINTED_F44

pytestmark = pytest.mark.slow


def report(criterion, ok, detail=""):
    print("ACCEPTANCE %s: %s %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (criterion, detail)


def rel_close(computed, printed, tol="0.05"):
    return abs(computed / mp.mpf(printed) - 1) <= mp.mpf(tol)


# Computed digits of every row the gate recomputes. The pass/fail verdict
# allows 5% drift; these pins catch any change in a printed digit.
PINNED_ROWS = {
    "3": {
        "n=0": {"re_b": "0.08506", "x_o": "1.3085"},
        "n=1": {"re_b": "0.03619", "x_o": "1.492"},
        "n=2": {"re_b": "0.01948", "x_o": "1.658"},
        "n=3": {"re_b": "0.007358", "x_o": "1.8975"},
        "n=4": {"re_b": "0.001026", "x_o": "2.3715"},
        "n=6": {"re_b": "0.000475", "x_o": "2.4715"},
        "n=8": {"re_b": "2.792e-5", "x_o": "2.963"},
        "n=10": {"re_b": "1.347e-5", "x_o": "3.0785"},
        "n=12": {"re_b": "9.777e-7", "x_o": "3.4625"},
        "n=14": {"re_b": "3.999e-7", "x_o": "3.5845"},
        "n=16": {"re_b": "3.439e-8", "x_o": "3.9025"},
        "n=18": {"re_b": "1.219e-8", "x_o": "4.0285"},
        "n=20": {"re_b": "1.202e-9", "x_o": "4.3"},
        "n=22": {"re_b": "3.764e-10", "x_o": "4.429"},
        "n=24": {"re_b": "4.18e-11", "x_o": "4.6655"},
    },
    "4": {
        "n=1": {"re_b": "0.2661", "x_o": "0.8864"},
        "n=9": {"re_b": "0.04158", "x_o": "1.4532"},
        "n=21": {"re_b": "0.005444", "x_o": "1.9672"},
        "n=61": {"re_b": "1.243e-5", "x_o": "3.09"},
    },
    "5": {
        "n=0": {"re_b": "0.005322", "x_o": "2.7016"},
        "n=1": {"re_b": "7.206e-5", "x_o": "3.292"},
        "n=2": {"re_b": "1.271e-6", "x_o": "3.4544"},
        "n=4": {"re_b": "1.433e-7", "x_o": "3.7208"},
        "n=8": {"re_b": "4.337e-11", "x_o": "4.6616"},
        "n=12": {"re_b": "9.753e-16", "x_o": "5.6784"},
        "n=16": {"re_b": "2.01e-19", "x_o": "6.3736"},
        "n=20": {"re_b": "4.621e-24", "x_o": "7.1544"},
        "n=24": {"re_b": "1.062e-27", "x_o": "7.7136"},
    },
    "6": {
        "n=4": {"re_b": "4.817e-16", "x_o": "7.1544"},
        "n=24": {"re_b": "1.207e-50", "x_o": "10.584"},
    },
    "7": {
        "k=1": {"c_k": "5.204998778e-01"},
        "k=2": {"c_k": "3.222009151e-01"},
        "k=3": {"c_k": "1.234043535e-01"},
        "k=4": {"c_k": "2.921711854e-02"},
        "k=5": {"c_k": "4.270782964e-03"},
        "k=6": {"c_k": "3.848615204e-04"},
        "k=7": {"c_k": "2.134739863e-05"},
        "k=8": {"c_k": "7.276811144e-07"},
        "k=9": {"c_k": "1.522064186e-08"},
        "k=10": {"c_k": "1.950785844e-10"},
        "k=11": {"c_k": "1.530101947e-12"},
        "k=12": {"c_k": "7.336328181e-15"},
    },
    "8": {
        "n=4": {"re_b": "1.819e-5"},
        "n=8": {"re_b": "1.693e-8"},
        "n=16": {"re_b": "1.684e-14"},
        "sqrt(f_{1,4})": {"re_b": "2.826e-6"},
    },
    "9": {
        "g n=2": {"re_b": "0.9569"},
        "g n=4": {"re_b": "0.008039"},
        "g n=7": {"re_b": "0.0003722"},
        "g n=12": {"re_b": "1.091e-9"},
        "h n=3": {"re_b": "0.05251"},
        "h n=5": {"re_b": "7.979e-5"},
        "h n=8": {"re_b": "5.692e-10"},
        "h n=12": {"re_b": "4.616e-18"},
    },
    "10": {
        "spline n=12": {"re_b": "9.76e-7"},
        "subinterval n=8 m=4": {"re_b": "4.327e-11"},
        "grid n=3 d=3/4": {"re_b": "5.529e-7"},
        "grid n=2 d=19/20": {"re_b": "8.27e-5"},
        "sqrt n=20": {"re_b": "1.727e-17"},
    },
}
PINNED_C7 = {4: "7.206e-5", 8: "4.509e-6", 16: "2.818e-7", 64: "1.101e-9"}
PINNED_C8 = {2: "1.156e-5", 4: "1.349e-9", 6: "7.15e-14", 16: "9.034e-37"}


def assert_pinned(table, rows):
    assert {r.label: r.computed for r in rows} == PINNED_ROWS[table]


def test_c01_symbolic_fixtures():
    for n, polys in PRINTED_FORMS.items():
        form = build_spline(n).form
        for rate, coeffs in polys.items():
            assert form.poly_at(rate) == RationalPolynomial(coeffs)
    for n, polys in PRINTED_RESIDUAL_DERIVATIVES.items():
        form = residual_derivative(n)
        for rate, coeffs in polys.items():
            assert form.poly_at(rate) == RationalPolynomial(coeffs)
    for n, (q0, p1, p2) in PRINTED_SQRT.items():
        s = build_sqrt(n)
        assert (s.q0, s.terms[0][1], s.terms[1][1]) == (
            q0,
            RationalPolynomial(p1),
            RationalPolynomial(p2),
        )
    from erfkit.gauss import build_gauss_g, build_gauss_h

    for n, (num, den) in PRINTED_G.items():
        g = build_gauss_g(n)
        assert g.numerator == RationalPolynomial(num)
        assert g.denominator == RationalPolynomial(den)
    h5 = build_gauss_h(5)
    assert h5.numerator == RationalPolynomial(
        [1, 0, F(-1, 2), 0, F(5, 44), 0, F(-1, 66), 0, F(1, 792), 0, F(-1, 15840), 0, F(1, 665280)]
    )
    f44 = build_subinterval(4, 4).form
    for rate, entries in PRINTED_F44.items():
        for power, coeff in entries:
            assert f44.poly_at(rate).coeff(power) == coeff
    assert pi_constant_sequence(6) == [
        F(3), F(19, 6), F(63, 20), F(22, 7), F(377, 120), F(174169, 55440), F(4528409, 1441440)
    ]
    report("C1 symbolic fixtures", True)


def test_c02_headline_bound():
    rep = sweep(build_spline(2), (0, 2), 10000, CTX34)
    with CTX34.workdps():
        ok = rel_close(rep.re_b, "0.056")
    report("C2 f2 bound on (0,2]", ok, mp.nstr(rep.re_b, 4))


def test_c03_table3_all_rows():
    rows = reproduce_table(3)
    bad = [r.label for r in rows if not r.ok]
    report("C3 Table 3 (15 rows)", len(rows) == 15 and not bad, ",".join(bad))
    assert_pinned("3", rows)


def test_c04_table4_rows():
    rows = reproduce_table(4, rows={1, 9, 21, 61})
    bad = [r.label for r in rows if not r.ok]
    report("C4 Table 4 (Taylor improved)", len(rows) == 4 and not bad, ",".join(bad))
    assert_pinned("4", rows)


def test_c05_table5_all_rows():
    rows = reproduce_table(5)
    bad = [r.label for r in rows if not r.ok]
    report("C5 Table 5 (m=4, all rows)", len(rows) == 9 and not bad, ",".join(bad))
    assert_pinned("5", rows)


def test_c06_table6_rows_70_digits():
    rows = reproduce_table(6, rows={4, 24})
    bad = [r.label for r in rows if not r.ok]
    report("C6 Table 6 (m=16, 70 digits)", len(rows) == 2 and not bad, ",".join(bad))
    assert_pinned("6", rows)


def test_c07_subinterval_spot_bounds():
    expected = {4: "7.21e-5", 8: "4.51e-6", 16: "2.82e-7"}
    with CTX34.workdps():
        ok = True
        detail = []
        computed = {}
        for m, printed in expected.items():
            res = optimize_transition(build_subinterval(1, m), (0, 8), 10000, CTX34)
            good = rel_close(res.re_b, printed)
            ok &= good
            detail.append("m=%d:%s" % (m, mp.nstr(res.re_b, 3)))
            computed[m] = mp.nstr(res.re_b, 4)
        res64 = optimize_transition(build_subinterval(1, 64), (0, 16), 20000, CTX34)
        ok &= rel_close(res64.re_b, "1.10e-9")
        detail.append("m=64:%s" % mp.nstr(res64.re_b, 3))
        computed[64] = mp.nstr(res64.re_b, 4)
    report("C7 f_{1,m} improved bounds", ok, " ".join(detail))
    assert computed == PINNED_C7


def test_c08_grid_family_and_table7():
    specs = [(2, "1.16e-5", CTX34), (4, "1.35e-9", CTX34), (6, "7.15e-14", CTX34),
             (16, "9.03e-37", CTX70)]
    ok = True
    detail = []
    computed = {}
    for n, printed, ctx in specs:
        table = build_grid_table(F(1, 2), 18, ctx)
        rep = sweep(GridApproximant(n, table), (0, 8), 10000, ctx)
        with ctx.workdps():
            good = rel_close(rep.re_b, printed)
        ok &= good
        detail.append("n=%d:%s" % (n, mp.nstr(rep.re_b, 3)))
        computed[n] = mp.nstr(rep.re_b, 4)
    t7 = reproduce_table(7)
    ok &= all(r.ok for r in t7) and len(t7) == 12
    report("C8 grid family + Table 7", ok, " ".join(detail))
    assert computed == PINNED_C8
    assert_pinned("7", t7)


def test_c09_sqrt_family_bounds():
    rows = reproduce_table(8, rows={4, 8, 16, "extension"})
    bad = [r.label for r in rows if not r.ok]
    report("C9 Table 8 rows + extension", len(rows) == 4 and not bad, ",".join(bad))
    assert_pinned("8", rows)


def test_c10_table9_rows():
    want = {("g", 2), ("g", 4), ("g", 7), ("g", 12), ("h", 3), ("h", 5), ("h", 8), ("h", 12)}
    rows = reproduce_table(9, rows=want)
    bad = [r.label for r in rows if not r.ok]
    report("C10 Table 9 rows", len(rows) == 8 and not bad, ",".join(bad))
    assert_pinned("9", rows)


def test_c11_table10_one_cell_per_column():
    want = {"spline n=12", "subinterval n=8 m=4", "grid n=3 d=3/4", "grid n=2 d=19/20",
            "sqrt n=20"}
    rows = reproduce_table(10, rows=want)
    bad = [r.label for r in rows if not r.ok]
    report("C11 Table 10 columns", len(rows) == 5 and not bad, ",".join(bad))
    assert_pinned("10", rows)


@pytest.mark.xfail(
    strict=True,
    reason="the printed two-term series tail gives re(0.87) = 3.8e-3 (confirmed against two independent erf implementations), so the stated 1e-3-on-(0,0.87] bound is unattainable as written; the claim matches the three-term truncation instead",
)
def test_c12_series_literal_two_term():
    s = build_erf_series(1, 2)
    rep = sweep(s, (0, F(87, 100)), 2000, CTX34)
    with CTX34.workdps():
        ok = rep.re_b <= mp.mpf("1e-3")
    report("C12 series literal two-term", ok, mp.nstr(rep.re_b, 4))


def test_c12_series_claims_three_term():
    # the bound claims hold for the truncation through the x^9 term: the
    # 1e-3 crossing sits in [0.86, 0.88] and the 1e-2 crossing in [1.09, 1.11]
    s3 = build_erf_series(1, 3)
    rep_a = sweep(s3, (0, F(86, 100)), 1000, CTX34)
    rep_b = sweep(s3, (0, F(11, 10)), 1000, CTX34)
    with CTX34.workdps():
        ok = rep_a.re_b <= mp.mpf("1e-3")
        re_109 = abs(1 - s3.value(mp.mpf("1.09"), CTX34) / erf_ref(mp.mpf("1.09"), CTX34))
        re_111 = abs(1 - s3.value(mp.mpf("1.11"), CTX34) / erf_ref(mp.mpf("1.11"), CTX34))
        ok &= re_109 < mp.mpf("1e-2") < re_111
        # and the two-term form does hold the claim on its own narrower range
        s2 = build_erf_series(1, 2)
        rep_c = sweep(s2, (0, F(7, 10)), 1000, CTX34)
        ok &= rep_c.re_b <= mp.mpf("1e-3")
    report("C12 series residual claims", ok,
           "3-term re_B(0,0.86]=%s" % mp.nstr(rep_a.re_b, 3))


def _containment(piece, eps, interval, n_points, ctx):
    xs, refs = reference_grid(interval, n_points, ctx)
    with ctx.workdps():
        eps = mp.mpf(eps)
        for x, ref in zip(xs, refs):
            v = piece.value(x, ctx)
            if not (v / (1 + eps) < ref < v / (1 - eps)):
                return False, x
    return True, None


def test_c13_envelopes():
    # bracketing envelopes for the certified four-sub-interval approximants;
    # eps_B is taken a hair above the measured bound so the strict
    # inequalities survive at the argmax point
    res4 = optimize_transition(build_subinterval(4, 4), (0, 8), 10000, CTX34)
    piece4 = PiecewiseApproximant(build_subinterval(4, 4), res4.x_o)
    with CTX34.workdps():
        eps4 = res4.re_b * (1 + mp.mpf("1e-15"))
    ok4, where4 = _containment(piece4, eps4, (0, 8), 10000, CTX34)

    res16 = optimize_transition(build_subinterval(4, 16), (0, 12), 10000, CTX70)
    piece16 = PiecewiseApproximant(build_subinterval(4, 16), res16.x_o)
    with CTX70.workdps():
        eps16 = res16.re_b * (1 + mp.mpf("1e-30"))
    ok16, where16 = _containment(piece16, eps16, (0, 12), 10000, CTX70)

    # quoted envelope errors follow Eq.-14 algebra: 2e/(1-e) and 2e/(1+e)
    with CTX34.workdps():
        e = mp.mpf("7.21e-5")
        upper_err = 2 * e / (1 - e)
        ok_alg = mp.nstr(upper_err, 3) == "0.000144"
        e2 = mp.mpf("4.82e-16")
        lower_err = 2 * e2 / (1 + e2)
        ok_alg &= mp.nstr(lower_err, 3) == "9.64e-16"
    report("C13 envelopes", ok4 and ok16 and ok_alg,
           "violations at %s/%s" % (where4, where16))


def test_c14_property_suite():
    # residual envelope constant k_o = 1.2 (needs digits against the
    # small-x cancellation of the poly-exp difference)
    ctx = PrecisionContext(80)
    with ctx.workdps():
        for n in (0, 2, 4, 6, 8):
            form = residual_derivative(n)
            x_n0 = residual_scale(n)
            for i in range(1, 301):
                x = mp.mpf(6) * i / 300
                assert abs(form.eval_raw(x)) * x_n0 / x ** (2 * n + 2) <= mp.mpf("1.2")
    # telescoping of the sub-interval construction
    from erfkit.spline import build_interval_spline

    with CTX34.workdps():
        for n, m in ((1, 4), (3, 4)):
            f = build_subinterval(n, m)
            for xq in (F(1, 2), F(3)):
                xm = mp.mpf(xq.numerator) / xq.denominator
                total = sum(
                    build_interval_spline(n, xq * i / m).value(xm * (i + 1) / m, CTX34)
                    for i in range(m)
                )
                assert abs(total - f.value(xm, CTX34)) < mp.mpf("1e-38")
    # dynamical-system recurrences == exact term-wise integration, n <= 24
    for n in range(25):
        a = build_sqrt(n)
        b = sqrt_transform(build_spline(n).form, n)
        assert a.q0 == b.q0 and PolyExpSum(a.terms) == PolyExpSum(b.terms)
    # Gaussian approximant derivative identity, n <= 24
    from erfkit.gauss import gauss_g_parts

    for n in range(25):
        num, den = gauss_g_parts(n)
        d = build_spline(n).form.differentiate()
        assert d.poly_at(0) == 2 * num
        assert d.poly_at(1) == RationalPolynomial([2]) - 2 * den
    # odd symmetry across families
    with CTX34.workdps():
        x = mp.mpf("1.3")
        for approx in (
            build_spline(5),
            build_subinterval(2, 4),
            build_sqrt(3),
            taylor(7),
            build_erf_series(1, 2),
        ):
            assert approx.value(-x, CTX34) == -approx.value(x, CTX34)
    # oracle self-consistency at doubled precision
    with CTX34.doubled().workdps():
        for xs in ("0.1", "1", "5", "12"):
            lo = erf_ref(mp.mpf(xs), CTX34)
            hi = erf_ref(mp.mpf(xs), CTX34.doubled())
            assert abs(1 - lo / hi) < mp.mpf(10) ** (-33)
    report("C14 property suite", True)


def test_c15_applications():
    from erfkit.apps import (
        FilterModel,
        arbitrate_harmonics,
        filter_convolution_oracle,
        filter_response_approx,
        filter_response_exact,
        output_power,
        output_power_quadrature,
    )

    ok = True
    detail = []
    with CTX34.workdps():
        # power closed form vs quadrature, a in (0, 3]
        for a in ("0.25", "0.75", "1.5", "2.25", "3"):
            p = output_power(mp.mpf(a), CTX34)
            q = output_power_quadrature(mp.mpf(a), CTX34)
            ok &= abs(p - q) / q < mp.mpf("4e-4")
        detail.append("power ok")
        # harmonic closed forms within 1e-3 of quadrature or flagged
        for a in ("0.5", "1", "1.5", "2"):
            repo = arbitrate_harmonics(mp.mpf(a), CTX34)
            for k in (1, 3, 5, 7):
                _, _, dev, flagged = repo[k]
                ok &= flagged or dev < mp.mpf("1e-3")
            ok &= not repo[1][3] and not repo[3][3] and not repo[5][3]
            ok &= repo[7][3]  # printed seventh-harmonic form fails arbitration
        detail.append("harmonics arbitrated (k=7 flagged)")
        # exact filter response against direct numerical convolution
        model = FilterModel(F(1, 2), 1)
        for t in ("0.2", "0.5", "1", "2"):
            ye = filter_response_exact(model, t, CTX34)
            yc = filter_convolution_oracle(model, t, CTX34)
            ok &= abs(ye - yc) < mp.mpf("1e-35")
        detail.append("filter matches convolution")
        # approximant responses converge with order on the (0,3] grid
        ts = [mp.mpf(3) * i / 600 for i in range(1, 601)]
        exact = [filter_response_exact(model, t, CTX34) for t in ts]
        worst = {}
        for n in (2, 4, 6, 8, 12):
            piece, _ = improved(build_spline(n), (0, 5), 10000, CTX34)
            worst[n] = max(
                abs(filter_response_approx(model, piece, t, CTX34) - e)
                for t, e in zip(ts, exact)
            )
        ok &= worst[2] > worst[4] > worst[6] > worst[8] > worst[12]
        detail.append("y_n ordering " + ">".join(mp.nstr(worst[n], 2) for n in (2, 4, 6, 8, 12)))
    report("C15 applications", ok, "; ".join(detail))
