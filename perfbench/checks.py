"""Seed-independent output checks, run after the timed section.

Certification results are recomputed at a few grid points with ``mp.erf`` at
doubled precision as the reference and with the approximant's exact
coefficients summed here, so neither the erfkit oracle nor the erfkit
evaluation path is trusted by the check. Generated forms must round-trip
exactly; the power closed form must pass its arbitration, and its
quadrature oracle must match one summed here with ``mp.erf``.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

import mpmath as mp

from workloads import (
    APPS_DIGITS,
    ARBITRATION_TOL,
    FILTER_GAMMA,
    FILTER_POLE,
    build_inner,
)

SAMPLE_POINTS = 3
# Known defect: ``erfkit sweep`` CSV rows and the grid
# coefficients of ``erfkit gen`` are formatted outside the working-precision
# context, so ``render.mp_str``/``decimal_string`` first round each value to
# the 53-bit default and print 34 digits of which only ~16 are correct. Such
# values pass when they agree to 2^-52 relative, and the operation's detail
# reads SHORT_DIGITS so every run reports the defect.
SHORT_DIGITS = "short-digits"
DOUBLE_REL = mp.mpf(2) ** -52


def _q(value):
    value = Fraction(value)
    return mp.mpf(value.numerator) / value.denominator


def eval_polyexp(form, x):
    """Sum of p_i(x) exp(-k_i x^2), dense Horner in x from the exact coefficients."""
    u = x * x
    total = mp.mpf(0)
    for rate, poly in form.terms:
        acc = mp.mpf(0)
        for c in reversed(poly.coeffs):
            acc = acc * x + _q(c)
        total += acc if rate == 0 else acc * mp.exp(-_q(rate) * u)
    return total


def second_value(inner, x):
    """Approximant value at x >= 0 from its exact form, at the current precision."""
    if hasattr(inner, "radicand"):
        r = eval_polyexp(inner.radicand(), x)
        return mp.sqrt(max(r, 0)) / mp.sqrt(mp.pi)
    return eval_polyexp(inner.form, x) / mp.sqrt(mp.pi)


def _sample(seed, op, n_points, extra):
    rng = random.Random("check:%d:%s" % (seed, op["id"]))
    picks = {rng.randrange(n_points) for _ in range(SAMPLE_POINTS)}
    return sorted(picks | set(extra))


def _grid_x(interval, n_points, i):
    a, b = (Fraction(v) for v in interval)
    return a + (i + 1) * (b - a) / n_points


def _re_candidates(inner, x_exact):
    x = _q(x_exact)
    ref = mp.erf(x)
    return 1 - second_value(inner, x) / ref, 1 - 1 / ref


def check_sweep_cli(ek, op, out, seed):
    digits = op["digits"]
    rows = list(csv.reader(io.StringIO(out["output"])))
    a, _, b = op["interval"].partition(":")
    header = "x[a=%s b=%s N=%d digits=%d]" % (a, b, op["points"], digits)
    if rows[0] != [header, "re", "abs_re"]:
        return False, "bad header %r" % (rows[0],)
    body = rows[1:]
    if len(body) != op["points"]:
        return False, "expected %d rows, got %d" % (op["points"], len(body))
    inner = build_inner(ek, op)
    interval = (Fraction(a), Fraction(b))
    with mp.workdps(2 * digits + 10):
        tol = mp.mpf(10) ** (-digits)
        abs_vals = [mp.mpf(r[2]) for r in body]
        argmax = max(range(len(abs_vals)), key=abs_vals.__getitem__)
        inner_side, tail_side = [], []
        short = False
        for i in _sample(seed, op, len(body), [argmax]):
            x_csv, re_csv, abs_csv = body[i]
            if abs_csv != re_csv.lstrip("-"):
                return False, "row %d: abs_re %s != |re| %s" % (i, abs_csv, re_csv)
            x_exact = _grid_x(interval, op["points"], i)
            x_dev = abs(mp.mpf(x_csv) - _q(x_exact))
            if x_dev > _q(x_exact) * DOUBLE_REL:
                return False, "row %d: x %s is not grid point %s" % (i, x_csv, x_exact)
            short |= x_dev > _q(x_exact) * mp.mpf(10) ** (1 - digits)
            re_in, re_tail = _re_candidates(inner, x_exact)
            re_val = mp.mpf(re_csv)
            sides = []
            for expect in (re_in, re_tail):
                dev = abs(re_val - expect)
                sides.append(dev <= tol + abs(expect) * DOUBLE_REL)
                short |= sides[-1] and dev > tol
            if not any(sides):
                return False, "row %d: re %s disagrees with %s / %s" % (
                    i, re_csv, mp.nstr(re_in, 8), mp.nstr(re_tail, 8))
            if sides == [True, False]:
                inner_side.append(i)
            if sides == [False, True]:
                tail_side.append(i)
        if inner_side and tail_side and max(inner_side) > min(tail_side):
            return False, "inner/tail sides interleave at %s / %s" % (inner_side, tail_side)
    return True, SHORT_DIGITS if short else ""


def check_certify(ek, op, out, seed):
    res, rep = out["result"], out["report"]
    digits = op["digits"]
    inner = build_inner(ek, op)
    with mp.workdps(2 * digits + 10):
        if res.re_b != rep.re_b:
            return False, "transition bound %s != sweep bound %s" % (res.re_b, rep.re_b)
        if abs(rep.re[rep.argmax_index]) != rep.re_b:
            return False, "argmax does not carry the bound"
        tol = mp.mpf(10) ** (-digits)
        for i in _sample(seed, op, op["points"], [rep.argmax_index]):
            re_in, re_tail = _re_candidates(inner, _grid_x(op["interval"], op["points"], i))
            expect = re_in if rep.xs[i] <= res.x_o else re_tail
            if abs(rep.re[i] - expect) > tol:
                return False, "point %d: re %s vs second opinion %s" % (
                    i, mp.nstr(rep.re[i], 10), mp.nstr(expect, 10))
    return True, ""


def check_table9(ek, op, out, seed):
    row = out["row"]
    if not row.ok:
        return False, "table 9 row %s fails its printed bound" % row.label
    build = ek.build_gauss_g if op["tag"] == "g" else ek.build_gauss_h
    approx = build(op["order"])
    with mp.workdps(2 * 34 + 10):
        bound = mp.mpf(row.computed["re_b"]) * (1 + mp.mpf("1e-3"))
        b = 3 / mp.sqrt(2)
        rng = random.Random("check:%d:%s" % (seed, op["id"]))
        for _ in range(SAMPLE_POINTS):
            x = b * rng.randrange(1, 10001) / 10000
            num = sum(_q(c) * x**k for k, c in enumerate(approx.numerator.coeffs))
            den = sum(_q(c) * x**k for k, c in enumerate(approx.denominator.coeffs))
            re = abs(1 - num / den / mp.exp(-x * x))
            if re > bound:
                return False, "|re| %s at x=%s exceeds re_b %s" % (
                    mp.nstr(re, 5), mp.nstr(x, 8), row.computed["re_b"])
    return True, ""


def check_gen(ek, op, out, seed):
    payload, rebuilt = out["payload"], out["rebuilt"]
    family = payload["family"]
    n = payload["order"]
    if family == "spline":
        ok = rebuilt.form == ek.build_spline(n).form
    elif family == "subinterval":
        ok = rebuilt.form == ek.build_subinterval(n, payload["subintervals"]).form
    elif family == "sqrt":
        fresh = ek.build_sqrt(n)
        ok = rebuilt.radicand() == fresh.radicand() and rebuilt.q0 == fresh.q0
        if ok and fresh.radicand() != ek.sqrt_transform(ek.build_spline(n).form).radicand():
            return False, "build_sqrt(%d) != sqrt_transform(build_spline(%d).form)" % (n, n)
    elif family in ("gauss_g", "gauss_h"):
        fresh = (ek.build_gauss_g if family == "gauss_g" else ek.build_gauss_h)(n)
        ok = (rebuilt.numerator, rebuilt.denominator) == (fresh.numerator, fresh.denominator)
    elif family == "series":
        fresh = ek.build_erf_series(n, payload["tail_terms"])
        terms, tail = rebuilt
        ok = terms == fresh.base.form and tuple(tail) == fresh.tail.coeffs
    elif family == "grid":
        delta = Fraction(payload["resolution"])
        short = False
        with mp.workdps(2 * payload["digits"] + 10):
            # Increments are differences of erf values near 1: absolute accuracy.
            tol = mp.mpf(10) ** (-payload["digits"])
            for k, c in enumerate(payload["c"][1:], start=1):
                expect = mp.erf(_q(delta * k)) - mp.erf(_q(delta * (k - 1)))
                dev = abs(mp.mpf(c) - expect)
                if dev > tol + abs(expect) * DOUBLE_REL:
                    return False, "grid c_%d = %s, second opinion %s" % (k, c, mp.nstr(expect, 12))
                short |= dev > tol
        return True, SHORT_DIGITS if short else ""
    else:
        return False, "no round-trip check for %r" % family
    return (True, "") if ok else (False, "%s n=%d does not round-trip exactly" % (family, n))


def check_sqrt_transform(ek, op, out, seed):
    form = out["form"]
    if out["rebuilt"] != form.radicand():
        return False, "radicand does not round-trip exactly"
    if form.radicand().poly_at(0).coeff(1) or form.q0 != form.radicand().poly_at(0).coeff(0):
        return False, "radicand constant part is not q0"
    return True, ""


def check_power(ek, op, out, seed):
    if out["dev"] > ARBITRATION_TOL:
        return False, "power closed form fails arbitration (dev %s)" % mp.nstr(out["dev"], 4)
    with mp.workdps(2 * APPS_DIGITS + 10):
        # Mean of erf^2(a sin 2 pi t) by a fixed 1024-node trapezoid (the
        # integrand is entire and periodic, so this is far below 10^-34).
        a, nodes = mp.mpf(op["a"]), 1024
        h = mp.mpf(1) / (2 * nodes)
        second = 2 * h * mp.fsum(mp.erf(a * mp.sin(2 * mp.pi * i * h)) ** 2 for i in range(nodes))
        if abs(out["quad"] / second - 1) > mp.mpf(10) ** (2 - APPS_DIGITS):
            return False, "power quadrature %s vs second opinion %s" % (
                mp.nstr(out["quad"], 12), mp.nstr(second, 12))
    return True, ""


def _filter_closed(gamma, f_p, t, erf):
    """Exact filtered-step response written out with a caller-supplied erf."""
    tau = 1 / (2 * mp.pi * f_p)
    g2t = gamma / (2 * tau)
    eg = mp.exp(g2t * g2t)
    rp = mp.sqrt(mp.pi)
    bracket = (
        (gamma * gamma / (2 * tau) - (t + tau)) * eg * (erf(g2t) - erf(g2t - t / gamma))
        - gamma / rp * eg * mp.exp(-((t / gamma - g2t) ** 2))
        + gamma / rp
    )
    return erf(t / gamma) + mp.exp(-t / tau) / tau * bracket


def check_filter(ek, op, out, seed):
    digits = APPS_DIGITS
    with mp.workdps(2 * digits + 10):
        second = _filter_closed(_q(FILTER_GAMMA), _q(FILTER_POLE), mp.mpf(op["t"]), mp.erf)
        tol = mp.mpf(10) ** (2 - digits)
        if abs(out["exact"] / second - 1) > tol:
            return False, "exact response %s vs second opinion %s" % (
                mp.nstr(out["exact"], 12), mp.nstr(second, 12))
        if abs(out["oracle"] / second - 1) > tol:
            return False, "convolution oracle %s vs second opinion %s" % (
                mp.nstr(out["oracle"], 12), mp.nstr(second, 12))
        expect = _filter_closed(_q(FILTER_GAMMA), _q(FILTER_POLE), mp.mpf(op["t"]),
                                lambda u: mp.sign(u) * second_value(out["approx"], abs(u)))
        if abs(out["approx_y"] - expect) > tol:
            return False, "approximant response %s vs second opinion %s" % (
                mp.nstr(out["approx_y"], 12), mp.nstr(expect, 12))
    return True, ""


CHECKS = {
    "sweep_cli": check_sweep_cli,
    "certify": check_certify,
    "table9": check_table9,
    "gen_cli": check_gen,
    "sqrt_transform": check_sqrt_transform,
    "power": check_power,
    "filter": check_filter,
}


def check_op(ek, op, out, seed):
    """(ok, detail) for one operation's output; never raises for a wrong result."""
    return CHECKS[op["kind"]](ek, op, out, seed)
