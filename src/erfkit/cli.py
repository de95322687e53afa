"""Command-line front end: generate, sweep, reproduce tables, run applications.

Subcommands
    gen    emit a generated approximant as JSON (schema erfkit-approximant/1)
    sweep  relative-error sweep to CSV
    table  recompute a published table, CSV + per-row pass/fail
    apps   power / harmonics / filter data to CSV

All output is deterministic for identical flags; CSV carries a mandatory
header row that embeds the grid specification and precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

import mpmath as mp

from .apps import (
    FilterModel,
    arbitrate_harmonics,
    filter_response_approx,
    filter_response_exact,
    output_power,
    output_power_quadrature,
)
from .exact import RationalPolynomial
from .gauss import RationalFunctionApproximant, build_erf_series, build_gauss_g, build_gauss_h
from .grids import GridApproximant, build_grid_table
from .oracle import PrecisionContext
from .render import (
    decimal_string,
    frac_str,
    mp_str,
    parse_frac,
    parse_polyexp,
    polyexp_payload,
    polyexp_str,
    poly_str,
)
from .spline import SplineApproximant, build_spline
from .sqrtform import SqrtForm, build_sqrt
from .subinterval import SubintervalApproximant, build_subinterval
from .tables import parse_rows, reproduce_table
from .transition import (
    PiecewiseApproximant,
    TaylorApproximant,
    improved,
    sweep as run_sweep,
    taylor,
)

SCHEMA = "erfkit-approximant/1"

FAMILIES = ("spline", "subinterval", "grid", "sqrt", "taylor", "series", "gauss_g", "gauss_h")


def _parse_interval(text: str):
    a, _, b = text.partition(":")
    if not b:
        raise argparse.ArgumentTypeError("interval must look like a:b, got %r" % text)
    return Fraction(a), Fraction(b)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("bad rational %r" % text) from exc


def build_approximant(args, ctx: PrecisionContext):
    """Approximant object plus a JSON-able descriptor from CLI flags."""
    family = args.family
    desc = {"family": family, "order": args.order, "digits": ctx.working_digits}
    if family == "spline":
        return build_spline(args.order), desc
    if family == "subinterval":
        m = args.subintervals
        if m is None:
            raise SystemExit("subinterval family needs --subintervals")
        desc["subintervals"] = m
        return build_subinterval(args.order, m), desc
    if family == "grid":
        if args.resolution is None:
            raise SystemExit("grid family needs --resolution p/q")
        desc["resolution"] = frac_str(args.resolution)
        span = args.interval[1] if args.interval else Fraction(8)
        k_max = int(span / args.resolution) + 2
        table = build_grid_table(args.resolution, k_max, ctx)
        return GridApproximant(args.order, table), desc
    if family == "sqrt":
        return build_sqrt(args.order), desc
    if family == "taylor":
        if args.order % 2 == 0:
            raise SystemExit("taylor order must be odd")
        return taylor(args.order), desc
    if family == "series":
        tail = args.tail_terms or 2
        desc["tail_terms"] = tail
        return build_erf_series(args.order, tail), desc
    if family == "gauss_g":
        return build_gauss_g(args.order), desc
    if family == "gauss_h":
        return build_gauss_h(args.order), desc
    raise SystemExit("unknown family %r" % family)


def _gen_payload(args, ctx: PrecisionContext) -> dict:
    approx, desc = build_approximant(args, ctx)
    payload = {"schema": SCHEMA, **desc}
    if args.family in ("spline", "subinterval"):
        payload["prefactor"] = "1/sqrt(pi)"
        payload["terms"] = polyexp_payload(approx.form)
        payload["rendered"] = "(%s)/sqrt(pi)" % polyexp_str(approx.form)
    elif args.family == "series":
        payload["prefactor"] = "1/sqrt(pi)"
        payload["terms"] = polyexp_payload(approx.base.form)
        payload["tail"] = [frac_str(c) for c in approx.tail.coeffs]
        payload["rendered"] = "(%s + %s)/sqrt(pi)" % (
            polyexp_str(approx.base.form),
            poly_str(approx.tail),
        )
    elif args.family == "sqrt":
        payload["prefactor"] = "1/sqrt(pi)"
        payload["radicand"] = polyexp_payload(approx.radicand())
        payload["rendered"] = "sqrt(%s)/sqrt(pi)" % polyexp_str(approx.radicand())
    elif args.family == "taylor":
        payload["prefactor"] = "1/sqrt(pi)"
        payload["coefficients"] = [frac_str(c) for c in approx.poly.coeffs]
        payload["rendered"] = "(%s)/sqrt(pi)" % poly_str(approx.poly)
    elif args.family in ("gauss_g", "gauss_h"):
        payload["target"] = "exp(-x^2)"
        payload["numerator"] = [frac_str(c) for c in approx.numerator.coeffs]
        payload["denominator"] = [frac_str(c) for c in approx.denominator.coeffs]
        payload["rendered"] = "(%s)/(%s)" % (
            poly_str(approx.numerator),
            poly_str(approx.denominator),
        )
    elif args.family == "grid":
        table = approx.table
        payload["resolution"] = frac_str(table.resolution)
        payload["c"] = [decimal_string(c, ctx.working_digits) if c else "0" for c in table.c]
        payload["rendered"] = "grid(delta=%s, order=%d, k_max=%d)" % (
            table.resolution,
            args.order,
            table.k_max,
        )
    return payload


def parse_gen_payload(payload: dict):
    """Rebuild an evaluatable form from cmd_gen output (round-trip support)."""
    if payload.get("schema") != SCHEMA:
        raise ValueError("unsupported schema %r" % payload.get("schema"))
    family = payload["family"]
    if family in ("spline", "subinterval"):
        form = parse_polyexp(payload["terms"])
        if family == "spline":
            return SplineApproximant(payload["order"], form)
        return SubintervalApproximant(payload["order"], payload["subintervals"], form)
    if family == "sqrt":
        form = parse_polyexp(payload["radicand"])
        q0 = form.poly_at(0).coeff(0)
        terms = tuple((r, p) for r, p in form.terms if r != 0)
        return SqrtForm(payload["order"], q0, terms)
    if family == "taylor":
        return TaylorApproximant(
            payload["order"], RationalPolynomial([parse_frac(c) for c in payload["coefficients"]])
        )
    if family in ("gauss_g", "gauss_h"):
        return RationalFunctionApproximant(
            payload["order"],
            RationalPolynomial([parse_frac(c) for c in payload["numerator"]]),
            RationalPolynomial([parse_frac(c) for c in payload["denominator"]]),
        )
    raise ValueError("cannot rebuild family %r" % family)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_gen(args) -> int:
    ctx = PrecisionContext(args.digits)
    payload = _gen_payload(args, ctx)
    out, close = _open_out(args.out)
    json.dump(payload, out, indent=2)
    out.write("\n")
    if close:
        out.close()
    return 0


def cmd_sweep(args) -> int:
    ctx = PrecisionContext(args.digits)
    approx, _ = build_approximant(args, ctx)
    interval = args.interval or (Fraction(0), Fraction(5))
    if args.transition == "auto":
        approx, _ = improved(approx, interval, args.points, ctx)
    elif args.transition not in (None, "none"):
        with ctx.workdps():
            approx = PiecewiseApproximant(approx, mp.mpf(args.transition))
    report = run_sweep(approx, interval, args.points, ctx)
    out, close = _open_out(args.out)
    writer = csv.writer(out)
    header = "x[a=%s b=%s N=%d digits=%d]" % (
        interval[0],
        interval[1],
        args.points,
        ctx.working_digits,
    )
    writer.writerow([header, "re", "abs_re"])
    digits = ctx.working_digits
    for x, r, a in report.rows():
        writer.writerow([mp_str(x, digits), mp_str(r, digits), mp_str(a, digits)])
    if close:
        out.close()
        print(json.dumps(report.summary()))
    return 0


def cmd_table(args) -> int:
    ctx = None
    if args.digits is not None:
        ctx = PrecisionContext(args.digits)
    try:
        rows = parse_rows(args.table, args.rows) if args.rows else None
    except ValueError as exc:
        raise SystemExit("erfkit table: %s" % exc) from exc
    results = reproduce_table(args.table, rows, ctx)
    out, close = _open_out(args.out)
    writer = csv.writer(out)
    writer.writerow(["table", "row", "computed", "printed", "status", "note"])
    all_ok = True
    for r in results:
        all_ok &= r.ok
        writer.writerow(
            [
                r.table,
                r.label,
                ";".join("%s=%s" % kv for kv in sorted(r.computed.items())),
                ";".join("%s=%s" % kv for kv in sorted(r.printed.items())),
                "pass" if r.ok else "FAIL",
                r.detail,
            ]
        )
    if close:
        out.close()
    for r in results:
        print("table %s %-22s %s" % (r.table, r.label, "pass" if r.ok else "FAIL"))
    return 0 if all_ok else 1


def cmd_apps(args) -> int:
    ctx = PrecisionContext(args.digits)
    out, close = _open_out(args.out)
    writer = csv.writer(out)
    digits = ctx.working_digits
    if args.app == "power":
        a0, a1 = args.amplitude_range or (Fraction(1, 100), Fraction(3))
        steps = args.steps
        writer.writerow(
            ["a[%s..%s steps=%d digits=%d]" % (a0, a1, steps, digits), "P_closed", "P_quadrature"]
        )
        with ctx.workdps():
            for i in range(1, steps + 1):
                a = a0 + (a1 - a0) * Fraction(i, steps)
                p = output_power(a, ctx)
                q = output_power_quadrature(a, ctx)
                writer.writerow([str(a), mp_str(p, digits), mp_str(q, digits)])
    elif args.app == "harmonics":
        a0, a1 = args.amplitude_range or (Fraction(1, 10), Fraction(2))
        steps = args.steps
        writer.writerow(
            ["a[%s..%s steps=%d digits=%d]" % (a0, a1, steps, digits)]
            + ["c%d_closed,c%d_quad,c%d_flag" % (k, k, k) for k in (1, 3, 5, 7)]
        )
        with ctx.workdps():
            for i in range(1, steps + 1):
                a = a0 + (a1 - a0) * Fraction(i, steps)
                rep = arbitrate_harmonics(a, ctx)
                row = [str(a)]
                for k in (1, 3, 5, 7):
                    closed, quad, _, flagged = rep[k]
                    row.append(
                        "%s,%s,%s" % (mp_str(closed, digits), mp_str(quad, digits), int(flagged))
                    )
                writer.writerow(row)
    elif args.app == "filter":
        model = FilterModel(args.gamma, args.pole_freq)
        t0, t1 = args.t_range or (Fraction(0), Fraction(3))
        steps = args.steps
        approx = None
        if args.order is not None:
            approx, _ = improved(build_spline(args.order), (0, 5), 10000, ctx)
        header = "t[%s..%s steps=%d digits=%d gamma=%s f_p=%s]" % (
            t0,
            t1,
            steps,
            digits,
            args.gamma,
            args.pole_freq,
        )
        writer.writerow([header, "y"] + (["y_n", "re"] if approx else []))
        with ctx.workdps():
            for i in range(1, steps + 1):
                t = t0 + (t1 - t0) * Fraction(i, steps)
                y = filter_response_exact(model, t, ctx)
                row = [str(t), mp_str(y, digits)]
                if approx is not None:
                    yn = filter_response_approx(model, approx, t, ctx)
                    re = 1 - yn / y if y != 0 else mp.mpf(0)
                    row += [mp_str(yn, digits), mp_str(re, digits)]
                writer.writerow(row)
    if close:
        out.close()
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erfkit",
        description="Closed-form error-function approximants with certified error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p):
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--subintervals", type=int)
        p.add_argument("--resolution", type=_parse_rational, metavar="P/Q")
        p.add_argument("--tail-terms", type=int, dest="tail_terms")
        p.add_argument("--interval", type=_parse_interval, metavar="A:B")
        p.add_argument("--digits", type=int, default=34)
        p.add_argument("--out", default=None, metavar="FILE")

    p_gen = sub.add_parser("gen", help="emit a generated approximant as JSON")
    add_family_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep", help="relative-error sweep to CSV")
    add_family_flags(p_sweep)
    p_sweep.add_argument("--points", type=int, default=10000)
    p_sweep.add_argument("--transition", default=None, metavar="auto|none|X")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="recompute a published table")
    p_table.add_argument("table", choices=["3", "4", "5", "6", "7", "8", "9", "10"])
    p_table.add_argument("--rows", default=None, help="comma list, e.g. 4,24 or g:7,h:5")
    p_table.add_argument("--digits", type=int, default=None)
    p_table.add_argument("--out", default=None, metavar="FILE")
    p_table.set_defaults(func=cmd_table)

    p_apps = sub.add_parser("apps", help="application data to CSV")
    p_apps.add_argument("app", choices=["power", "harmonics", "filter"])
    p_apps.add_argument("--amplitude-range", type=_parse_interval, dest="amplitude_range")
    p_apps.add_argument("--t-range", type=_parse_interval, dest="t_range")
    p_apps.add_argument("--steps", type=int, default=60)
    p_apps.add_argument("--gamma", type=_parse_rational, default=Fraction(1, 2))
    p_apps.add_argument("--pole-freq", type=_parse_rational, dest="pole_freq", default=Fraction(1))
    p_apps.add_argument("--order", type=int, default=None)
    p_apps.add_argument("--digits", type=int, default=34)
    p_apps.add_argument("--out", default=None, metavar="FILE")
    p_apps.set_defaults(func=cmd_apps)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
