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
from functools import cache
from typing import Callable, NamedTuple

import mpmath as mp

from .apps import (
    FilterModel,
    arbitrate_harmonics,
    filter_response_approx,
    filter_response_exact,
    output_power,
    output_power_quadrature,
)
from .exact import as_mpf
from .gauss import (
    ErfSeriesApproximant,
    RationalFunctionApproximant,
    build_erf_series,
    build_gauss_g,
    build_gauss_h,
)
from .grids import covering_grid
from .oracle import OddApproximant, PrecisionContext
from .render import (
    decimal_string,
    frac_str,
    mp_str,
    parse_poly,
    parse_polyexp,
    payload_str,
    poly_str,
    polyexp_payload,
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


class Family(NamedTuple):
    """One ``--family``: its builder, the one family flag it takes, its payload and its reader."""

    build: Callable  # (order, flag value, interval, ctx) -> approximant
    flag: str | None  # the family flag besides --order, as an args attribute
    fields: Callable  # (approx, ctx) -> payload entries after schema, family, order, digits
    read: Callable  # payload -> the exact approximant
    default: int | None = None  # value of an omitted flag; without one the flag is required


def _scaled(exact: dict, rendered: str) -> dict:
    """Payload of a sqrt(pi)-scaled form: its exact parts and its formula over sqrt(pi)."""
    return {"prefactor": "1/sqrt(pi)", **exact, "rendered": rendered + "/sqrt(pi)"}


def _spline_fields(approx, ctx) -> dict:
    terms = polyexp_payload(approx.form)
    return _scaled({"terms": terms}, "(%s)" % payload_str(terms))


def _series_fields(approx, ctx) -> dict:
    terms, tail = polyexp_payload(approx.base.form), approx.tail
    exact = {"terms": terms, "tail": tail.coeffs}
    rendered = "(%s + %s)" % (payload_str(terms), poly_str(tail))
    return {"tail_terms": approx.tail_terms, **_scaled(exact, rendered)}


def _sqrt_fields(approx, ctx) -> dict:
    radicand = polyexp_payload(approx.radicand())
    return _scaled({"radicand": radicand}, "sqrt(%s)" % payload_str(radicand))


def _taylor_fields(approx, ctx) -> dict:
    return _scaled({"coefficients": approx.poly.coeffs}, "(%s)" % poly_str(approx.poly))


def _gauss_fields(approx, ctx) -> dict:
    num, den = approx.numerator, approx.denominator
    return {
        "target": "exp(-x^2)",
        "numerator": num.coeffs,
        "denominator": den.coeffs,
        "rendered": "(%s)/(%s)" % (poly_str(num), poly_str(den)),
    }


def _grid_fields(approx, ctx) -> dict:
    table = approx.table
    return {
        "resolution": table.resolution,
        "c": [decimal_string(c, ctx.working_digits) if c else "0" for c in table.c],
        "rendered": "grid(delta=%s, order=%d, k_max=%d)"
        % (table.resolution, approx.order, table.k_max),
    }


def _read_spline(payload) -> SplineApproximant:
    return SplineApproximant(payload["order"], parse_polyexp(payload["terms"]))


def _read_taylor(payload) -> TaylorApproximant:
    return TaylorApproximant(payload["order"], parse_poly(payload["coefficients"]))


def _read_grid(payload):
    raise ValueError("grid payloads do not round-trip: their c values are decimal strings")


def _read_sqrt(payload) -> SqrtForm:
    form = parse_polyexp(payload["radicand"])
    terms = tuple((r, p) for r, p in form.terms if r != 0)
    return SqrtForm(payload["order"], form.poly_at(0).coeff(0), terms)


def _read_series(payload) -> ErfSeriesApproximant:
    base, tail = _read_spline(payload), parse_poly(payload["tail"])
    return ErfSeriesApproximant(payload["order"], base, payload["tail_terms"], tail)


def _read_gauss(payload) -> RationalFunctionApproximant:
    num, den = (parse_poly(payload[key]) for key in ("numerator", "denominator"))
    return RationalFunctionApproximant(payload["order"], num, den)


FAMILIES = {
    "spline": Family(lambda n, *_: build_spline(n), None, _spline_fields, _read_spline),
    "subinterval": Family(
        lambda n, m, *_: build_subinterval(n, m),
        "subintervals",
        lambda approx, ctx: {"subintervals": approx.subintervals, **_spline_fields(approx, ctx)},
        lambda p: SubintervalApproximant(p["order"], p["subintervals"], parse_polyexp(p["terms"])),
    ),
    "grid": Family(covering_grid, "resolution", _grid_fields, _read_grid),
    "sqrt": Family(lambda n, *_: build_sqrt(n), None, _sqrt_fields, _read_sqrt),
    "taylor": Family(lambda n, *_: taylor(n), None, _taylor_fields, _read_taylor),
    "series": Family(
        lambda n, tail_terms, *_: build_erf_series(n, tail_terms),
        "tail_terms",
        _series_fields,
        _read_series,
        default=2,
    ),
    "gauss_g": Family(lambda n, *_: build_gauss_g(n), None, _gauss_fields, _read_gauss),
    "gauss_h": Family(lambda n, *_: build_gauss_h(n), None, _gauss_fields, _read_gauss),
}


def build_approximant(args, ctx: PrecisionContext, interval):
    """Approximant from CLI flags on ``interval``; a flag its family does not take is a ValueError."""
    spec = FAMILIES[args.family]
    for flag in (family.flag for family in FAMILIES.values()):
        if flag not in (None, spec.flag) and getattr(args, flag) is not None:
            raise ValueError("--family %s takes no --%s" % (args.family, flag.replace("_", "-")))
    value = getattr(args, spec.flag) if spec.flag else None
    value = spec.default if value is None else value
    if spec.flag and value is None:
        raise ValueError("--family %s needs --%s" % (args.family, spec.flag.replace("_", "-")))
    return spec.build(args.order, value, interval, ctx)


def parse_gen_payload(payload: dict):
    """Rebuild the exact approximant from cmd_gen output; grid payloads raise ValueError."""
    if payload.get("schema") != SCHEMA:
        raise ValueError("unsupported schema %r" % payload.get("schema"))
    if payload.get("family") not in FAMILIES:
        raise ValueError("unknown family %r" % payload.get("family"))
    return FAMILIES[payload["family"]].read(payload)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


_ENCODE = json.JSONEncoder(default=frac_str).encode  # Fractions travel as "num/den"
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')  # the bytes json.dumps copies as they are


def _plain(text: str) -> bool:
    return text.isascii() and not text.encode().translate(None, _PLAIN)


def _json(value, pad: str = "\n"):
    """The pieces of json.dumps(value, indent=2, default=frac_str), for str keys.

    A string, or a list of strings, that needs no escapes (the formula, the "num/den"
    coefficients) is copied whole instead of escaped character by character.
    """
    inner = pad + "  "
    if type(value) is str and _plain(value):
        yield from ('"', value, '"')
    elif isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            yield ("," if i else "{") + inner + _ENCODE(key) + ": "
            yield from _json(item, inner)
        yield pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        if all(type(s) is str for s in value) and _plain("".join(value)):
            yield "[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + pad + "]"
            return
        for i, item in enumerate(value):
            yield ("," if i else "[") + inner
            yield from _json(item, inner)
        yield pad + "]"
    else:
        yield _ENCODE(value)


def cmd_gen(args) -> int:
    ctx = PrecisionContext(args.digits)
    approx = build_approximant(args, ctx, args.interval or (Fraction(0), Fraction(8)))
    descriptor = {"family": args.family, "order": args.order, "digits": ctx.working_digits}
    payload = {"schema": SCHEMA, **descriptor, **FAMILIES[args.family].fields(approx, ctx)}
    out, close = _open_out(args.out)
    out.writelines(_json(payload))
    out.write("\n")
    if close:
        out.close()
    return 0


def cmd_sweep(args) -> int:
    ctx = PrecisionContext(args.digits)
    interval = args.interval or (Fraction(0), Fraction(5))
    approx = build_approximant(args, ctx, interval)
    if not isinstance(approx, OddApproximant):  # g_n and h_n; their sweep is tables.gauss_sweep
        msg = "--family %s approximates e^(-x^2), not erf; see erfkit table 9"
        raise ValueError(msg % args.family)
    if args.transition == "auto":
        approx, _ = improved(approx, interval, args.points, ctx)
    elif args.transition not in (None, "none"):
        with ctx.workdps():
            try:
                x_o = as_mpf(args.transition)
            except ValueError as exc:
                msg = "--transition must be auto, none or a finite number, got %r"
                raise ValueError(msg % args.transition) from exc
        approx = PiecewiseApproximant(approx, x_o)
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
    rows = parse_rows(args.table, args.rows) if args.rows else None
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
    if args.steps < 1:
        raise ValueError("--steps must be >= 1, got %d" % args.steps)
    model = FilterModel(args.gamma, args.pole_freq) if args.app == "filter" else None
    ctx = PrecisionContext(args.digits)
    digits = ctx.working_digits
    steps = args.steps
    rows = []  # every row is computed before --out is opened, so an error leaves no file
    if args.app == "power":
        a0, a1 = args.amplitude_range or (Fraction(1, 100), Fraction(3))
        rows.append(
            ["a[%s..%s steps=%d digits=%d]" % (a0, a1, steps, digits), "P_closed", "P_quadrature"]
        )
        with ctx.workdps():
            for i in range(1, steps + 1):
                a = a0 + (a1 - a0) * Fraction(i, steps)
                p = output_power(a, ctx)
                q = output_power_quadrature(a, ctx)
                rows.append([str(a), mp_str(p, digits), mp_str(q, digits)])
    elif args.app == "harmonics":
        a0, a1 = args.amplitude_range or (Fraction(1, 10), Fraction(2))
        rows.append(
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
                rows.append(row)
    elif args.app == "filter":
        t0, t1 = args.t_range or (Fraction(0), Fraction(3))
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
        rows.append([header, "y"] + (["y_n", "re"] if approx else []))
        with ctx.workdps():
            for i in range(1, steps + 1):
                t = t0 + (t1 - t0) * Fraction(i, steps)
                y = filter_response_exact(model, t, ctx)
                row = [str(t), mp_str(y, digits)]
                if approx is not None:
                    yn = filter_response_approx(model, approx, t, ctx)
                    re = 1 - yn / y if y != 0 else mp.mpf(0)
                    row += [mp_str(yn, digits), mp_str(re, digits)]
                rows.append(row)
    out, close = _open_out(args.out)
    csv.writer(out).writerows(rows)
    if close:
        out.close()
    return 0


@cache  # built once per process (about 1 ms); parse_args leaves it unchanged
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
    p_apps.set_defaults(func=cmd_apps)
    apps = p_apps.add_subparsers(dest="app", required=True)
    for app in ("power", "harmonics", "filter"):  # each takes only its own flags
        p = apps.add_parser(app)
        if app == "filter":
            p.add_argument("--t-range", type=_parse_interval, dest="t_range")
            p.add_argument("--gamma", type=_parse_rational, default=Fraction(1, 2))
            p.add_argument("--pole-freq", type=_parse_rational, dest="pole_freq", default=Fraction(1))
            p.add_argument("--order", type=int, default=None)
        else:
            p.add_argument("--amplitude-range", type=_parse_interval, dest="amplitude_range")
        p.add_argument("--steps", type=int, default=60)
        p.add_argument("--digits", type=int, default=34)
        p.add_argument("--out", default=None, metavar="FILE")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # how erfkit rejects a flag value; report it as a usage error
        raise SystemExit("erfkit %s: %s" % (args.command, exc)) from exc


if __name__ == "__main__":
    sys.exit(main())
