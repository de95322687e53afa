"""Operation catalogues, seeded input drawing and operation bodies.

Each workload is a list of slots. A slot fixes everything that sets the cost
of an operation (family, interval, digits, about how many points) and offers
a short band of orders, arguments or grid sizes taken from the paper's
tables; the first entry of every band is the published default. Seed 0 takes
every default in catalogue order; any other seed draws one entry per slot
and shuffles the slots. Slots that share a band key share one draw (the
certify-warm candidates of one grid all use the grid the seed drew). Bands
are kept narrow so that runs with different seeds do the same amount of work
and their timings can be compared.

Operations run inside the timed section; ``check_op`` runs after it and
compares against second opinions that never call the erfkit oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import mpmath as mp

WORKLOADS = ("certify-cold", "certify-warm", "generate")

APPS_DIGITS = 34
ARBITRATION_TOL = mp.mpf("1e-3")
FILTER_GAMMA = Fraction(1, 2)
FILTER_POLE = Fraction(1)


def _sweep(family, order, m, interval, digits, band):
    """certify-cold: one ``erfkit sweep --transition auto`` on its own grid."""
    sub = ":m=%d" % m if m else ""

    def make(points):
        return {"id": "sweep:%s:n=%d%s:%s:N=%d:d=%d" % (family, order, sub, interval, points, digits),
                "kind": "sweep_cli", "family": family, "order": order, "m": m,
                "interval": interval, "points": points, "digits": digits}

    return make, band


def _power(a):
    return {"id": "power:a=%s" % a, "kind": "power", "a": a}


def _filter(pick):
    t, order = pick
    return {"id": "filter:t=%s:n=%d" % (t, order), "kind": "filter", "t": t, "order": order}


# certify-warm: shared grids filled during set-up, then many candidates. The
# seed draws each grid's point count from a narrow band (same cost, other
# points); every candidate of that grid uses the drawn size.
WARM_GRIDS = {
    "0:8": ((0, 8), (300, 301, 302), 34),
    "0:12": ((0, 12), (100, 101, 102), 70),
    "0:5": ((0, 5), (300, 301, 302), 34),
}


def _certify(family, order, m, grid):
    interval, band, digits = WARM_GRIDS[grid]
    sub = ":m=%d" % m if m else ""

    def make(points):
        return {"id": "certify:%s:n=%d%s:%d:%d:N=%d:d=%d"
                % (family, order, sub, interval[0], interval[1], points, digits),
                "kind": "certify", "family": family, "order": order, "m": m,
                "interval": interval, "points": points, "digits": digits}

    return make, band, grid


def _table9(pick):
    tag, order = pick
    return {"id": "table9:%s:n=%d" % (tag, order), "kind": "table9", "tag": tag, "order": order}


def _gen(family):
    """generate: one ``erfkit gen`` payload, then ``parse_gen_payload``."""
    def make(pick):
        if family == "subinterval":
            (n, m), extra = pick, ["--subintervals", str(pick[1])]
        elif family == "series":
            (n, tail), extra = pick, ["--tail-terms", str(pick[1])]
        elif family == "grid":
            (n, delta), extra = pick, ["--resolution", pick[1]]
        else:
            n, extra = pick, []
        argv = ["--family", family, "--order", str(n)] + extra
        return {"id": "gen:" + ":".join(argv[1::2]), "kind": "gen_cli", "argv": argv}

    return make


def _sqrt_transform(pick):
    n, m = pick
    return {"id": "sqrt_transform:n=%d:m=%d" % (n, m), "kind": "sqrt_transform",
            "order": n, "m": m}


# (maker, band) or (maker, band, key). The first entry of each band is the
# default (seed 0); slots with the same key share one draw.
SLOTS = {
    # Every sweep slot has its own (interval, points, digits), so no two
    # operations of one process share a reference grid. Orders are the
    # published defaults and fixed, and the seed draws the point count from a
    # narrow band: drawn orders changed an operation's cost by up to 70%.
    # Point counts are small so that one operation takes about 0.1-0.2 s and
    # a run holds many rounds. The sqrt slot, the median operation, is fixed:
    # on its coarse (0,30] grid one more point moved its cost by up to 17%.
    # The power and filter slots carry the off-grid applications (the oracle
    # at quadrature nodes, away from any grid) and are fixed too: the other
    # published arguments cost 10-13% less.
    "certify-cold": [
        _sweep("spline", 4, None, "0:5", 34, (120, 121, 122)),
        _sweep("subinterval", 4, 4, "0:8", 34, (100, 101, 102)),
        _sweep("spline", 12, None, "0:8", 34, (90, 91, 92)),
        _sweep("subinterval", 16, 16, "0:12", 70, (30, 31, 32)),
        _sweep("sqrt", 6, None, "0:30", 34, (25,)),
        (_power, ("2",)),
        (_filter, (("1", 4),)),
    ],
    # Orders are the published rows and fixed: evaluation cost grows with the
    # order, so drawn orders made the seeds alone move op_s_p50 by 10-20%.
    # The seed draws the grid sizes instead. An odd number of slots puts the
    # median latency inside one slot.
    "certify-warm": [
        _certify("subinterval", 0, 4, "0:8"),
        _certify("subinterval", 4, 4, "0:8"),
        _certify("subinterval", 8, 4, "0:8"),
        _certify("subinterval", 16, 4, "0:8"),
        _certify("subinterval", 4, 16, "0:12"),
        _certify("subinterval", 8, 16, "0:12"),
        _certify("subinterval", 16, 16, "0:12"),
        _certify("spline", 4, None, "0:5"),
        _certify("spline", 10, None, "0:5"),
        _certify("spline", 16, None, "0:5"),
        (_table9, (("g", 4),)),
    ],
    # The largest form and the grid table (Table 7) are fixed, so every seed
    # pays for the same big form and tabulates the same points. The other
    # bands are neighbouring orders: most operations here take milliseconds,
    # and the median latency falls among them. Orders need not be printed
    # rows: any order inside a table's range may be drawn.
    "generate": [
        (_gen("subinterval"), ((32, 64),)),
        (_gen("subinterval"), ((16, 16), (15, 16), (17, 16))),
        (_sqrt_transform, ((16, 16), (15, 16), (17, 16))),
        (_sqrt_transform, ((2, 4), (1, 4), (3, 4))),
        (_gen("sqrt"), (24, 23, 25)),
        (_gen("sqrt"), (12, 11, 13)),
        (_gen("sqrt"), (6, 5, 7)),
        (_gen("series"), ((4, 3), (3, 3), (5, 3))),
        (_gen("series"), ((2, 2), (1, 2), (3, 2))),
        (_gen("gauss_g"), (12, 11, 13)),
        (_gen("gauss_h"), (12, 11, 13)),
        (_gen("grid"), ((4, "1/2"),)),
    ],
}


# Passes over the operations in one round (one process). certify-cold has
# one: a second pass would find its grids cached.
PASSES = {"certify-cold": 1, "certify-warm": 3, "generate": 3}


def draw(workload: str, seed: int) -> list:
    """Operations of one round, drawn from ``seed`` (seed 0: published rows)."""
    if workload not in SLOTS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    shared, ops = {}, []
    for i, (make, band, *key) in enumerate(SLOTS[workload]):
        key = key[0] if key else i
        if key not in shared:
            shared[key] = band[0] if seed == 0 else rng.choice(band)
        ops.append(make(shared[key]))
    if seed != 0:
        rng.shuffle(ops)
    return ops


def all_ops(workload: str) -> list:
    """Every operation any seed can draw (used to record golden digests)."""
    return [make(pick) for make, band, *_ in SLOTS[workload] for pick in band]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Operation bodies (timed)


def build_inner(ek, op):
    if op["family"] == "spline":
        return ek.build_spline(op["order"])
    if op["family"] == "subinterval":
        return ek.build_subinterval(op["order"], op["m"])
    if op["family"] == "sqrt":
        return ek.build_sqrt(op["order"])
    raise ValueError("no builder for %r" % op["family"])


def _capture_cli(ek, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ek.cli.main(argv)
    if rc not in (0, None):
        raise RuntimeError("erfkit %s exited %r" % (" ".join(argv), rc))
    return buf.getvalue()


def setup_state(ek, workload, ops):
    """Work a session does before its first request (warm: fill the grids)."""
    state = {}
    if workload == "certify-warm":
        grids = {(op["interval"], op["points"], op["digits"])
                 for op in ops if op["kind"] == "certify"}
        for interval, points, digits in sorted(grids):
            ek.transition.reference_grid(interval, points, ek.PrecisionContext(digits))
    state["model"] = ek.apps.FilterModel(FILTER_GAMMA, FILTER_POLE)
    return state


def run_op(ek, state, op) -> dict:
    """Run one operation; returns its output text, point count and objects for checks."""
    kind = op["kind"]
    if kind == "sweep_cli":
        argv = ["sweep", "--family", op["family"], "--order", str(op["order"])]
        if op["m"]:
            argv += ["--subintervals", str(op["m"])]
        argv += ["--interval", op["interval"], "--points", str(op["points"]),
                 "--digits", str(op["digits"]), "--transition", "auto"]
        return {"output": _capture_cli(ek, argv), "points": op["points"]}
    if kind == "certify":
        ctx = ek.PrecisionContext(op["digits"])
        inner = build_inner(ek, op)
        res = ek.transition.optimize_transition(inner, op["interval"], op["points"], ctx)
        piece = ek.transition.PiecewiseApproximant(inner, res.x_o)
        rep = ek.transition.sweep(piece, op["interval"], op["points"], ctx)
        text = json.dumps(
            {"x_o": mp.nstr(res.x_o, 8), "re_b": mp.nstr(res.re_b, 4), "sweep": rep.summary()},
            sort_keys=True,
        )
        return {"output": text, "points": op["points"], "result": res, "report": rep}
    if kind == "table9":
        (row,) = ek.tables.reproduce_table("9", {(op["tag"], op["order"])})
        text = json.dumps({"label": row.label, "computed": row.computed, "ok": row.ok},
                          sort_keys=True)
        return {"output": text, "points": 10000, "row": row}
    if kind == "gen_cli":
        text = _capture_cli(ek, ["gen"] + op["argv"])
        payload = json.loads(text)
        rebuilt = None
        if payload["family"] not in ("grid", "series"):
            rebuilt = ek.cli.parse_gen_payload(payload)
        elif payload["family"] == "series":
            rebuilt = (ek.render.parse_polyexp(payload["terms"]),
                       [ek.render.parse_frac(c) for c in payload["tail"]])
        # A grid form tabulates erf at each of its cells; other forms have no points.
        points = len(payload["c"]) - 1 if payload["family"] == "grid" else 0
        return {"output": text, "points": points, "payload": payload, "rebuilt": rebuilt}
    if kind == "sqrt_transform":
        form = ek.sqrt_transform(ek.build_subinterval(op["order"], op["m"]).form, op["order"])
        text = json.dumps({"q0": ek.render.frac_str(form.q0),
                           "radicand": ek.render.polyexp_payload(form.radicand())})
        rebuilt = ek.render.parse_polyexp(json.loads(text)["radicand"])
        return {"output": text, "points": 0, "form": form, "rebuilt": rebuilt}
    if kind == "power":
        ctx = ek.PrecisionContext(APPS_DIGITS)
        closed = ek.apps.output_power(op["a"], ctx)
        quad = ek.apps.output_power_quadrature(op["a"], ctx)
        with ctx.workdps():
            dev = abs(closed - quad) / abs(quad)
            text = "closed=%s quad=%s flag=%d" % (
                ek.render.mp_str(closed, APPS_DIGITS), ek.render.mp_str(quad, APPS_DIGITS),
                int(dev > ARBITRATION_TOL))
        return {"output": text, "points": 1, "closed": closed, "quad": quad, "dev": dev}
    if kind == "filter":
        ctx = ek.PrecisionContext(APPS_DIGITS)
        model = state["model"]
        approx = ek.build_spline(op["order"])
        exact = ek.apps.filter_response_exact(model, op["t"], ctx)
        oracle = ek.apps.filter_convolution_oracle(model, op["t"], ctx)
        approx_y = ek.apps.filter_response_approx(model, approx, op["t"], ctx)
        with ctx.workdps():
            text = "exact=%s oracle=%s approx=%s" % tuple(
                ek.render.mp_str(v, APPS_DIGITS) for v in (exact, oracle, approx_y))
        return {"output": text, "points": 2, "exact": exact, "oracle": oracle,
                "approx_y": approx_y, "approx": approx}
    raise ValueError("unknown operation kind %r" % kind)


# --------------------------------------------------------------------------
# Coefficient counts (outside the timed section)


def _poly_count(poly) -> int:
    return sum(1 for c in poly.coeffs if c)


def count_coeffs(obj) -> int:
    """Nonzero exact rational coefficients held by a generated object."""
    if hasattr(obj, "terms") and isinstance(getattr(obj, "terms"), tuple) and hasattr(obj, "rates"):
        return sum(_poly_count(p) for _, p in obj.terms)  # PolyExpSum
    if hasattr(obj, "coeffs") and isinstance(getattr(obj, "coeffs"), tuple):
        return _poly_count(obj)  # RationalPolynomial
    if hasattr(obj, "radicand"):
        return count_coeffs(obj.radicand())  # SqrtForm
    if hasattr(obj, "tail") and hasattr(obj, "base"):
        return count_coeffs(obj.base) + _poly_count(obj.tail)  # series
    if hasattr(obj, "form"):
        return count_coeffs(obj.form)
    if hasattr(obj, "numerator"):
        return _poly_count(obj.numerator) + _poly_count(obj.denominator)
    if hasattr(obj, "poly_alpha"):
        return _poly_count(obj.poly_alpha) + _poly_count(obj.poly_x)
    if hasattr(obj, "resolution") and hasattr(obj, "c"):
        return sum(1 for c in obj.c if c)  # GridTable
    return 0


def _payload_count(payload) -> int:
    """Nonzero rational coefficients serialised in a gen payload."""
    total = 0
    for key in ("terms", "radicand"):
        for term in payload.get(key, ()):
            total += sum(1 for c in term["coefficients"] if Fraction(c))
    for key in ("coefficients", "numerator", "denominator", "tail"):
        total += sum(1 for c in payload.get(key, ()) if Fraction(c))
    if "c" in payload:
        total += sum(1 for c in payload["c"] if c != "0")
    return total


def op_coeffs(ek, op, out) -> int:
    kind = op["kind"]
    if kind in ("sweep_cli", "certify"):
        return count_coeffs(build_inner(ek, op))
    if kind == "table9":
        build = ek.build_gauss_g if op["tag"] == "g" else ek.build_gauss_h
        return count_coeffs(build(op["order"]))
    if kind == "gen_cli":
        return _payload_count(out["payload"])
    if kind == "sqrt_transform":
        return count_coeffs(out["form"])
    if kind == "filter":
        return count_coeffs(out["approx"])
    return 0
