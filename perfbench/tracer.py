"""Layer spans recorded from outside the program.

Each traced function is replaced, at every name an erfkit module looks it up
by, with a wrapper that opens a span on entry and closes it on exit. Spans
live in memory only. Every instant of the timed section is charged to the
innermost open span (its self time) or, with no span open, to
``unattributed``. A span carries several counter names (function, group,
group by precision); for each name, calls and inclusive busy time count only
the outermost span, so recursion and nesting are not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, counter names, layer). Names are looked up in every
# erfkit module, so aliases such as ``cli.run_sweep`` are wrapped too.
FUNCTIONS = [
    ("oracle", "erf_ref", ("oracle.erf_ref",), "oracle"),
    ("oracle", "bessel_i", ("oracle.bessel_i",), "oracle"),
    ("transition", "reference_grid", ("transition.reference_grid",), "oracle"),
    ("transition", "sweep", ("transition.sweep",), "search"),
    ("transition", "optimize_transition", ("transition.optimize_transition",), "search"),
    ("spline", "build_spline", ("gen.build_spline", "gen.build"), "generation"),
    ("spline", "build_interval_spline", ("gen.build_interval_spline", "gen.build"), "generation"),
    ("subinterval", "build_subinterval", ("gen.build_subinterval", "gen.build"), "generation"),
    ("sqrtform", "build_sqrt", ("gen.build_sqrt", "gen.build"), "generation"),
    ("sqrtform", "sqrt_transform", ("gen.sqrt_transform", "gen.build"), "generation"),
    ("gauss", "build_erf_series", ("gen.build_erf_series", "gen.build"), "generation"),
    ("gauss", "build_gauss_g", ("gen.build_gauss_g", "gen.build"), "generation"),
    ("gauss", "build_gauss_h", ("gen.build_gauss_h", "gen.build"), "generation"),
    ("grids", "build_grid_table", ("grids.build_grid_table", "gen.build"), "generation"),
    ("grids", "build_nonuniform_grid", ("gen.build_nonuniform_grid", "gen.build"), "generation"),
    ("cli", "main", ("cli.main",), "harness"),
    ("cli", "parse_gen_payload", ("cli.parse_gen_payload",), "harness"),
    ("tables", "reproduce_table", ("tables.reproduce_table",), "harness"),
    ("render", "mp_str", ("render.mp_str", "render"), "harness"),
    ("render", "decimal_string", ("render.decimal_string", "render"), "harness"),
    ("render", "polyexp_payload", ("render.polyexp_payload", "render"), "harness"),
    ("render", "parse_polyexp", ("render.parse_polyexp", "render"), "harness"),
    ("apps", "output_power_quadrature", ("apps.output_power_quadrature", "apps.quadrature"), "applications"),
    ("apps", "harmonic_quadrature", ("apps.harmonic_quadrature", "apps.quadrature"), "applications"),
    ("apps", "filter_convolution_oracle", ("apps.filter_convolution_oracle", "apps.quadrature"), "applications"),
    ("apps", "output_power", ("apps.output_power", "apps.closed_form"), "applications"),
    ("apps", "harmonic_levels", ("apps.harmonic_levels", "apps.closed_form"), "applications"),
    ("apps", "filter_response_exact", ("apps.filter_response_exact", "apps.closed_form"), "applications"),
    ("apps", "filter_response_approx", ("apps.filter_response_approx", "apps.closed_form"), "applications"),
    ("apps", "arbitrate_harmonics", ("apps.arbitrate_harmonics",), "applications"),
]

# (module, class, family): each approximant's ``value`` is the evaluation layer.
VALUE_METHODS = [
    ("spline", "SplineApproximant", "spline"),
    ("subinterval", "SubintervalApproximant", "subinterval"),
    ("sqrtform", "SqrtForm", "sqrt"),
    ("grids", "GridApproximant", "grid"),
    ("transition", "PiecewiseApproximant", "piecewise"),
    ("transition", "TaylorApproximant", "taylor"),
    ("gauss", "ErfSeriesApproximant", "series"),
    ("gauss", "RationalFunctionApproximant", "gauss"),
    ("spline", "IntervalSpline", "interval_spline"),
]

LAYERS = ("oracle", "evaluation", "search", "generation", "harness", "applications")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stack = []
        self.last = 0.0
        self.self_time = defaultdict(float)
        self.layer_time = defaultdict(float)
        self.unattributed = 0.0
        self.depth = defaultdict(int)
        self.opened = {}
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _charge(self, now):
        if self.stack:
            key, layer = self.stack[-1]
            self.self_time[key] += now - self.last
            self.layer_time[layer] += now - self.last
        else:
            self.unattributed += now - self.last
        self.last = now

    def enter(self, names, layer):
        now = self.clock()
        self._charge(now)
        self.stack.append((names[0], layer))
        for name in names:
            if not self.depth[name]:
                self.opened[name] = now
                self.calls[name] += 1
            self.depth[name] += 1

    def exit(self, names):
        now = self.clock()
        self._charge(now)
        self.stack.pop()
        for name in names:
            self.depth[name] -= 1
            if not self.depth[name]:
                self.busy[name] += now - self.opened[name]

    def begin(self):
        self.active = True
        self.last = self.clock()

    def end(self):
        self._charge(self.clock())
        self.active = False


def _span(tracer, func, names_of, layer, after=None):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        names = names_of(args, kwargs)
        before = tracer.calls["oracle.erf_ref"]
        tracer.enter(names, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(names)
        if after is not None:
            after(tracer, before, result)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", "wrapper")
    return wrapper


def _after_reference_grid(tracer, before, result):
    if tracer.calls["oracle.erf_ref"] > before:
        tracer.counts["transition.reference_grid.misses"] += 1


def _after_build(count_coeffs):
    def after(tracer, before, result):
        if not tracer.depth["gen.build"]:
            tracer.counts["gen.coeffs"] += count_coeffs(result)

    return after


def _ctx_digits(args, kwargs):
    ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
    return 34 if ctx is None else ctx.working_digits


def install(tracer, count_coeffs):
    """Wrap every traced function and ``value`` method of the imported erfkit."""
    modules = [m for name, m in sys.modules.items()
               if (name == "erfkit" or name.startswith("erfkit.")) and m is not None]
    for mod_name, attr, names, layer in FUNCTIONS:
        func = getattr(sys.modules["erfkit." + mod_name], attr)
        after = None
        if attr == "reference_grid":
            after = _after_reference_grid
        elif names[-1] == "gen.build":
            after = _after_build(count_coeffs)
        wrapper = _span(tracer, func, lambda a, k, n=names: n, layer, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapper)
    for mod_name, cls_name, family in VALUE_METHODS:
        cls = getattr(sys.modules["erfkit." + mod_name], cls_name)

        def names_of(args, kwargs, family=family):
            return ("eval." + family, "eval.value", "eval.value.d%d" % _ctx_digits(args, kwargs))

        cls.value = _span(tracer, cls.value, names_of, "evaluation")


def _per_call_us(tracer, name):
    calls = tracer.calls.get(name, 0)
    return tracer.busy.get(name, 0.0) / calls * 1e6 if calls else 0.0


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced round whose timed section lasted ``wall`` s."""
    calls, busy, self_time, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    grid_calls = calls.get("transition.reference_grid", 0)
    misses = counts.get("transition.reference_grid.misses", 0)
    out = {
        "oracle.erf_ref.calls": calls.get("oracle.erf_ref", 0),
        "oracle.erf_ref.busy_s": busy.get("oracle.erf_ref", 0.0),
        "oracle.erf_ref.us_per_call": _per_call_us(tracer, "oracle.erf_ref"),
        "transition.reference_grid.calls": grid_calls,
        "transition.reference_grid.misses": misses,
        "transition.reference_grid.hit_ratio": (grid_calls - misses) / grid_calls if grid_calls else 0.0,
        "transition.reference_grid.busy_s": busy.get("transition.reference_grid", 0.0),
        "oracle.bessel_i.calls": calls.get("oracle.bessel_i", 0),
        "oracle.bessel_i.busy_s": busy.get("oracle.bessel_i", 0.0),
        "eval.value.calls": calls.get("eval.value", 0),
        "eval.value.busy_s": busy.get("eval.value", 0.0),
        "eval.value.us_per_call.d34": _per_call_us(tracer, "eval.value.d34"),
        "eval.value.us_per_call.d70": _per_call_us(tracer, "eval.value.d70"),
    }
    for family in ("spline", "subinterval", "sqrt", "grid", "piecewise", "gauss"):
        out["eval.%s.us_per_call" % family] = _per_call_us(tracer, "eval." + family)
    out.update({
        "transition.sweep.self_s": self_time.get("transition.sweep", 0.0),
        "transition.optimize_transition.self_s": self_time.get("transition.optimize_transition", 0.0),
        "gen.build.calls": calls.get("gen.build", 0),
        "gen.build.busy_s": busy.get("gen.build", 0.0),
        "gen.coeffs": counts.get("gen.coeffs", 0),
        "grids.build_grid_table.busy_s": busy.get("grids.build_grid_table", 0.0),
        "render.busy_s": busy.get("render", 0.0),
        "cli.main.self_s": self_time.get("cli.main", 0.0),
        "cli.parse_gen_payload.busy_s": busy.get("cli.parse_gen_payload", 0.0),
        "tables.reproduce_table.self_s": self_time.get("tables.reproduce_table", 0.0),
        "apps.quadrature.busy_s": busy.get("apps.quadrature", 0.0),
        "apps.closed_form.busy_s": busy.get("apps.closed_form", 0.0),
        "trace.unattributed_frac": tracer.unattributed / wall if wall else 0.0,
    })
    for layer in LAYERS:
        out["layer.%s.self_frac" % layer] = tracer.layer_time.get(layer, 0.0) / wall if wall else 0.0
    return out


# Metrics that are counts: identical in every traced round of one input.
COUNT_METRICS = (
    "oracle.erf_ref.calls",
    "transition.reference_grid.calls",
    "transition.reference_grid.misses",
    "oracle.bessel_i.calls",
    "eval.value.calls",
    "gen.build.calls",
    "gen.coeffs",
    "transition.ref_grid_cache.points",
)
