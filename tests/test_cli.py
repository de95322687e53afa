import csv
import gc
import hashlib
import json
import io
import warnings
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath as mp
import pytest

from erfkit import (
    build_erf_series,
    build_gauss_g,
    build_gauss_h,
    build_spline,
    build_sqrt,
    build_subinterval,
    taylor,
)
from erfkit.cli import _json, main, parse_gen_payload
from erfkit.oracle import CTX34, erf_ref
from erfkit.render import frac_str
from erfkit.tables import _reb_ok, _xo_ok, parse_rows, reproduce_table


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_gen_spline_matches_printed_form():
    code, out = run_cli("gen", "--family", "spline", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "erfkit-approximant/1"
    assert payload["rendered"] == "(x - 1/30 x^3 + (x + 11/30 x^3 + 1/15 x^5) e^(-x^2))/sqrt(pi)"
    rates = {t["rate"]: t["coefficients"] for t in payload["terms"]}
    assert rates["0/1"] == ["0/1", "1/1", "0/1", "-1/30"]
    assert rates["1/1"] == ["0/1", "1/1", "0/1", "11/30", "0/1", "1/15"]


def test_gen_sqrt_rendered_string():
    code, out = run_cli("gen", "--family", "sqrt", "--order", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["rendered"] == "sqrt(3 - 2 e^(-x^2) - e^(-2 x^2))/sqrt(pi)"


def test_gen_usage_error_for_even_taylor():
    with pytest.raises(SystemExit):
        run_cli("gen", "--family", "taylor", "--order", "2")


# Exact parts of each rebuilt family, compared with == against the builder's.
EXACT_PARTS = {
    "spline": lambda a: a.form,
    "subinterval": lambda a: (a.subintervals, a.form),
    "sqrt": lambda a: (a.q0, a.radicand()),
    "taylor": lambda a: a.poly,
    "gauss_g": lambda a: (a.numerator, a.denominator),
    "gauss_h": lambda a: (a.numerator, a.denominator),
    "series": lambda a: (a.base.form, a.tail_terms, a.tail, a.form),
}


def test_gen_roundtrip_bit_for_bit():
    for family, extra, built in (
        ("spline", [], build_spline(3)),
        ("subinterval", ["--subintervals", "4"], build_subinterval(3, 4)),
        ("sqrt", [], build_sqrt(3)),
        ("gauss_h", [], build_gauss_h(3)),
        ("taylor", [], taylor(3)),
        ("gauss_g", [], build_gauss_g(3)),
        ("series", ["--tail-terms", "3"], build_erf_series(3, 3)),
        ("series", [], build_erf_series(3, 2)),
    ):
        code, out = run_cli("gen", "--family", family, "--order", "3", *extra)
        assert code == 0
        rebuilt = parse_gen_payload(json.loads(out))
        assert EXACT_PARTS[family](rebuilt) == EXACT_PARTS[family](built), family
        with CTX34.workdps():
            for xs in ("0.21", "1.7"):
                x = mp.mpf(xs)
                assert built.value(x, CTX34) == rebuilt.value(x, CTX34)


def test_gen_grid_payload_does_not_roundtrip():
    code, out = run_cli("gen", "--family", "grid", "--order", "2", "--resolution", "1/2")
    assert code == 0
    with pytest.raises(ValueError, match="decimal strings"):
        parse_gen_payload(json.loads(out))


@pytest.mark.parametrize(
    "value",
    [
        {"a": "plain text", "b": ["1/2", "-3/4"], "c": [], "d": {}, "e": 7, "f": Fraction(-5, 3)},
        {"quote": ['say "x"', "y"], "slash": ["a\\b"], "tab": ["a\tb"], "del": ["a\x7fb"]},
        {"accent": ["\u00e9"], "lists": [["1/2", "3/4"], ["x", 'y"'], [Fraction(1, 2), 2]]},
        {"terms": [{"rate": "0/1", "coefficients": ["0/1", "1/1"]}], "tuple": ("a", "b")},
        {"flags": [True, False, None, 0.5], "tail": (Fraction(1, 3), Fraction(-2, 7))},
        [],
        "top",
    ],
    ids=["plain", "escaped", "nested", "payload-shape", "scalars", "empty", "string"],
)
def test_json_writer_is_json_dumps(value):
    assert "".join(_json(value)) == json.dumps(value, indent=2, default=frac_str)


# sha256 of ``erfkit gen`` stdout for the families perfbench/golden.json does
# not pin, so any change to their JSON bytes shows here.
GEN_PINS = {
    ("spline", "4"): "c79d453f5d41947fec6d4951234a22a1645255ef29393b515bd9f84c7f048e37",
    ("taylor", "9"): "dec837da6fafda38dfa2c2ef498cfe7153b9b472dcfdc2a83e8ce9cdced4c009",
}


@pytest.mark.parametrize("family, order", sorted(GEN_PINS))
def test_gen_payload_bytes_pinned(family, order):
    code, out = run_cli("gen", "--family", family, "--order", order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_PINS[family, order]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "series", "--tail-terms", "0"], "tail_terms must be >= 1"),
        (["--family", "series", "--tail-terms", "-1"], "tail_terms must be >= 1"),
        (["--family", "spline", "--subintervals", "4"], "--family spline takes no --subintervals"),
        (["--family", "sqrt", "--resolution", "1/2"], "--family sqrt takes no --resolution"),
        (["--family", "taylor", "--tail-terms", "2"], "--family taylor takes no --tail-terms"),
        (["--family", "subinterval"], "--family subinterval needs --subintervals"),
        (["--family", "grid", "--resolution", "0"], "resolution must be positive"),
        (
            ["--family", "grid", "--resolution", "1/2", "--interval", "0:-3"],
            "interval end must be positive, got -3",
        ),
        (["--family", "spline", "--digits", "10"], "working_digits must be >= 16"),
    ],
    ids=[
        "tail-terms-0",
        "tail-terms-negative",
        "spline-subintervals",
        "sqrt-resolution",
        "taylor-tail-terms",
        "subinterval-missing-flag",
        "grid-zero-resolution",
        "grid-negative-end",
        "digits-10",
    ],
)
def test_gen_misuse_is_a_usage_error(argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--order", "3", *argv)
    assert str(exc.value.code).startswith("erfkit gen: ")
    assert message in str(exc.value.code)


def test_spline_order_out_of_range_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--family", "spline", "--order", "65")
    assert exc.value.code == "erfkit gen: spline order must be in 0..64, got 65"
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "sweep", "--family", "spline", "--order", "65", "--points", "20",
            "--out", str(tmp_path / "s.csv"),
        )
    assert exc.value.code == "erfkit sweep: spline order must be in 0..64, got 65"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sqrt", "--order", "-1"], "spline order must be in 0..64, got -1"),
        (["sqrt", "--order", "65"], "spline order must be in 0..64, got 65"),
        (["gauss_h", "--order", "-1"], "gauss_h order must be in 0..64, got -1"),
        (["gauss_h", "--order", "70"], "gauss_h order must be in 0..64, got 70"),
        (["grid", "--order", "-1", "--resolution", "1/2"], "grid order must be in 0..64, got -1"),
    ],
    ids=["sqrt-1", "sqrt65", "gauss_h-1", "gauss_h70", "grid-1"],
)
def test_gen_order_out_of_range_is_a_usage_error(argv, message, monkeypatch):
    def no_oracle(*args):
        raise AssertionError("the erf table was tabulated for an invalid order")

    monkeypatch.setattr("erfkit.grids.erf_ref", no_oracle)
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--family", *argv)
    assert exc.value.code == "erfkit gen: " + message


@pytest.mark.parametrize("family", ["gauss_g", "gauss_h"])
@pytest.mark.parametrize("transition", [None, "2", "auto"], ids=["plain", "x_o=2", "auto"])
def test_sweep_of_a_gaussian_family_is_a_usage_error(family, transition, tmp_path, monkeypatch):
    # g_n and h_n approximate e^(-x^2); an erf sweep of them would print meaningless errors
    def no_oracle(*args):
        raise AssertionError("the erf oracle was called for an e^(-x^2) family")

    monkeypatch.setattr("erfkit.transition.erf_ref", no_oracle)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", family, "--order", "4", "--points", "3", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *(["--transition", transition] if transition else []))
    # a str SystemExit code is printed to stderr and exits with status 1
    assert exc.value.code == (
        "erfkit sweep: --family %s approximates e^(-x^2), not erf; see erfkit table 9"
        % family
    )
    assert not out.exists()


def test_sweep_bad_grid_is_a_usage_error(tmp_path):
    # (1, 0] with 3 points puts x_3 on 0, where the relative error divides by erf(0)
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "sweep", "--family", "spline", "--order", "2", "--interval", "1:0", "--points", "3",
            "--out", str(tmp_path / "s.csv"),
        )
    assert exc.value.code == (
        "erfkit sweep: a sweep grid needs 0 <= a < b and at least 2 points, got (1, 0] with 3"
    )


def test_sweep_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _ = run_cli(
            "sweep", "--family", "spline", "--order", "4", "--interval", "0:5",
            "--points", "200", "--digits", "20", "--out", str(out),
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()
    rows = read_csv(out1)
    assert rows[0][0].startswith("x[a=0 b=5 N=200 digits=20")
    assert rows[0][1:] == ["re", "abs_re"]
    assert len(rows) == 201


def test_sweep_transition_auto(tmp_path):
    out = tmp_path / "t.csv"
    code, _ = run_cli(
        "sweep", "--family", "spline", "--order", "4", "--interval", "0:5",
        "--points", "500", "--transition", "auto", "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out)
    # beyond the transition the approximant is the constant 1
    last_x, last_re, _ = rows[-1]
    assert abs(float(last_re)) < 2e-3


@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
def test_sweep_rejects_bad_transition(value, tmp_path):
    # a NaN x_o would fail every comparison and sweep the constant 1
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "sweep", "--family", "spline", "--order", "2", "--points", "20",
            "--transition", value, "--out", str(tmp_path / "s.csv"),
        )
    assert exc.value.code not in (0, None)
    assert "--transition must be auto, none or a finite number" in str(exc.value.code)


def test_sweep_grid_tabulates_the_swept_interval(monkeypatch, tmp_path):
    # without --interval the sweep runs on (0, 5], so the grid covers b = 5:
    # floor(5 / (1/4)) + 2 = 22 oracle cells, not the 34 that b = 8 needs
    import erfkit.grids as grids

    cells = []
    monkeypatch.setattr(grids, "erf_ref", lambda x, ctx: cells.append(x) or erf_ref(x, ctx))
    code, _ = run_cli(
        "sweep", "--family", "grid", "--order", "2", "--resolution", "1/4", "--points", "20",
        "--out", str(tmp_path / "g.csv"),
    )
    assert code == 0
    assert len(cells) == 22
    rows = read_csv(tmp_path / "g.csv")
    assert rows[0][0] == "x[a=0 b=5 N=20 digits=34]"


def test_gen_grid_payload():
    code, out = run_cli("gen", "--family", "grid", "--order", "2", "--resolution", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolution"] == "1/2"
    assert payload["c"][0] == "0"
    assert payload["c"][1].startswith("5.204998778")


def test_table_command_pass_and_exit_code(tmp_path):
    out = tmp_path / "t7.csv"
    code, text = run_cli("table", "7", "--out", str(out))
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["table", "row", "computed", "printed", "status", "note"]
    assert all(r[4] == "pass" for r in rows[1:])
    assert "pass" in text


def test_table_row_subset():
    code, text = run_cli("table", "3", "--rows", "0,4")
    assert code == 0
    summary = [line for line in text.splitlines() if line.startswith("table 3")]
    assert len(summary) == 2
    assert all(line.endswith("pass") for line in summary)


def test_parse_rows_key_types():
    assert parse_rows("3", "0,4") == {0, 4}
    assert parse_rows("8", "0,extension") == {0, "extension"}
    assert parse_rows("9", "g:7,h:5") == {("g", 7), ("h", 5)}
    assert parse_rows("10", "grid n=3 d=3/4,sqrt n=20") == {"grid n=3 d=3/4", "sqrt n=20"}


@pytest.mark.parametrize(
    "table, rows", [("3", "5"), ("8", "ext"), ("9", "g:9"), ("9", "7"), ("10", "n=12")]
)
def test_unknown_row_is_an_error(table, rows):
    with pytest.raises(ValueError, match="has no row"):
        parse_rows(table, rows)
    with pytest.raises(SystemExit) as exc:
        run_cli("table", table, "--rows", rows)
    assert exc.value.code not in (0, None)


@pytest.mark.parametrize("table", ["11", 2, "x"])
def test_unknown_table_is_one_error(table):
    # both library entry points reject a table id outside 3..10 with one error
    for call in (lambda: parse_rows(table, "1"), lambda: reproduce_table(table)):
        with pytest.raises(ValueError, match="unknown table"):
            call()


def test_reproduce_table_builds_selected_rows_only(monkeypatch):
    import erfkit.tables as tables

    built = []
    monkeypatch.setattr(tables, "build_gauss_g", lambda n: built.append(("g", n)))
    monkeypatch.setattr(tables, "build_gauss_h", lambda n: built.append(("h", n)))
    monkeypatch.setattr(tables, "gauss_sweep", lambda *args: mp.mpf("3.75e-8"))
    (row,) = reproduce_table("9", {("h", 7)})
    assert built == [("h", 7)]
    assert (row.table, row.label, row.ok) == ("9", "h n=7", True)


def test_reproduce_table_rejects_unknown_row_keys():
    # string keys for an integer-keyed table used to select nothing and pass
    with pytest.raises(ValueError, match="has no row 0"):
        reproduce_table(8, rows={"0"})


@pytest.mark.parametrize("prec", [30, 53, 200])
def test_tolerance_verdicts_ignore_the_ambient_precision(prec):
    # values on the very edge of the 5% and one-step tolerances, made at 44 digits
    with CTX34.workdps():
        beyond_reb = mp.mpf(21) + mp.mpf(2) ** -40
        step = mp.mpf(2) ** -13
        edge_xo = mp.mpf("0.1") + step
        beyond_xo = mp.mpf("0.1") + step * (1 + mp.mpf("2e-9"))
    with mp.workprec(prec):
        assert _reb_ok(mp.mpf(21), "20") and _reb_ok(mp.mpf(19), "20")
        assert not _reb_ok(beyond_reb, "20")
        assert _xo_ok(edge_xo, "0.1", step) and not _xo_ok(beyond_xo, "0.1", step)


def test_apps_harmonics_csv_with_flagged_k7(tmp_path):
    out = tmp_path / "h.csv"
    code, _ = run_cli(
        "apps", "harmonics", "--amplitude-range", "1:2", "--steps", "1", "--digits", "20",
        "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2 and rows[1][0] == "2"
    assert rows[1][-1].endswith(",1")  # the printed k=7 form fails arbitration at a=2


def test_apps_power_csv(tmp_path):
    out = tmp_path / "p.csv"
    code, _ = run_cli(
        "apps", "power", "--amplitude-range", "1/2:2", "--steps", "4", "--digits", "20",
        "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)  # monotone increasing power


def test_apps_filter_csv(tmp_path):
    out = tmp_path / "f.csv"
    code, _ = run_cli(
        "apps", "filter", "--gamma", "1/2", "--pole-freq", "1", "--steps", "6",
        "--digits", "20", "--t-range", "0:3", "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 7
    ys = [float(r[1]) for r in rows[1:]]
    assert all(0 < y <= 1 + 1e-12 for y in ys)


@pytest.mark.parametrize(
    "flag, value, name",
    [("--gamma", "0", "gamma"), ("--pole-freq", "0", "f_p"), ("--gamma", "-1", "gamma")],
)
def test_apps_filter_rejects_nonpositive_parameters(flag, value, name, tmp_path):
    # a zero divided by zero in the closed form; a negative gamma printed negative responses
    with pytest.raises(SystemExit) as exc:
        run_cli("apps", "filter", flag, value, "--steps", "2", "--out", str(tmp_path / "f.csv"))
    assert exc.value.code == "erfkit apps: filter %s must be positive, got %s" % (name, value)


@pytest.mark.parametrize(
    "app, flags, message",
    [
        ("filter", ["--order", "65"], "spline order must be in 0..64, got 65"),
        ("filter", ["--t-range=-2:1"], "filter response defined for t >= 0"),
        ("power", ["--amplitude-range=-2:1"], "amplitude must be positive"),
    ],
    ids=["filter-order", "filter-negative-t", "power-negative-a"],
)
def test_apps_errors_leave_no_out_file(app, flags, message, tmp_path):
    # --out used to be opened first: the error left an empty file and an unclosed handle
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            run_cli("apps", app, *flags, "--steps", "2", "--out", str(out))
        code = exc.value.code
        del exc  # its traceback holds the frame that held the file
        gc.collect()
    assert code == "erfkit apps: " + message
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize(
    "app, flag, value",
    [
        ("power", "--order", "4"),
        ("power", "--t-range", "0:1"),
        ("harmonics", "--gamma", "0"),
        ("filter", "--amplitude-range", "1:2"),
    ],
)
def test_apps_reject_flags_of_another_app(app, flag, value, tmp_path, capsys):
    # the flag used to be parsed and ignored: filter swept t over 0..3 and exited 0
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("apps", app, flag, value, "--steps", "1", "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: %s %s" % (flag, value) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("app", ["power", "harmonics", "filter"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_apps_rejects_step_counts_below_one(app, steps, tmp_path):
    # a count below 1 used to write the header alone and exit 0
    with pytest.raises(SystemExit) as exc:
        run_cli("apps", app, "--steps", steps, "--out", str(tmp_path / "a.csv"))
    assert exc.value.code == "erfkit apps: --steps must be >= 1, got %s" % steps
