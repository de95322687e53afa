import csv
import json
import io
from contextlib import redirect_stdout

import mpmath as mp
import pytest

from erfkit.cli import main, parse_gen_payload
from erfkit.oracle import CTX34
from erfkit.tables import parse_rows, reproduce_table


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


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


def test_gen_roundtrip_bit_for_bit():
    for family, extra in (
        ("spline", []),
        ("subinterval", ["--subintervals", "4"]),
        ("sqrt", []),
        ("gauss_h", []),
    ):
        code, out = run_cli("gen", "--family", family, "--order", "3", *extra)
        assert code == 0
        rebuilt = parse_gen_payload(json.loads(out))
        from erfkit.cli import build_approximant
        from types import SimpleNamespace

        args = SimpleNamespace(
            family=family,
            order=3,
            subintervals=4 if family == "subinterval" else None,
            resolution=None,
            tail_terms=None,
            interval=None,
        )
        orig, _ = build_approximant(args, CTX34)
        with CTX34.workdps():
            for xs in ("0.21", "1.7"):
                x = mp.mpf(xs)
                assert orig.value(x, CTX34) == rebuilt.value(x, CTX34)


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
    rows = list(csv.reader(open(out1)))
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
    rows = list(csv.reader(open(out)))
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
    rows = list(csv.reader(open(out)))
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


def test_reproduce_table_rejects_unknown_row_keys():
    # string keys for an integer-keyed table used to select nothing and pass
    with pytest.raises(ValueError, match="has no row 0"):
        reproduce_table(8, rows={"0"})


def test_apps_harmonics_csv_with_flagged_k7(tmp_path):
    out = tmp_path / "h.csv"
    code, _ = run_cli(
        "apps", "harmonics", "--amplitude-range", "1:2", "--steps", "1", "--digits", "20",
        "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 2 and rows[1][0] == "2"
    assert rows[1][-1].endswith(",1")  # the printed k=7 form fails arbitration at a=2


def test_apps_power_csv(tmp_path):
    out = tmp_path / "p.csv"
    code, _ = run_cli(
        "apps", "power", "--amplitude-range", "1/2:2", "--steps", "4", "--digits", "20",
        "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(open(out)))
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
    rows = list(csv.reader(open(out)))
    assert len(rows) == 7
    ys = [float(r[1]) for r in rows[1:]]
    assert all(0 < y <= 1 + 1e-12 for y in ys)
