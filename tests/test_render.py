"""Decimal rendering on ints: the same strings as the Fraction rounding it replaced."""

import csv
import random
from fractions import Fraction

import mpmath as mp
import pytest
from render_reference import decimal_string_reference

from erfkit.cli import main
from erfkit.render import decimal_string, mp_str

DIGITS = [1, 2, 3, 5, 10, 16, 17, 34, 44, 70, 100]


def sample(seed):
    """mpf of 53 to 400 bits from 1e-300 to 1e+300, Fractions, ints, both signs, exact halves."""
    rng = random.Random(seed)
    values = []
    for _ in range(300):
        with mp.workprec(rng.choice([53, 113, 150, 240, 400])):
            v = mp.mpf(rng.random()) * mp.mpf(10) ** rng.randint(-300, 300)
        values.append(-v if rng.random() < 0.3 else v)
    values += [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30)) for _ in range(60)]
    values += [rng.randint(-10**50, 10**50) for _ in range(30)]
    # halves: 10^k (q + 1/2) at digit counts where q + 1/2 is the cut, q even and odd
    for q in (2, 3, 124, 125, 99, 10**33 + 4, 10**33 + 5):
        for k in (-40, -1, 0, 3):
            values += [Fraction(2 * q + 1, 2) * Fraction(10) ** k, -Fraction(2 * q + 1, 2) * Fraction(10) ** k]
    values += [0, Fraction(0), mp.mpf(0), 1, -1, 9, 10, 0.1, -2.5, "9.995", "0.0625", "-1e-300"]
    values += [Fraction(9995, 1000), Fraction(99999, 10**7), 10**300 - 1, Fraction(1, 10**300)]
    with mp.workprec(53):  # neighbours of powers of ten, where a digit count turns over
        for k in range(-300, 301, 13):
            _, man, exp, bc = (mp.mpf(10) ** k)._mpf_
            values += [mp.mpf((0, man + d, exp, bc)) for d in (-1, 0, 1)]
    return values


@pytest.mark.parametrize("seed", [0, 1])
def test_decimal_string_is_the_fraction_rounding(seed):
    for value in sample(seed):
        for digits in DIGITS:
            assert decimal_string(value, digits) == decimal_string_reference(value, digits), (value, digits)


def test_decimal_string_edges():
    assert decimal_string(Fraction(9995, 1000), 3) == "1.00e+01"  # the carry
    assert decimal_string(mp.mpf("9.995"), 3) == "9.99e+00"  # 9.995 is just below it in binary
    assert decimal_string(Fraction(25, 10), 1) == "2e+00" and decimal_string(Fraction(35, 10), 1) == "4e+00"
    assert decimal_string(Fraction(-1, 10**300), 2) == "-1.0e-300"
    assert decimal_string(0, 5) == decimal_string(mp.mpf(0), 5) == "0"
    for bad in (mp.nan, mp.inf, float("-inf"), "nan"):
        with pytest.raises(ValueError, match="non-finite"):
            decimal_string(bad, 10)
    with pytest.raises(ValueError):
        decimal_string(1, 0)


def test_mp_str_rounds_at_the_callers_precision():
    with mp.workdps(50):
        x = mp.mpf(1) / 3
        assert mp_str(x, 40) == "3.333333333333333333333333333333333333333e-01"
    assert mp_str(x, 40) == decimal_string_reference(mp.mpf(x), 40)  # 53 bits outside


def test_sweep_abs_re_is_re_without_its_sign(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", "subinterval", "--order", "2", "--subintervals", "4",
            "--interval", "0:5", "--points", "60", "--digits", "20", "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == 60 and any(re.startswith("-") for _, re, _ in rows)
    assert any(not re.startswith("-") for _, re, _ in rows)
    for _, re, abs_re in rows:
        assert abs_re == re.removeprefix("-")
