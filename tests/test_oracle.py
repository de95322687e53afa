from fractions import Fraction

import mpmath as mp
import pytest

from erfkit import (
    build_erf_series,
    build_gauss_g,
    build_spline,
    build_sqrt,
    build_subinterval,
    taylor,
)
from erfkit.grids import GridApproximant, build_grid_table, build_nonuniform_grid
from erfkit.oracle import CTX34, CTX70, PrecisionContext, bessel_i, erf_ref, relative_error
from erfkit.transition import EnvelopePair, PiecewiseApproximant, published_bounds


def test_erf_ref_table_values():
    # erf(1/2) and erf(3) - erf(5/2) as tabulated to 10 digits
    v = erf_ref(mp.mpf(1) / 2, CTX34)
    assert mp.almosteq(v, mp.mpf("0.5204998778"), abs_eps=mp.mpf("1e-10"))
    d = erf_ref(3, CTX34) - erf_ref(mp.mpf(5) / 2, CTX34)
    assert mp.almosteq(d, mp.mpf("3.848615204e-4"), rel_eps=mp.mpf("1e-9"))


def test_erf_ref_zero_and_odd_symmetry():
    assert erf_ref(0, CTX34) == 0
    with CTX34.workdps():  # negation must not re-round below working precision
        assert erf_ref(-1, CTX34) == -erf_ref(1, CTX34)


def test_erf_ref_rejects_nonfinite():
    with pytest.raises(ValueError):
        erf_ref(mp.inf, CTX34)
    with pytest.raises(ValueError):
        erf_ref(mp.nan, CTX34)


FAMILIES = {
    "spline": lambda: build_spline(2),
    "subinterval": lambda: build_subinterval(1, 4),
    "series": lambda: build_erf_series(1, 2),
    "sqrt": lambda: build_sqrt(2),
    "gauss_g": lambda: build_gauss_g(2),
    "taylor": lambda: taylor(3),
    "grid": lambda: GridApproximant(2, build_grid_table(Fraction(1, 2), 16)),
    "piecewise": lambda: PiecewiseApproximant(build_spline(4), 2),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("x", [mp.nan, mp.inf, -mp.inf, float("nan")])
def test_value_rejects_nonfinite(family, x):
    with pytest.raises(ValueError, match="finite"):
        FAMILIES[family]().value(x, CTX34)


# Every entry point that takes a number from outside, as a function of it.
ENTRY_POINTS = {
    **{name: (lambda x, make=make: make().value(x, CTX34)) for name, make in FAMILIES.items()},
    "erf_ref": lambda x: erf_ref(x, CTX34),
    "bessel_i": lambda x: bessel_i(1, x, CTX34),
    "published_bounds": lambda x: [published_bounds(x, w, CTX34) for w in ("chu", "neuman", "yang")],
    "envelope_eps_b": lambda x: EnvelopePair(build_spline(2), x).lower(1, CTX34),
    "nonuniform_knots": lambda x: build_nonuniform_grid([x, 1], CTX34).partial,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_fraction_converts_at_working_precision(name):
    with CTX34.workdps():
        third = mp.mpf(1) / 3
    assert ENTRY_POINTS[name](Fraction(1, 3)) == ENTRY_POINTS[name](third)


def test_erf_ref_double_precision_consistency():
    # d working digits vs 2d agree to d digits at stress points
    for x in ("0.1", "1", "5", "12"):
        lo = erf_ref(mp.mpf(x), CTX34)
        hi = erf_ref(mp.mpf(x), CTX34.doubled())
        with CTX34.doubled().workdps():
            assert abs(1 - lo / hi) < mp.mpf(10) ** (-33)


def test_erf_ref_matches_independent_implementation():
    with mp.workdps(40):
        for x in ("0.25", "1.5", "4.0"):
            assert mp.almosteq(
                erf_ref(mp.mpf(x), CTX34), mp.erf(mp.mpf(x)), rel_eps=mp.mpf("1e-33")
            )


def test_erf_ref_monotone_and_below_one():
    # at 34 digits erf rounds to exactly 1 past x ~ 8.7, so the strict checks
    # run where the gap to 1 is representable; x = 12 is checked at 70 digits
    with CTX34.workdps():
        prev = mp.mpf(-1)
        for i in range(1, 31):
            x = mp.mpf(i) / 5
            v = erf_ref(x, CTX34)
            assert v > prev
            assert v < 1
            prev = v
    with CTX70.workdps():
        assert erf_ref(12, CTX70) < 1


def test_bessel_fixtures():
    assert bessel_i(0, 0, CTX34) == 1
    assert bessel_i(1, 0, CTX34) == 0
    # frozen from independent 50-digit summation, cross-checked at doubled precision
    with mp.workdps(60):
        v = bessel_i(0, 1, PrecisionContext(50, 10))
        frozen = mp.mpf("1.2660658777520083355982446252147175376076703113550")
        assert mp.almosteq(v, frozen, rel_eps=mp.mpf("1e-48"))


def test_bessel_matches_independent_implementation():
    with mp.workdps(40):
        for order in (0, 1):
            for z in ("0.5", "2", "7.5"):
                assert mp.almosteq(
                    bessel_i(order, mp.mpf(z), CTX34),
                    mp.besseli(order, mp.mpf(z)),
                    rel_eps=mp.mpf("1e-33"),
                )


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(2, 1, CTX34)
    with pytest.raises(ValueError):
        bessel_i(0, -1, CTX34)


def test_relative_error():
    assert relative_error(1, 2) == mp.mpf("0.5")
    assert relative_error(2, 2) == 0
    with pytest.raises(ValueError):
        relative_error(1, 0)


def test_relative_error_takes_fractions_and_rejects_nonfinite():
    assert relative_error(Fraction(1, 2), Fraction(1, 4)) == -1
    with pytest.raises(ValueError, match="finite"):
        relative_error(mp.nan, 1)


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(10, 10)
    with pytest.raises(ValueError):
        PrecisionContext(34, 5)
    assert CTX70.working_digits == 70
