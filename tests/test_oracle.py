import hashlib
import random
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
from erfkit import apps
from erfkit.exact import as_mpf
from erfkit.grids import GridApproximant, build_grid_table, build_nonuniform_grid
from erfkit.oracle import CTX34, CTX70, PrecisionContext, bessel_i, erf_ref
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
    "nonuniform": lambda: GridApproximant(2, build_nonuniform_grid([Fraction(1, 3), 1, 2])),
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


def erf_ref_mpf(x, ctx):
    """The confluent series summed on mpf values: the reference erf_ref must equal bit for bit."""
    with ctx.workdps():
        xm = as_mpf(x)
        if xm < 0:
            return -erf_ref_mpf(-xm, ctx)
        if xm == 0:
            return mp.mpf(0)
        eps = mp.mpf(10) ** (-ctx.total_digits)
        t = 2 * xm * xm
        term = xm
        total = term
        n = 0
        while True:
            ratio = t / (2 * n + 3)
            term = term * ratio
            assert term > 0
            total += term
            n += 1
            if ratio < mp.mpf(1) / 2 and term < eps * total:
                break
        return 2 * mp.exp(-xm * xm) * total / mp.sqrt(mp.pi)


def oracle_points(ctx, seed):
    """Grids on (0,5], (0,8], (0,12] and (0,30], random and dyadic x, and extremes."""
    rng = random.Random(seed)
    with ctx.workdps():
        grids = ((5, 100), (8, 100), (12, 60), (30, 30))
        pts = [mp.mpf(b) * i / n for b, n in grids for i in range(1, n + 1)]
        pts += [mp.mpf(10) ** rng.uniform(-30, mp.log10(40)) for _ in range(40)]
        pts += [mp.ldexp(rng.randrange(1, 2**12), -rng.randrange(7, 30)) for _ in range(20)]
        pts += [mp.mpf("1e-40"), mp.ldexp(1, -200), mp.mpf(40), mp.mpf(60), mp.mpf(-3) / 2]
    return pts


@pytest.mark.parametrize(
    "ctx", [PrecisionContext(16), CTX34, CTX70, PrecisionContext(100)], ids=["d16", "d34", "d70", "d100"]
)
def test_erf_ref_is_the_mpf_series_bit_for_bit(ctx):
    for x in oracle_points(ctx, ctx.working_digits):
        assert erf_ref(x, ctx)._mpf_ == erf_ref_mpf(x, ctx)._mpf_, x
    # an mpf is rounded at ctx's precision whatever precision it was made at; the
    # sign and zero are read from its tuple; other types convert through as_mpf
    rng = random.Random(ctx.working_digits)
    args = [0, 7, -3, "0.1", "-2.75", Fraction(1, 3), Fraction(-22, 7), 0.1, -1.5, 1e-30, -0.0]
    for prec in (53, ctx.prec, 2 * ctx.prec):
        with mp.workprec(prec):
            args += [mp.mpf(1) / 3, mp.mpf(0), mp.mpf("1e-30"), -mp.mpf("1e-30")]
            args += [mp.mpf(rng.uniform(-12, 12)) / 7 for _ in range(12)]
    for x in args:
        assert erf_ref(x, ctx)._mpf_ == erf_ref_mpf(x, ctx)._mpf_, x
    for bad in (mp.nan, mp.inf, -mp.inf, float("nan"), float("-inf"), "inf"):
        with pytest.raises(ValueError, match="expected a finite number"):
            erf_ref(bad, ctx)


def test_erf_ref_rounds_at_the_precision_of_workdps():
    for digits in range(16, 101):
        ctx = PrecisionContext(digits)
        with ctx.workdps():
            assert ctx.prec == mp.mp.prec, digits


# sha256 of erf_ref(x)._mpf_ over oracle_points(ctx, ctx.working_digits),
# recorded while the series loop still rounded through libmp.from_man_exp
ERF_REF_PINS = {
    16: "f6719ee0d7c316267dbf81f58bbbc7468d027b4858f67b8661cfdbcbc5365a65",
    34: "d129cfcad5cd13bbd07d6e376efcc37da38945889b55c2f83f4829d6f651eb5e",
    70: "d945915dab1d66516d784bb5a9144d899f6c1e633532a7d72646179acb2a4aa3",
    100: "359eb266e7cb5ab7a6d6831b90780f8ffb1346c577fe188454603a32cc925e83",
}


@pytest.mark.parametrize(
    "ctx", [PrecisionContext(16), CTX34, CTX70, PrecisionContext(100)], ids=["d16", "d34", "d70", "d100"]
)
def test_erf_ref_values_pinned_bit_for_bit(ctx):
    digest = hashlib.sha256()
    for x in oracle_points(ctx, ctx.working_digits):
        digest.update(b"%d %d %d %d\n" % erf_ref(x, ctx)._mpf_)
    assert digest.hexdigest() == ERF_REF_PINS[ctx.working_digits]


def stopping_points(ctx, seed):
    """Random x on (0, 40); x = sqrt(d)/2 and its two neighbours, so that ratio = 2x^2/d
    sits at 1/2 on the term where the stopping rule starts; dyadic x of <= 8 bits."""
    rng = random.Random(seed)
    with ctx.workdps():
        pts = [40 * mp.mpf(rng.random()) for _ in range(16)]
        for d in (3, 5, 7, 9, 11, 13, 25, 51, 99, 101, 1001, 4001):
            _, man, exp, bc = (mp.sqrt(d) / 2)._mpf_
            shift = mp.mp.prec - bc  # one ulp of sqrt(d)/2 is 2^(exp - shift)
            pts += [mp.ldexp((man << shift) + k, exp - shift) for k in (-1, 0, 1)]
        pts += [mp.ldexp(rng.randrange(1, 256), -rng.randrange(3, 13)) for _ in range(16)]
    return pts


@pytest.mark.parametrize("digits", [16, 34, 44, 70, 100])
def test_erf_ref_stopping_rule_is_the_mpf_series(digits):
    ctx = PrecisionContext(digits)
    for x in stopping_points(ctx, 1000 + digits):
        assert erf_ref(x, ctx)._mpf_ == erf_ref_mpf(x, ctx)._mpf_, x


def trapezoid_reference(f, period, ctx, start_nodes):
    """The doubling loop that evaluates every node of every level."""
    with ctx.workdps():
        tol = mp.mpf(10) ** (-(ctx.working_digits + 2))
        n = start_nodes
        prev = None
        while True:
            h = mp.mpf(period) / n
            total = mp.fsum(f(i * h) for i in range(n)) * h
            if prev is not None and abs(total - prev) <= tol * max(1, abs(total)):
                return total
            prev = total
            n *= 2


def test_periodic_trapezoid_keeps_its_nodes(monkeypatch):
    calls = []
    monkeypatch.setattr(apps, "erf_ref", lambda x, ctx: calls.append(x) or erf_ref(x, ctx))
    power = apps.output_power_quadrature(2, CTX34)
    # 256 nodes, then the 256 odd nodes of the doubled rule: 512, of which 98 repeat an
    # earlier node's argument bit for bit (t and 1/2 - t round to the same sine)
    assert len(calls) == 414 and len(set(calls)) == len(calls)
    with CTX34.workdps():
        two_pi = 2 * mp.pi
        ref = trapezoid_reference(
            lambda t: erf_ref(2 * mp.sin(two_pi * t), CTX34) ** 2, mp.mpf(1) / 2, CTX34, 256
        ) * 2
    assert power._mpf_ == ref._mpf_


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


@pytest.mark.xfail(
    strict=True,
    reason="1 - erf_ref(12) is -1.4e-44 and 1 - erf_ref(25) is -5.3e-44 at 34 digits, "
    "where erfc is below 1e-64: the large-x exit of ROADMAP item 2 (return 1 once erfc "
    "is below half an ulp) will mend it and re-record the goldens it moves",
)
def test_erf_ref_never_exceeds_one():
    with CTX34.workdps():
        assert [x for x in (12, 25) if erf_ref(x, CTX34) > 1] == []


def test_bessel_fixtures():
    assert bessel_i(0, 0, CTX34) == 1
    assert bessel_i(1, 0, CTX34) == 0
    # frozen from independent 50-digit summation, cross-checked at doubled precision
    with mp.workdps(60):
        v = bessel_i(0, 1, PrecisionContext(50))
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


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(10)
    assert CTX70.working_digits == 70
