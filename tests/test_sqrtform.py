from fractions import Fraction as F

import mpmath as mp
import pytest

from erfkit.exact import PolyExpSum, RationalPolynomial
from erfkit.oracle import CTX34, erf_ref
from erfkit.sqrtform import (
    build_sqrt,
    complementary_demarcation,
    pi_constant_sequence,
    sqrt_transform,
)
from erfkit.subinterval import build_subinterval
from sqrt_recurrences import recurrence_sqrt

# pi-scaled radicand fixtures from the printed order-0..4 forms (the order-4
# bracket prints a second x^6 power where the generator yields x^8; generated
# value governs and is asserted here)
PRINTED_SQRT = {
    0: (F(3), [-2], [-1]),
    1: (F(19, 6), [-2], [F(-7, 6), 0, F(-1, 3)]),
    2: (F(63, 20), [F(-29, 15), 0, F(1, 15)], [F(-73, 60), 0, F(-13, 30), 0, F(-1, 15)]),
    3: (
        F(22, 7),
        [F(-40, 21), 0, F(2, 21)],
        [F(-26, 21), 0, F(-10, 21), 0, F(-2, 21), 0, F(-1, 105)],
    ),
    4: (
        F(377, 120),
        [F(-596, 315), 0, F(34, 315), 0, F(-1, 630)],
        [F(-3149, 2520), 0, F(-629, 1260), 0, F(-139, 1260), 0, F(-2, 135), 0, F(-1, 945)],
    ),
}


@pytest.mark.parametrize("n", sorted(PRINTED_SQRT))
def test_sqrt_forms_match_printed(n):
    q0, p1, p2 = PRINTED_SQRT[n]
    form = build_sqrt(n)
    assert form.q0 == q0
    assert form.terms[0] == (F(1), RationalPolynomial(p1))
    assert form.terms[1] == (F(2), RationalPolynomial(p2))


def test_pi_sequence_exact():
    assert pi_constant_sequence(6) == [
        F(3),
        F(19, 6),
        F(63, 20),
        F(22, 7),
        F(377, 120),
        F(174169, 55440),
        F(4528409, 1441440),
    ]


def test_pi_sequence_converges():
    seq = pi_constant_sequence(10)
    with mp.workdps(40):
        gaps = [abs(mp.mpf(q.numerator) / q.denominator - mp.pi) for q in seq]
        for nxt, cur in zip(gaps[1:], gaps[:-1]):
            assert nxt < cur
        # halves or better every two orders
        for i in range(len(gaps) - 2):
            assert gaps[i + 2] <= gaps[i] / 2


def test_alpha_beta_structure():
    for n in (2, 5, 8, 9):
        (r1, alpha), (r2, beta) = build_sqrt(n).terms
        assert (r1, r2) == (1, 2)
        assert alpha.degree == (n if n % 2 == 0 else n - 1)
        assert beta.degree == 2 * n
        assert alpha.is_even_poly() and beta.is_even_poly()


@pytest.mark.parametrize("n", range(41))
def test_recurrences_match_integration_transform(n):
    # the alpha/beta recurrences are the independent route to the transform of f_n
    assert build_sqrt(n) == recurrence_sqrt(n)


def test_radicand_vanishes_at_zero_exactly():
    for n in range(8):
        form = build_sqrt(n)
        rad = form.radicand()
        total = sum((poly.evaluate(0) for _, poly in rad.terms), F(0))
        assert total == 0
        assert form.value(0, CTX34) == 0


def test_radicand_nonnegative_on_dense_grid():
    with CTX34.workdps():
        for n in (0, 3, 6):
            form = build_sqrt(n)
            for i in range(1, 400):
                x = mp.mpf(20) * i / 400
                assert form.radicand_value(x, CTX34) >= 0


def test_limit_value_attained():
    with CTX34.workdps():
        for n in (0, 2, 5):
            form = build_sqrt(n)
            far = form.value(mp.mpf(10) ** 6, CTX34)
            assert mp.almosteq(far, form.limit_value(CTX34), rel_eps=mp.mpf("1e-30"))


def test_odd_extension():
    form = build_sqrt(2)
    with CTX34.workdps():
        assert form.value(mp.mpf(-1), CTX34) == -form.value(mp.mpf(1), CTX34)


def test_extension_to_subinterval_base():
    # the printed extension form: rates {1, 17/16, 5/4, 25/16, 2}, q0 = 128177/40800
    form = sqrt_transform(build_subinterval(1, 4).form, 1)
    assert form.q0 == F(128177, 40800)
    assert tuple(r for r, _ in form.terms) == (F(1), F(17, 16), F(5, 4), F(25, 16), F(2))
    assert form.terms[0][1] == RationalPolynomial([F(-1, 2)])
    assert form.terms[1][1] == RationalPolynomial([F(-16, 17)])
    assert form.terms[4][1] == RationalPolynomial([F(-25, 96), 0, F(-1, 48)])


def test_transform_rejects_even_bases():
    with pytest.raises(ValueError):
        sqrt_transform(PolyExpSum([(1, [1])]))


def test_complementary_demarcation():
    ec = complementary_demarcation(6)
    with CTX34.workdps():
        assert ec.value(0, CTX34) == 1
        crossing = ec.crossing(CTX34)
        # erf(x) = 1/sqrt(2) at x = 0.74373198514677
        assert mp.almosteq(crossing, mp.mpf("0.74373198514677"), abs_eps=mp.mpf("2e-5"))
        # e_C^2 + erf^2 stays within a few limit-defects of 1
        q0 = build_sqrt(6).q0
        defect = abs(mp.mpf(q0.numerator) / q0.denominator / mp.pi - 1)
        worst = mp.mpf(0)
        for i in range(1, 120):
            x = mp.mpf(4) * i / 120
            total = ec.value(x, CTX34) ** 2 + erf_ref(x, CTX34) ** 2
            worst = max(worst, abs(total - 1))
        assert worst <= 3 * defect
