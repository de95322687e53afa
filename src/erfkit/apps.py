"""Power/harmonic distortion of an erf limiter and filtering of an erf step.

The closed forms below are long published transcriptions, so each one is
arbitrated against a quadrature oracle: composite trapezoid over one full
period (spectrally accurate for these entire periodic integrands), with the
node count doubled until successive results agree. Any closed form failing
arbitration is flagged and the oracle value governs acceptance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import mpmath as mp

from .exact import as_mpf
from .oracle import CTX34, PrecisionContext, bessel_i, erf_ref, sqrt_pi
from .spline import build_spline

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DistortionModel:
    """Sinusoid a*sin(2 pi f_o t) through an erf limiter; f_o only sets T = 1/f_o."""

    amplitude: object
    f_o: object = 1

    def power(self, ctx: PrecisionContext = CTX34):
        return output_power(self.amplitude, ctx)

    def harmonic(self, k: int, ctx: PrecisionContext = CTX34):
        return harmonic_levels(self.amplitude, k, ctx)


def output_power(a, ctx: PrecisionContext = CTX34):
    """Closed-form output power from the order-3 sqrt approximant.

    P(a) = 22/(7 pi) - (40/(21 pi)) I0(a^2/2)(1 - a^2/40) e^(-a^2/2)
         - (26/(21 pi)) I0(a^2)(1 + 5a^2/26 + 41a^4/1040 + a^6/260) e^(-a^2)
         - (a^2/(21 pi)) I1(a^2/2) e^(-a^2/2)
         + (37a^2/(140 pi)) I1(a^2)(1 + 43a^2/222 + 2a^4/111) e^(-a^2)
    """
    with ctx.workdps():
        am = as_mpf(a)
        if am <= 0:
            raise ValueError("amplitude must be positive")
        pi = mp.pi
        u = am * am
        eh = mp.exp(-u / 2)
        ef = mp.exp(-u)
        i0h = bessel_i(0, u / 2, ctx)
        i0f = bessel_i(0, u, ctx)
        i1h = bessel_i(1, u / 2, ctx)
        i1f = bessel_i(1, u, ctx)
        return (
            22 / (7 * pi)
            - 40 / (21 * pi) * i0h * (1 - u / 40) * eh
            - 26 / (21 * pi) * i0f * (1 + 5 * u / 26 + 41 * u**2 / 1040 + u**3 / 260) * ef
            - u / (21 * pi) * i1h * eh
            + 37 * u / (140 * pi) * i1f * (1 + 43 * u / 222 + 2 * u**2 / 111) * ef
        )


def _periodic_trapezoid(f, period, ctx: PrecisionContext, start_nodes: int):
    """Composite trapezoid over one period, doubling nodes until stable."""
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
            if n > 2**20:
                raise ArithmeticError("periodic quadrature failed to settle")


def output_power_quadrature(a, ctx: PrecisionContext = CTX34):
    """Oracle for the output power: mean of erf^2(a sin(2 pi t)) over a period.

    The integrand has period 1/2, so the rule integrates over [0, 1/2].
    """
    with ctx.workdps():
        am = as_mpf(a)
        two_pi = 2 * mp.pi

        def f(t):
            return erf_ref(am * mp.sin(two_pi * t), ctx) ** 2

        return _periodic_trapezoid(f, mp.mpf(1) / 2, ctx, 256) * 2


# The order-4 spline approximant y_4 (odd extension built in).
_Y4 = build_spline(4)


def harmonic_levels(a, k: int, ctx: PrecisionContext = CTX34):
    """Printed closed forms for c_{4,k}/sqrt(T), k in {1,3,5,7}; even k give 0.

    These are order-4-spline harmonic amplitudes, valid for 0 < a <= 2 where
    the base approximant holds 1e-3 accuracy. Transcriptions are arbitrated
    by harmonic_quadrature (see arbitrate_harmonics); the k=7 form fails
    arbitration as printed (its I1 term carries the wrong sign) and the
    quadrature value governs there.
    """
    if k in (0, 2, 4, 6):
        return mp.mpf(0)
    if k not in (1, 3, 5, 7):
        raise ValueError("harmonic index must be one of {1,3,5,7}, got %r" % k)
    with ctx.workdps():
        am = as_mpf(a)
        if am <= 0:
            raise ValueError("amplitude must be positive")
        u = am * am
        rp = sqrt_pi()
        r2 = mp.sqrt(2)
        eh = mp.exp(-u / 2)
        i0 = bessel_i(0, u / 2, ctx)
        i1 = bessel_i(1, u / 2, ctx)
        if k == 1:
            return (
                r2 * am / (2 * rp) * (1 - u / 24 + u**2 / 2016)
                + r2 * am / (2 * rp) * i0 * (1 + 11 * u / 24 + 11 * u**2 / 105 + u**3 / 70 + u**4 / 945) * eh
                - 5 * r2 * am / (6 * rp) * i1 * (1 + 1481 * u / 4200 + 38 * u**2 / 525 + 29 * u**3 / 3150 + u**4 / 1575) * eh
            )
        if k == 3:
            return (
                r2 * am**3 / (144 * rp) * (1 - u / 56)
                - 115 * r2 * am / (84 * rp) * i0 * (1 + 403 * u / 1380 + 6 * u**2 / 115 + 31 * u**3 / 5175 + 2 * u**4 / 5175) * eh
                + 115 * r2 / (21 * am * rp) * i1 * (1 + 8 * u / 23 + 163 * u**2 / 1840 + 76 * u**3 / 5175 + 11 * u**4 / 6900 + u**5 / 10350) * eh
            )
        if k == 5:
            return (
                r2 * am**5 / (40320 * rp)
                + 262 * r2 / (15 * am * rp) * i0 * (1 + 1943 * u / 7336 + 1485 * u**2 / 29344 + 73 * u**3 / 11004 + 13 * u**4 / 22008 + u**5 / 33012) * eh
                - 1048 * r2 / (15 * am**3 * rp) * i1 * (1 + 1943 * u / 7336 + 1201 * u**2 / 14672 + 5125 * u**3 / 352128 + 5 * u**4 / 2751 + 41 * u**5 / 264096 + u**6 / 132048) * eh
            )
        return (
            -6784 * r2 / (21 * am**3 * rp) * i0 * (1 + 779 * u / 3392 + 631 * u**2 / 13568 + 2047 * u**3 / 325632 + 25 * u**4 / 40704 + 17 * u**5 / 407040 + u**6 / 610560) * eh
            - 27136 * r2 / (21 * am**5 * rp) * i1 * (1 + 779 * u / 3392 + 1055 * u**2 / 13568 + 137 * u**3 / 10176 + 2269 * u**4 / 1302528 + 67 * u**5 / 407040 + u**6 / 92160 + u**7 / 2442240) * eh
        )


def y4_power_quadrature(a, ctx: PrecisionContext = CTX34):
    """Mean of y4^2 over a period: the total power carried by the harmonics."""
    with ctx.workdps():
        am = as_mpf(a)
        two_pi = 2 * mp.pi

        def f(t):
            return _Y4.value(am * mp.sin(two_pi * t), ctx) ** 2

        return _periodic_trapezoid(f, mp.mpf(1) / 2, ctx, 256) * 2


def harmonic_quadrature(a, k: int, ctx: PrecisionContext = CTX34):
    """Oracle for c_{4,k}/sqrt(T): sqrt(2) * integral over one period of y4 * sin(2 pi k t)."""
    if k % 2 == 0:
        return mp.mpf(0)
    with ctx.workdps():
        am = as_mpf(a)
        two_pi = 2 * mp.pi

        def f(t):
            return _Y4.value(am * mp.sin(two_pi * t), ctx) * mp.sin(two_pi * k * t)

        return mp.sqrt(2) * _periodic_trapezoid(f, mp.mpf(1), ctx, 4096)


def arbitrate_harmonics(a, ctx: PrecisionContext = CTX34) -> dict:
    """Compare each printed harmonic form with the quadrature oracle.

    Returns {k: (closed, quadrature, deviation, flagged)}; a flagged entry
    (relative deviation above 1e-3, the base approximant's accuracy) means the
    transcription fails arbitration and the oracle value governs.
    """
    with ctx.workdps():
        tol = mp.mpf("1e-3")
        report = {}
        for k in (1, 3, 5, 7):
            closed = harmonic_levels(a, k, ctx)
            ref = harmonic_quadrature(a, k, ctx)
            dev = abs(closed - ref) / abs(ref) if ref else abs(closed)
            flagged = bool(dev > tol)
            if flagged:
                log.warning(
                    "harmonic closed form k=%d fails arbitration at a=%s: dev=%s",
                    k,
                    mp.nstr(as_mpf(a), 6),
                    mp.nstr(dev, 4),
                )
            report[k] = (closed, ref, dev, flagged)
        return report


@dataclass(frozen=True)
class FilterModel:
    """Double-pole low-pass h(t) = t e^(-t/tau)/tau^2 driven by erf(t/gamma)."""

    gamma: object
    f_p: object

    def tau(self):
        return 1 / (2 * mp.pi * as_mpf(self.f_p))


def _filter_bracket(erf_like, model: FilterModel, t, ctx: PrecisionContext):
    """Shared closed form: erf_like replaces erf in the exact response."""
    gamma = as_mpf(model.gamma)
    tau = model.tau()
    tm = as_mpf(t)
    if tm < 0:
        raise ValueError("filter response defined for t >= 0")
    if tm == 0:
        return mp.mpf(0)
    g2t = gamma / (2 * tau)
    eg = mp.exp(g2t * g2t)
    bracket = (
        (gamma * gamma / (2 * tau) - (tm + tau))
        * eg
        * (erf_like(g2t) - erf_like(g2t - tm / gamma))
        - gamma / sqrt_pi() * eg * mp.exp(-((tm / gamma - g2t) ** 2))
        + gamma / sqrt_pi()
    )
    return erf_like(tm / gamma) + mp.exp(-tm / tau) / tau * bracket


def filter_response_exact(model: FilterModel, t, ctx: PrecisionContext = CTX34):
    """Exact step response via the oracle erf; y(0) = 0, y(inf) = 1."""
    with ctx.workdps():
        return _filter_bracket(lambda u: erf_ref(u, ctx), model, t, ctx)


def filter_response_approx(model: FilterModel, approx, t, ctx: PrecisionContext = CTX34):
    """Same closed form with erf replaced by an approximant (odd extension)."""
    with ctx.workdps():
        return _filter_bracket(lambda u: approx.value(u, ctx), model, t, ctx)


def filter_convolution_oracle(model: FilterModel, t, ctx: PrecisionContext = CTX34):
    """Direct numerical convolution of erf(t/gamma) with the impulse response."""
    with ctx.workdps():
        gamma = as_mpf(model.gamma)
        tau = model.tau()
        tm = as_mpf(t)

        def integrand(lam):
            return erf_ref(lam / gamma, ctx) * (tm - lam) * mp.exp(-(tm - lam) / tau) / tau**2

        return mp.quad(integrand, [0, tm / 2, tm])
