"""erfkit: analytically closed-form erf approximants with exact rational
coefficients, a high-precision certification oracle, transition-point
optimization, and the derived applications (Gaussian approximants, residual
series, bound envelopes, harmonic distortion, filtered step response)."""

from .exact import (
    PolyExpSum,
    RationalPolynomial,
    hermite_table,
    integrate_odd,
    spline_coeff,
)
from .gauss import build_erf_series, build_gauss_g, build_gauss_h
from .grids import GridApproximant, build_grid_table, build_nonuniform_grid
from .oracle import CTX34, CTX70, PrecisionContext, bessel_i, erf_ref
from .spline import (
    build_interval_spline,
    build_spline,
    residual_derivative,
    residual_diagnostics,
)
from .sqrtform import (
    build_sqrt,
    complementary_demarcation,
    pi_constant_sequence,
    sqrt_transform,
)
from .subinterval import build_subinterval
from .transition import (
    PiecewiseApproximant,
    envelope,
    improved,
    optimize_transition,
    published_bounds,
    sweep,
    taylor,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
