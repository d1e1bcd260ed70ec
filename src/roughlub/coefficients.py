"""Homogenized lubrication coefficients for a rough sliding surface.

Roughness enters the effective thin-film model through a single scalar
intensity ``N`` (the cell average of the squared gradient of the oscillating
gap perturbation).  The pressure-driven (Poiseuille) term ``h^3/12`` gets
multiplied by ``A(N)`` and the shear-driven (Couette) term ``h/2`` gets
replaced by ``h * B(N)``, where

    A(N) = (12/N) * (e^{N/2} * I2 - 1) - (12/N) * (e^{N/2} - 1) * I3 / I1,
    B(N) = (1/N) * (e^{N/2} - 1) / I1,

built from the three Gaussian-kernel integrals

    I1(N) = int_0^1 exp( N s^2 / 2) ds          (growth_integral)
    I2(N) = int_0^1 exp(-N t^2 / 2) dt          (decay_integral)
    I3(N) = int_0^1 int_0^s exp(N (s^2 - t^2)/2) dt ds   (triangle_integral)

With r = sqrt(N/2) these have closed forms in Dawson's integral and the
scaled complementary error function erfcx (DLMF section 7):

    I1 = e^{N/2} dawsn(r) / r,     I2 = sqrt(pi)/(2r) erf(r),
    I3 = sqrt(pi)/(2r) (I1 - E),   E = int_0^1 erfcx(r s) ds,
    A  = (12/N) [sqrt(pi/2N) (1 - erfcx(r) + (1 - e^{-N/2}) E r / dawsn(r)) - 1].

``coefficients(N)`` is the one evaluation of A and B; ``poiseuille_coeff``
and ``couette_coeff`` read its fields.  It computes each kernel once per call.
Above ``_N_LARGE`` = 10 it uses these forms, with E on a fixed 64-node
Gauss-Legendre rule and one dawsn(r) shared by A and B.  At or below it, I1
(``growth_integral``), I2 - 1 and I3 are that same fixed rule applied to the
defining integrals (numpy only), and A keeps the grouping
12 (em I2 + (I2 - 1) - em I3 / I1) / N with em = e^{N/2} - 1, in which every
term vanishes linearly with N.  I2 is the erf form at every N.

A flat surface, N = 0, recovers the classical A = 1, B = 1/2.  The 1/N
prefactors are removable singularities: below ``N_SWITCH`` the Taylor forms
A = 1 + N/20 + O(N^2), B = 1/2 + N/24 + O(N^2) replace the quotient form,
which would lose all significant digits.

``scipy.special`` is imported only for N > 10: importing it costs tens of
milliseconds, which every command-line run would otherwise pay.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Switch to the Taylor branch below this intensity (the quotient form loses
# accuracy like eps/N); both branches agree to ~1e-14 at the switch.
N_SWITCH = 1e-6

# exp(N/2) overflows doubles near N ~ 1419; stop well before so that
# products of kernel values stay finite.
N_MAX = 700.0

# Fixed Gauss rules up to here, closed forms above.  The closed form of A
# cancels as N -> 0, the grouped fixed-rule form at the e^{N/2} scale as N
# grows (3e-12 relative at N = 20); both agree to ~1e-14 at the split.
_N_LARGE = 10.0

# One 64-node Gauss-Legendre rule on (0, 1), shared by every fixed-rule sum.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
_NODE_PRODUCTS_SQ = np.square(np.outer(_GL_NODES, _GL_NODES))  # (s_i u_k)^2


class CoefficientPair(NamedTuple):
    """Poiseuille correction ``a`` and Couette correction ``b`` at one point."""

    a: float
    b: float


def _check_intensity(n: float) -> float:
    n = float(n)
    if not math.isfinite(n) or n < 0.0:
        raise ValueError(f"roughness intensity must be a finite value >= 0, got {n}")
    if n > N_MAX:
        raise ValueError(f"roughness intensity {n} exceeds supported maximum {N_MAX}")
    return n


def _fixed_rule_kernels(n: float) -> tuple[float, float]:
    """I2 - 1 and I3 on the fixed Gauss rule (accurate for n <= _N_LARGE).

    I3 = int_0^1 exp(n s^2/2) G(s) ds, where the inner integral
    G(s) = s * int_0^1 exp(-n (s u)^2 / 2) du is taken on the same rule.
    """
    half = 0.5 * n
    growth = np.exp(half * _GL_NODES * _GL_NODES)
    inner = _GL_NODES * (np.exp(-half * _NODE_PRODUCTS_SQ) @ _GL_WEIGHTS)
    return (float(_GL_WEIGHTS @ np.expm1(-half * _GL_NODES * _GL_NODES)),
            float(_GL_WEIGHTS @ (growth * inner)))


def _erfcx_mean(r: float) -> float:
    """E = int_0^1 erfcx(r s) ds on the fixed Gauss rule."""
    from scipy.special import erfcx
    return float(_GL_WEIGHTS @ erfcx(r * _GL_NODES))


def growth_integral(n: float) -> float:
    """I1(n) = int_0^1 exp(n s^2 / 2) ds."""
    n = _check_intensity(n)
    if n <= _N_LARGE:
        return float(_GL_WEIGHTS @ np.exp(0.5 * n * _GL_NODES * _GL_NODES))
    from scipy.special import dawsn
    r = math.sqrt(0.5 * n)
    return math.exp(0.5 * n) * float(dawsn(r)) / r


def decay_integral(n: float) -> float:
    """I2(n) = int_0^1 exp(-n t^2 / 2) dt."""
    n = _check_intensity(n)
    if n == 0.0:
        return 1.0
    r = math.sqrt(0.5 * n)
    return math.sqrt(math.pi) / (2.0 * r) * math.erf(r)


def triangle_integral(n: float) -> float:
    """I3(n) = int_0^1 int_0^s exp(n (s^2 - t^2) / 2) dt ds."""
    n = _check_intensity(n)
    if n <= _N_LARGE:
        return _fixed_rule_kernels(n)[1]
    r = math.sqrt(0.5 * n)
    return math.sqrt(math.pi) / (2.0 * r) * (growth_integral(n) - _erfcx_mean(r))


def coefficients(n: float) -> CoefficientPair:
    """Poiseuille multiplier A (on h^3/12) and Couette multiplier B (for 1/2).

    A equals 1 for a smooth surface and stays positive over the supported
    intensity range, so the homogenized pressure equation remains elliptic.
    """
    n = _check_intensity(n)
    if n < N_SWITCH:
        return CoefficientPair(1.0 + n / 20.0, 0.5 + n / 24.0)
    em = math.expm1(0.5 * n)  # e^{n/2} - 1
    if n <= _N_LARGE:
        i1 = growth_integral(n)
        i2m1, i3 = _fixed_rule_kernels(n)
        # Grouped so every term vanishes linearly with n: dividing by n is
        # then benign instead of catastrophic.
        return CoefficientPair(12.0 * (em * (1.0 + i2m1) + i2m1 - em * i3 / i1) / n,
                               em / n / i1)
    from scipy.special import dawsn, erfcx
    r = math.sqrt(0.5 * n)
    d = float(dawsn(r))
    # No term in the bracket is of size e^{n/2}: those parts of e^{n/2} I2
    # and (e^{n/2} - 1) I3 / I1 cancel analytically.
    bracket = 1.0 - float(erfcx(r)) - math.expm1(-0.5 * n) * _erfcx_mean(r) * r / d
    return CoefficientPair(12.0 / n * (math.sqrt(math.pi / (2.0 * n)) * bracket - 1.0),
                           em / n / (math.exp(0.5 * n) * d / r))  # I1 = e^{n/2} d / r


def poiseuille_coeff(n: float) -> float:
    """A(n), the multiplier of the pressure-driven h^3/12 flux term."""
    return coefficients(n).a


def couette_coeff(n: float) -> float:
    """B(n), the multiplier of the shear-driven h*U_b flux term (1/2 when smooth)."""
    return coefficients(n).b


def cosine_roughness_intensity(amplitude: float, wavenumber: int) -> float:
    """Intensity of a cosine ripple ``amplitude * cos(2 pi wavenumber X1)``.

    The cell average of the squared ripple gradient has the closed form
    amplitude^2 * (2 pi wavenumber)^2 / 2, independent of the torus dimension
    (the ripple varies in one direction only).
    """
    amplitude = float(amplitude)
    if not math.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    wavenumber = int(wavenumber)
    if wavenumber < 1:
        raise ValueError(f"wavenumber must be a positive integer, got {wavenumber}")
    try:
        n = 0.5 * amplitude**2 * (2.0 * math.pi * wavenumber) ** 2
    except OverflowError:
        n = math.inf
    if not math.isfinite(n):
        raise ValueError(f"ripple intensity overflows: amplitude {amplitude:g}, "
                         f"wavenumber {wavenumber:g}")
    return n


def tabulated_roughness_intensity(gradient_samples) -> float:
    """Intensity from ripple-gradient samples on a uniform periodic unit cell.

    `gradient_samples` holds one gradient vector per grid point (last axis =
    components); a 1-d array is read as scalar gradients on a 1-d cell.  On a
    periodic uniform grid the trapezoid rule reduces to the plain average, so
    the result is the mean squared gradient norm (unit cell volume = 1).
    """
    g = np.asarray(gradient_samples, dtype=float)
    if g.size == 0:
        raise ValueError("gradient sample grid is empty")
    grid_shape = g.shape if g.ndim == 1 else g.shape[:-1]
    if any(m < 2 for m in grid_shape):
        raise ValueError(f"need >= 2 samples per grid direction, got shape {g.shape}")
    sq = g * g if g.ndim == 1 else np.sum(g * g, axis=-1)
    return float(np.mean(sq))
