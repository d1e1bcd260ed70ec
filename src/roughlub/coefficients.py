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
    I2(N) = int_0^1 exp(-N t^2 / 2) dt
    I3(N) = int_0^1 int_0^s exp(N (s^2 - t^2)/2) dt ds

With r = sqrt(N/2) these have closed forms in Dawson's integral and the
scaled complementary error function erfcx (DLMF section 7):

    I1 = e^{N/2} dawsn(r) / r,     I2 = sqrt(pi)/(2r) erf(r),
    I3 = sqrt(pi)/(2r) (I1 - E),   E = int_0^1 erfcx(r s) ds,
    A  = (12/N) [sqrt(pi/2N) (1 - erfcx(r) + (1 - e^{-N/2}) E r / dawsn(r)) - 1].

``coefficients(N)`` is the one evaluation of A and B.  It computes each
kernel once per call.
Above ``_N_LARGE`` = 10 it uses these forms, with E on a fixed 64-node
Gauss-Legendre rule and one dawsn(r) shared by A and B.  At or below it,
I1, I3, A and B come from one table of power series in a = N/2 (``_SERIES``,
also read by the velocity profile): with K(Z) = int_0^Z exp(a s^2) ds and
J(Z) = int_0^Z int_0^s exp(a (s^2 - t^2)) dt ds, its columns are the a^k
coefficients of

    I1 = K(1),   I3 = J(1),   A I1 / 12 = J(1) int_0^1 K - K(1) int_0^1 J,
    B I1 = (e^a - 1) / (2a),

where the third is the Poiseuille flux of the velocity profile.  Every
coefficient is positive, so no sum cancels and the removable singularity of
the 1/N prefactors at N = 0 needs no branch of its own: N = 0 reads the first
row, the classical A = 1, B = 1/2.

``scipy.special`` is imported only for N > 10: importing it costs tens of
milliseconds, which every command-line run would otherwise pay.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# exp(N/2) overflows doubles near N ~ 1419; stop well before so that
# products of kernel values stay finite.
N_MAX = 700.0

# Power series up to here, closed forms above.  The closed form of A cancels
# as N -> 0; both agree to ~2e-15 at the split.
_N_LARGE = 10.0


def _series_table(terms: int) -> np.ndarray:
    """a^k coefficients, one row per k, of I1, I3, A I1 / 12 and B I1."""
    f = math.factorial
    k1 = [1.0 / (f(k) * (2 * k + 1)) for k in range(terms)]
    j1 = [4**k * f(k) / (f(2 * k + 1) * (2 * k + 2)) for k in range(terms)]  # m_k/k!
    # int_0^1 Z^{2k+1} dZ = 1/(2k+2) and int_0^1 Z^{2k+2} dZ = 1/(2k+3)
    flux = [math.fsum(j1[i] * k1[k - i] / (2 * k - 2 * i + 2)
                      - k1[i] * j1[k - i] / (2 * k - 2 * i + 3) for i in range(k + 1))
            for k in range(terms)]
    return np.array([k1, j1, flux, [0.5 / f(k + 1) for k in range(terms)]]).T


# At a <= 5 the first omitted a^k/k! is < 3e-28.
_SERIES = _series_table(48)

# One 64-node Gauss-Legendre rule on (0, 1), for E.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


class CoefficientPair(NamedTuple):
    """Poiseuille correction ``a`` and Couette correction ``b`` at one intensity."""

    a: float
    b: float


def _check_intensity(n: float) -> float:
    n = float(n)
    if not math.isfinite(n) or n < 0.0:
        raise ValueError(f"roughness intensity must be a finite value >= 0, got {n}")
    if n > N_MAX:
        raise ValueError(f"roughness intensity {n} exceeds supported maximum {N_MAX}")
    return n


def _series_sums(n: float) -> list[float]:
    """The column sums of _SERIES at a = n/2: I1, I3, A I1 / 12 and B I1."""
    return ((0.5 * n) ** np.arange(len(_SERIES)) @ _SERIES).tolist()


def _erfcx_mean(r: float) -> float:
    """E = int_0^1 erfcx(r s) ds on the fixed Gauss rule."""
    from scipy.special import erfcx
    return float(_GL_WEIGHTS @ erfcx(r * _GL_NODES))


def growth_integral(n: float) -> float:
    """I1(n) = int_0^1 exp(n s^2 / 2) ds."""
    n = _check_intensity(n)
    if n <= _N_LARGE:
        return _series_sums(n)[0]
    from scipy.special import dawsn
    r = math.sqrt(0.5 * n)
    return math.exp(0.5 * n) * float(dawsn(r)) / r


def coefficients(n: float) -> CoefficientPair:
    """Poiseuille multiplier A (on h^3/12) and Couette multiplier B (for 1/2).

    A equals 1 for a smooth surface and stays positive over the supported
    intensity range, so the homogenized pressure equation remains elliptic.
    """
    n = _check_intensity(n)
    if n <= _N_LARGE:
        i1 = growth_integral(n)
        _, _, flux, shear = _series_sums(n)
        return CoefficientPair(12.0 * flux / i1, shear / i1)
    from scipy.special import dawsn, erfcx
    r = math.sqrt(0.5 * n)
    d = float(dawsn(r))
    em = math.expm1(0.5 * n)  # e^{n/2} - 1
    # No term in the bracket is of size e^{n/2}: those parts of e^{n/2} I2
    # and (e^{n/2} - 1) I3 / I1 cancel analytically.
    bracket = 1.0 - float(erfcx(r)) - math.expm1(-0.5 * n) * _erfcx_mean(r) * r / d
    return CoefficientPair(12.0 / n * (math.sqrt(math.pi / (2.0 * n)) * bracket - 1.0),
                           em / n / (math.exp(0.5 * n) * d / r))  # I1 = e^{n/2} d / r
