"""Through-gap velocity reconstruction and derived diagnostics.

With the roughness intensity ``n``, the reduced momentum balance integrates
in the scaled gap coordinate Z in [0, 1] to

    u(Z) = h^2 [ J(Z) - J(1) K(Z)/K(1) ] grad_p + [ 1 - K(Z)/K(1) ] U_b

with K(Z) = int_0^Z exp(n s^2/2) ds and
J(Z) = int_0^Z int_0^s exp(n (s^2 - t^2)/2) dt ds.  The profile satisfies
u(0) = U_b and u(1) = 0 by construction, and its gap-integrated flux
h * int_0^1 u dZ reproduces the coefficient-level flux
h B U_b - (h^3 A / 12) grad_p, which is the consistency check exported here.

The kernels are evaluated directly, without adaptive quadrature, split at
the coefficients' ``_N_LARGE`` = 10.  With a = n/2 and r = sqrt(a):

* n <= 10: 48-term power series, all terms positive,
  K(Z) = sum_k a^k Z^{2k+1} / (k! (2k+1)) and
  J(Z) = sum_k a^k m_k Z^{2k+2} / k!, m_k = 4^k (k!)^2 / ((2k+1)! (2k+2)).
* n > 10: K and J grow like e^{n/2}, so the profile is written in bounded
  terms of Dawson's integral and erfcx:
  K(Z)/K(1) = e^{-r^2 (1-Z^2)} dawsn(rZ) / dawsn(r), and integrating J by
  parts, J(Z) = K(Z) G(Z) - L(Z) with G(Z) = int_0^Z exp(-n t^2/2) dt and
  L(Z) = int_0^Z dawsn(rs)/r ds, gives
  J(Z) - J(1) K(Z)/K(1) = -(sqrt(pi)/(2 r^2)) dawsn(rZ)
  [erfcx(rZ) - e^{-r^2 (1-Z^2)} erfcx(r)] - L(Z) + L(1) K(Z)/K(1).
  L is accumulated over the samples: a fixed 16-node Gauss rule on each
  interval [Z_j, Z_{j+1}], summed by np.cumsum, so a profile on z_count
  intervals costs 16 z_count Dawson evaluations and L(1) is the last sum.

A profile takes at most ``Z_COUNT_MAX`` intervals, checked before any array
is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import _N_LARGE, _check_intensity, coefficients
from .geometry import Grid, RoughnessSpec
from .solver import PressureSolution


@dataclass(frozen=True)
class VelocityProfile:
    """Horizontal velocity samples across the gap at one horizontal location."""

    z: np.ndarray        # scaled gap coordinate, uniform on [0, 1]
    u: np.ndarray        # shape (len(z), 2)
    n_psi: float
    h1: float
    grad_p: np.ndarray
    u_b: np.ndarray


@dataclass(frozen=True)
class ComparisonReport:
    """Norms of the difference between two pressure fields on one grid."""

    l2: float
    linf: float
    l2_outside_rough: float


# Z^{2k} coefficients of K(Z)/Z and J(Z)/Z^2 without the factor a^k, one row
# per k: 1/(k!(2k+1)) and m_k/k!.  At a <= 5 the first omitted a^k/k! is < 3e-28.
_SERIES = np.array([[1.0 / (math.factorial(k) * (2 * k + 1)),
                     4**k * math.factorial(k) / (math.factorial(2 * k + 1) * (2 * k + 2))]
                    for k in range(48)])


# Largest z_count: a profile then peaks at about 13 MB (16 Gauss nodes per interval).
Z_COUNT_MAX = 2**16

# One 16-node Gauss-Legendre rule on (0, 1), applied to every sample interval
# of L(Z).  Within 5e-15 of L relative for N in (10, 700] from 8 intervals up;
# 8 nodes lose 3e-10 at 8 intervals and N = 700.
_INTERVAL_NODES, _INTERVAL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_INTERVAL_NODES = 0.5 * (_INTERVAL_NODES + 1.0)
_INTERVAL_WEIGHTS = 0.5 * _INTERVAL_WEIGHTS


def _dawson_primitive(r: float, z: np.ndarray) -> np.ndarray:
    """L(Z) = int_0^Z dawsn(r s)/r ds on increasing samples with z[0] = 0."""
    from scipy.special import dawsn  # deferred, as in .coefficients
    dz = np.diff(z)
    s = np.multiply.outer(dz, _INTERVAL_NODES)
    s += z[:-1, None]
    s *= r
    pieces = dawsn(s, out=s) @ _INTERVAL_WEIGHTS
    pieces *= dz / r
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _kernel_profile(n: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(Z)/K(1) and J(Z) - J(1) K(Z)/K(1) on samples with z[0] = 0, z[-1] = 1."""
    if n <= _N_LARGE:
        a = 0.5 * n
        powers = np.vander(z * z, len(_SERIES), increasing=True)
        kj = powers @ (_SERIES * a ** np.arange(len(_SERIES))[:, None])
        k, j = z * kj[:, 0], z * z * kj[:, 1]
        ratio = k / k[-1]
        poiseuille = j - j[-1] * ratio
    else:
        from scipy.special import dawsn, erfcx  # deferred, as in .coefficients
        r = math.sqrt(0.5 * n)
        rz = r * z
        damp = np.exp(-0.5 * n * (1.0 - z * z))
        d = dawsn(rz)
        ratio = damp * d / d[-1]
        lz = _dawson_primitive(r, z)
        poiseuille = (-math.sqrt(math.pi) / (2.0 * r * r) * d
                      * (erfcx(rz) - damp * erfcx(r)) - lz + lz[-1] * ratio)
    # exact wall values, so u(0) = U_b and u(1) = 0 hold bit for bit
    ratio[0], ratio[-1] = 0.0, 1.0
    poiseuille[0] = poiseuille[-1] = 0.0
    return ratio, poiseuille


def velocity_profile(h1: float, n: float, grad_p, u_b,
                     z_count: int = 64) -> VelocityProfile:
    """Reconstruct u(Z) on z_count+1 uniform samples."""
    n = _check_intensity(n)
    if not 8 <= z_count <= Z_COUNT_MAX:
        raise ValueError(f"z_count must be in [8, {Z_COUNT_MAX}], got {z_count}")
    h1 = float(h1)
    if h1 <= 0.0:
        raise ValueError(f"gap height must be positive, got {h1}")
    grad_p = np.asarray(grad_p, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    if grad_p.shape != (2,) or u_b.shape != (2,):
        raise ValueError("grad_p and u_b must be 2-vectors")

    z = np.linspace(0.0, 1.0, z_count + 1)
    ratio, poiseuille = _kernel_profile(n, z)
    u = (h1 * h1 * poiseuille[:, None] * grad_p[None, :]
         + (1.0 - ratio)[:, None] * u_b[None, :])
    return VelocityProfile(z=z, u=u, n_psi=n, h1=h1, grad_p=grad_p, u_b=u_b)


def flux_from_velocity(profile: VelocityProfile) -> np.ndarray:
    """Gap-integrated flux h * int_0^1 u dZ by composite Simpson."""
    nz = profile.z.size - 1
    if profile.z.size < 9:
        raise ValueError("flux quadrature needs at least 9 velocity samples")
    if nz % 2 != 0:
        raise ValueError("flux quadrature needs an even number of z intervals")
    h = 1.0 / nz
    u = profile.u
    integral = h / 3.0 * (u[0] + u[-1] + 4.0 * u[1:-1:2].sum(axis=0)
                          + 2.0 * u[2:-1:2].sum(axis=0))
    return profile.h1 * integral


def flux_from_coefficients(h1: float, n: float, grad_p, u_b) -> np.ndarray:
    """Flux predicted by the effective coefficients: h B U_b - (h^3 A/12) grad p."""
    h1 = float(h1)
    grad_p = np.asarray(grad_p, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    a, b = coefficients(n)
    return h1 * b * u_b - h1**3 * a / 12.0 * grad_p


def gradient_at(solution: PressureSolution, grid: Grid, x: float, y: float) -> np.ndarray:
    """P1 pressure gradient in the triangle containing (x, y), interior points only."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError(f"point ({x}, {y}) is not interior to the unit square")
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    cx = min(int(x * nx), nx - 1)
    cy = min(int(y * ny), ny - 1)
    xi = (x - cx * hx) / hx
    eta = (y - cy * hy) / hy
    n00 = cy * (nx + 1) + cx
    p = solution.p
    p00, p10 = p[n00], p[n00 + 1]
    p01, p11 = p[n00 + nx + 1], p[n00 + nx + 2]
    if eta <= xi:  # lower triangle (n00, n10, n11)
        return np.array([(p10 - p00) / hx, (p11 - p10) / hy])
    return np.array([(p11 - p01) / hx, (p01 - p00) / hy])


def _nodal_l2(values: np.ndarray, grid: Grid, keep: np.ndarray | None = None) -> float:
    """Trapezoid-weighted nodal L2 norm, optionally restricted to a node mask."""
    x, y = grid.node_coords()
    wx = np.where((x == 0.0) | (x == 1.0), 0.5, 1.0)
    wy = np.where((y == 0.0) | (y == 1.0), 0.5, 1.0)
    w = wx * wy / (grid.nx * grid.ny)
    if keep is not None:
        w = w * keep
    return float(math.sqrt(np.sum(w * values * values)))


def compare_fields(p_smooth: PressureSolution, p_rough: PressureSolution,
                   grid: Grid, roughness: RoughnessSpec) -> ComparisonReport:
    """Difference norms between a smooth-surface and a rough-surface solution.

    `l2_outside_rough` restricts the L2 norm to nodes outside every rough
    rectangle; a nonzero value there shows the roughness perturbing the
    pressure beyond the rough patch itself.
    """
    if p_smooth.p.shape != p_rough.p.shape or p_smooth.p.size != grid.n_nodes:
        raise ValueError("pressure fields do not match the grid")
    d = p_rough.p - p_smooth.p
    x, y = grid.node_coords()
    outside = ~roughness.inside_any(x, y)
    return ComparisonReport(
        l2=_nodal_l2(d, grid),
        linf=float(np.abs(d).max()),
        l2_outside_rough=_nodal_l2(d, grid, keep=outside),
    )
