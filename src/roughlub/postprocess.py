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

* n <= 10: 48-term power series, all terms positive, read from the first
  two columns of the coefficients' ``_SERIES`` table.  Those hold the a^k
  coefficients of K(1) = I1 and J(1) = I3, which are also the coefficients
  of a^k Z^{2k+1} in K(Z) and of a^k Z^{2k+2} in J(Z):
  K(Z) = sum_k a^k Z^{2k+1} / (k! (2k+1)) and
  J(Z) = sum_k a^k m_k Z^{2k+2} / k!, m_k = 4^k (k!)^2 / ((2k+1)! (2k+2)).
* n > 10: K and J grow like e^{n/2}, so the profile is written in bounded
  terms of Dawson's integral and erfcx:
  K(Z)/K(1) = e^{-r^2 (1-Z^2)} dawsn(rZ) / dawsn(r), and integrating J by
  parts, J(Z) = K(Z) G(Z) - L(Z) with G(Z) = int_0^Z exp(-n t^2/2) dt and
  L(Z) = int_0^Z dawsn(rs)/r ds, gives
  J(Z) - J(1) K(Z)/K(1) = -(sqrt(pi)/(2 r^2)) dawsn(rZ)
  [erfcx(rZ) - e^{-r^2 (1-Z^2)} erfcx(r)] - L(Z) + L(1) K(Z)/K(1).
  L is accumulated over the samples: an m-node Gauss rule on each interval
  [Z_j, Z_{j+1}], summed by np.cumsum, so a profile on z_count intervals
  costs m z_count Dawson evaluations and L(1) is the last sum.  m follows
  from z_count alone, sized for N = 700: 16 below 32 intervals, 8 below
  256, 4 from 256 up, each within 5e-15 of L relative for N in (10, 700]
  (against a 32-node rule; 8 nodes at 16 intervals lose 1.2e-14, 4 nodes
  at 128 lose 4e-14; Davis & Rabinowitz, Methods of Numerical Integration,
  2nd ed., 1984, section 2.7, for the error term).

The samples with the n <= 10 power table z^(2k) (``_power_table``), and
the samples with the unit Gauss positions Z_j + dZ_j x_i of the n > 10 rule
(``_gauss_rule``), depend on z_count alone.  Each table is read-only and
kept for the last z_count asked for, by the solver's ``_last_key_cache``:
the first profile on a z_count builds the table its branch reads, later
ones reuse it, and another z_count releases that table before building
its own.  No returned profile shares an array with a table.

A profile takes at most ``Z_COUNT_MAX`` intervals, checked before any array
is built.  h1, grad_p and u_b must be finite, and so must h1**2 max(1,
|grad_p|) in a profile, and h1**3 max(1, |grad_p|) and h1 |u_b| in the
coefficient-level flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import _N_LARGE, _SERIES, _check_intensity, coefficients
from .geometry import Grid, RoughnessSpec
from .solver import PressureSolution, _last_key_cache


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


# Largest z_count.  A profile then peaks at about 29 MB with n <= 10, for
# the 25 MB power table it keeps, and at about 9 MB above; the two tables
# held between profiles take at most 25.7 MB and 3.1 MB.
Z_COUNT_MAX = 2**16


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """`arrays`, each made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@_last_key_cache
def _power_table(z_count: int) -> tuple[np.ndarray, ...]:
    """The z_count + 1 samples z and z^(2k) on them, one column per term of
    the n <= 10 series; read-only."""
    z = np.linspace(0.0, 1.0, z_count + 1)
    return _read_only(z, np.vander(z * z, len(_SERIES), increasing=True))


@_last_key_cache
def _gauss_rule(z_count: int) -> tuple[np.ndarray, ...]:
    """The z_count + 1 samples z, the unit positions Z_j + dZ_j x_i (one row
    per interval), the weights and dZ of the m-node Gauss rule of L(Z)
    (module docstring); read-only."""
    z = np.linspace(0.0, 1.0, z_count + 1)
    nodes, weights = np.polynomial.legendre.leggauss(
        16 if z_count < 32 else 8 if z_count < 256 else 4)
    dz = np.diff(z)
    positions = np.multiply.outer(dz, 0.5 * (nodes + 1.0)) + z[:-1, None]
    return _read_only(z, positions, 0.5 * weights, dz)


def _dawson_primitive(r: float, z_count: int) -> np.ndarray:
    """L(Z) = int_0^Z dawsn(r s)/r ds on the z_count + 1 samples."""
    from scipy.special import dawsn  # deferred, as in .coefficients
    _, positions, weights, dz = _gauss_rule(z_count)
    s = positions * r
    pieces = dawsn(s, out=s) @ weights
    pieces *= dz / r
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _kernel_profile(n: float, z_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples Z (read-only), K(Z)/K(1) and J(Z) - J(1) K(Z)/K(1)."""
    if n <= _N_LARGE:
        z, powers = _power_table(z_count)
        kj = powers @ (_SERIES[:, :2] * (0.5 * n) ** np.arange(len(_SERIES))[:, None])
        ratio, poiseuille = z * kj[:, 0], z * z * kj[:, 1]  # K(Z), J(Z)
        ratio /= ratio[-1]
        poiseuille -= poiseuille[-1] * ratio
    else:
        from scipy.special import dawsn, erfcx  # deferred, as in .coefficients
        z = _gauss_rule(z_count)[0]
        r = math.sqrt(0.5 * n)
        rz = r * z
        damp = np.exp(-0.5 * n * (1.0 - z * z))
        d = dawsn(rz)
        ratio = damp * d / d[-1]
        lz = _dawson_primitive(r, z_count)
        poiseuille = (-math.sqrt(math.pi) / (2.0 * r * r) * d
                      * (erfcx(rz) - damp * erfcx(r)) - lz + lz[-1] * ratio)
    # exact wall values, so u(0) = U_b and u(1) = 0 hold bit for bit
    ratio[0], ratio[-1] = 0.0, 1.0
    poiseuille[0] = poiseuille[-1] = 0.0
    return z, ratio, poiseuille


def _check_forcing(h1, grad_p, u_b, power: int) -> tuple[float, np.ndarray, np.ndarray]:
    """h1 as a float and grad_p, u_b as 2-vectors, all finite; a ValueError
    names the input at fault.  The terms h1**power max(1, |grad_p|) and
    h1**(power - 2) |u_b| must be finite too: with A < 1.2 and B < 1 they
    bound the terms of a profile (power 2) and of the flux (power 3)."""
    h1 = float(h1)
    if not (h1 > 0.0 and math.isfinite(h1)):
        raise ValueError(f"gap height h1 must be finite and positive, got {h1}")
    grad_p = np.asarray(grad_p, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    if grad_p.shape != (2,) or u_b.shape != (2,):
        raise ValueError("grad_p and u_b must be 2-vectors")
    for name, vector in (("grad_p", grad_p.tolist()), ("u_b", u_b.tolist())):
        if not all(map(math.isfinite, vector)):
            raise ValueError(f"{name} must be finite, got {vector}")
    g, v = (max(map(abs, vector.tolist())) for vector in (grad_p, u_b))
    if math.isinf(max(math.prod([h1] * power + [max(1.0, g)]),
                      math.prod([h1] * (power - 2) + [v]))):
        raise ValueError(f"overflow at h1 = {h1}, grad_p = {grad_p.tolist()}, "
                         f"u_b = {u_b.tolist()}")
    return h1, grad_p, u_b


def velocity_profile(h1: float, n: float, grad_p, u_b,
                     z_count: int = 64) -> VelocityProfile:
    """Reconstruct u(Z) on z_count+1 uniform samples."""
    n = _check_intensity(n)
    if not 8 <= z_count <= Z_COUNT_MAX:
        raise ValueError(f"z_count must be in [8, {Z_COUNT_MAX}], got {z_count}")
    h1, grad_p, u_b = _check_forcing(h1, grad_p, u_b, 2)
    z, ratio, poiseuille = _kernel_profile(n, z_count)
    # in place: beside the held power table, the temporaries stay below the
    # kernel's own peak
    poiseuille *= h1 * h1
    u = np.multiply.outer(poiseuille, grad_p)
    u += np.multiply.outer(np.subtract(1.0, ratio, out=ratio), u_b)
    return VelocityProfile(z=z.copy(), u=u, n_psi=n, h1=h1, grad_p=grad_p, u_b=u_b)


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
    h1, grad_p, u_b = _check_forcing(h1, grad_p, u_b, 3)
    a, b = coefficients(n)
    return h1 * b * u_b - h1**3 * a / 12.0 * grad_p


def gradient_at(solution: PressureSolution, grid: Grid, x: float, y: float) -> np.ndarray:
    """P1 pressure gradient in the triangle containing (x, y), interior points only."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError(f"point ({x}, {y}) is not interior to the unit square")
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    cx, cy = grid.cell_at(x, y)
    xi = (x - cx * hx) / hx
    eta = (y - cy * hy) / hy
    n00 = cy * (nx + 1) + cx
    p = solution.p
    p00, p10 = p[n00], p[n00 + 1]
    p01, p11 = p[n00 + nx + 1], p[n00 + nx + 2]
    if eta <= xi:  # lower triangle (n00, n10, n11)
        return np.array([(p10 - p00) / hx, (p11 - p10) / hy])
    return np.array([(p11 - p01) / hx, (p01 - p00) / hy])


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
    # trapezoid weights of the nodal L2 norms
    wx = np.where((x == 0.0) | (x == 1.0), 0.5, 1.0)
    wy = np.where((y == 0.0) | (y == 1.0), 0.5, 1.0)
    w = wx * wy / (grid.nx * grid.ny)
    outside = ~roughness.inside_any(x, y)
    return ComparisonReport(
        l2=math.sqrt(np.sum(w * d * d)),
        linf=float(np.abs(d).max()),
        l2_outside_rough=math.sqrt(np.sum(w * outside * d * d)),
    )
