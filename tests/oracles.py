"""Independent brute-force quadrature oracles used across the test suite.

Everything here is composite Simpson on uniform grids, deliberately distinct
from the power series, Gauss rules and closed forms used by the package itself.
Special functions (Dawson's integral, erfcx) are taken from ``scipy.special``;
only the quadrature is independent.  `oracle_1d` integrates the 1-D pressure
with the package's own coefficients, so it checks the solver, not A and B.
`flux_from_velocity` and `flux_from_coefficients` give the two sides of the
flux-consistency check of a velocity profile.  `residual_check` measures a
pressure solution against its assembled system.
"""

import math

import numpy as np

from roughlub.coefficients import coefficients
from roughlub.geometry import GapProfile, RoughnessSpec, evaluate_gap
from roughlub.solver import LinearSystem, PressureSolution


def simpson(f, a, b, panels=2**16):
    """Composite Simpson of f on [a, b] with `panels` parabolic panels."""
    s = np.linspace(a, b, 2 * panels + 1)
    y = f(s)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()))


def cumulative_simpson(y, h):
    """Cumulative integral at the even-index nodes of uniformly sampled y."""
    chunks = h / 3.0 * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    return np.concatenate(([0.0], np.cumsum(chunks)))


def dawson_primitive_oracle(r, z_count, panels=2**16):
    """L(Z_j) = int_0^{Z_j} dawsn(r s)/r ds at Z_j = j / z_count, j = 0..z_count.

    Cumulative Simpson on a grid that gives every sample interval the same
    whole number of panels, about `panels` in all.
    """
    from scipy.special import dawsn
    per_interval = max(1, panels // z_count)
    s = np.linspace(0.0, 1.0, 2 * per_interval * z_count + 1)
    l = cumulative_simpson(dawsn(r * s) / r, 0.5 / (per_interval * z_count))
    return l[::per_interval]


def growth_oracle(n, panels=2**16):
    return simpson(lambda s: np.exp(0.5 * n * s * s), 0.0, 1.0, panels)


def decay_oracle(n, panels=2**16):
    return simpson(lambda t: np.exp(-0.5 * n * t * t), 0.0, 1.0, panels)


def triangle_oracle(n, panels=2**16):
    """Simpson-in-Simpson value of the iterated integral over 0 <= t <= s <= 1.

    The inner primitive G(s) = int_0^s exp(-n t^2/2) dt is tabulated by
    cumulative Simpson on a half-step grid so it is available at every outer
    Simpson node.
    """
    s_half = np.linspace(0.0, 1.0, 4 * panels + 1)
    g = cumulative_simpson(np.exp(-0.5 * n * s_half * s_half), 0.5 / (2 * panels))
    s = s_half[::2]
    y = np.exp(0.5 * n * s * s) * g
    h = 1.0 / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()))


def poiseuille_oracle(n, panels=2**16):
    """Effective Poiseuille coefficient straight from its defining formula."""
    if n == 0.0:
        return 1.0
    i1 = growth_oracle(n, panels)
    i2 = decay_oracle(n, panels)
    i3 = triangle_oracle(n, panels)
    e = np.exp(0.5 * n)
    return 12.0 / n * (e * i2 - 1.0) - 12.0 / n * (e - 1.0) * i3 / i1


def couette_oracle(n, panels=2**16):
    if n == 0.0:
        return 0.5
    return (np.exp(0.5 * n) - 1.0) / n / growth_oracle(n, panels)


def bounded_poiseuille_oracle(n, panels=2**16):
    """A(n) for n > 0 from the bounded closed form, with r = sqrt(n/2):

        12/n [sqrt(pi/2n) (1 - erfcx(r) - expm1(-n/2) E r / dawsn(r)) - 1],

    E = int_0^1 erfcx(r s) ds by `simpson`.  Unlike `poiseuille_oracle`, whose
    terms cancel as e^{n/2} grows (7e-5 relative at n = 50), it holds up to 700.
    """
    from scipy.special import dawsn, erfcx
    r = math.sqrt(0.5 * n)
    e = simpson(lambda s: erfcx(r * s), 0.0, 1.0, panels)
    bracket = 1.0 - float(erfcx(r)) - math.expm1(-0.5 * n) * e * r / float(dawsn(r))
    return 12.0 / n * (math.sqrt(math.pi / (2.0 * n)) * bracket - 1.0)


def oracle_1d(gap: GapProfile, roughness: RoughnessSpec, u_bx: float,
              q_e: float, samples: int = 129) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pressure for y-independent data, for solver validation.

    In one horizontal dimension the flux (h^3 A / 12) p' - h B u_bx is the
    constant q_e, so with p(1) = 0

        p(x) = - int_x^1 12 (q_e + h(s) B(s) u_bx) / (h(s)^3 A(s)) ds.

    The pieces between neighbouring samples and rough-region edges are each
    integrated once, by composite Simpson with about 2^14 panels in all, so
    the discontinuous coefficients never straddle a panel; p(x_i) is minus
    the sum of the pieces to the right of x_i.
    """
    if gap.kind == "tabulated" and not np.allclose(
            gap.table, gap.table[0], rtol=0.0, atol=0.0):
        raise ValueError("1d oracle needs a gap that does not vary in y")
    eps = 1e-12
    for r in roughness.regions:
        if r.y0 > eps or r.y1 < 1.0 - eps:
            raise ValueError("1d oracle needs rough regions spanning the full y range")
    if samples < 2:
        raise ValueError("need at least 2 samples")

    x = np.linspace(0.0, 1.0, samples)
    cuts = np.unique(np.concatenate([x] + [(r.x0, r.x1) for r in roughness.regions]))
    width = np.diff(cuts)
    panels = max(1, 2**14 // width.size)  # per piece
    s = cuts[:-1, None] + width[:, None] * np.linspace(0.0, 1.0, 2 * panels + 1)
    # nudge the end samples off the piece boundary so a coefficient jump
    # shared with the neighbouring piece is sampled on the correct side
    s[:, 0] += 1e-13
    s[:, -1] = cuts[1:] - 1e-13
    h = evaluate_gap(gap, s, np.full_like(s, 0.5))
    # one coefficients call per distinct intensity, read back by each sample
    values, inverse = np.unique(roughness.intensity_at(s, np.full_like(s, 0.5)),
                                return_inverse=True)
    a, b = np.moveaxis(np.array([coefficients(v) for v in values])[inverse.reshape(s.shape)],
                       -1, 0)
    y = 12.0 * (q_e + h * b * u_bx) / (h**3 * a)
    pieces = width / (6 * panels) * (y[:, 0] + y[:, -1] + 4.0 * y[:, 1::2].sum(1)
                                     + 2.0 * y[:, 2:-1:2].sum(1))
    right = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)  # integral over [cuts[j], 1]
    return x, -right[np.searchsorted(cuts, x)]


def flux_from_velocity(profile) -> np.ndarray:
    """Gap-integrated flux h * int_0^1 u dZ of a VelocityProfile by composite
    Simpson."""
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


def flux_from_coefficients(h1, n, grad_p, u_b) -> np.ndarray:
    """Flux predicted by the effective coefficients: h B U_b - (h^3 A/12) grad p."""
    a, b = coefficients(n)
    grad_p, u_b = np.asarray(grad_p, dtype=float), np.asarray(u_b, dtype=float)
    return h1 * b * u_b - h1**3 * a / 12.0 * grad_p


def residual_check(system: LinearSystem, solution: PressureSolution) -> float:
    """Relative residual of a solution against its system (absolute if rhs = 0)."""
    x = solution.p[system.free_nodes]
    r = float(np.linalg.norm(system.matrix @ x - system.rhs))
    b_norm = float(np.linalg.norm(system.rhs))
    return r / b_norm if b_norm > 0.0 else r
