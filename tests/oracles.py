"""Independent brute-force quadrature oracles used across the test suite.

Everything here is composite Simpson on uniform grids, deliberately distinct
from the power series, Gauss rules and closed forms used by the package itself.
Special functions (Dawson's integral) are taken from ``scipy.special``; only
the quadrature is independent.  `residual_check` measures a pressure solution
against its assembled system.
"""

import numpy as np

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


def residual_check(system: LinearSystem, solution: PressureSolution) -> float:
    """Relative residual of a solution against its system (absolute if rhs = 0)."""
    x = solution.p[system.free_nodes]
    r = float(np.linalg.norm(system.matrix @ x - system.rhs))
    b_norm = float(np.linalg.norm(system.rhs))
    return r / b_norm if b_norm > 0.0 else r
