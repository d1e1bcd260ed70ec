"""Reference computations the benchmark checks roughlub's outputs against.

Nothing here calls into roughlub: the coefficients come from scipy.special
closed forms (or Simpson sums of the defining integrals where those cancel),
and the pressure system is a 5-point stencil built from per-cell data.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy import integrate, special

# Below this intensity the closed form for A loses digits to cancellation.
CLOSED_FORM_MIN_N = 0.1
_SIMPSON_PANELS = 4096  # even; error ~ N^2 h^4, far below 1e-16 for N < 0.1


def _simpson(y: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _small_n_coefficients(n: float) -> tuple[float, float]:
    """A and B from Simpson sums of I1, I2 - 1 and I3, grouped so that every
    term vanishes linearly with N before the division by N."""
    s = np.linspace(0.0, 1.0, _SIMPSON_PANELS + 1)
    h = 1.0 / _SIMPSON_PANELS
    i1 = _simpson(np.exp(0.5 * n * s * s), h)
    i2m1 = _simpson(np.expm1(-0.5 * n * s * s), h)
    r = math.sqrt(0.5 * n)
    # inner integral int_0^s exp(-N t^2/2) dt = sqrt(pi)/(2r) erf(r s)
    inner = math.sqrt(math.pi) / (2.0 * r) * special.erf(r * s)
    i3 = _simpson(np.exp(0.5 * n * s * s) * inner, h)
    em = math.expm1(0.5 * n)
    a = 12.0 * (em * (1.0 + i2m1) + i2m1 - em * i3 / i1) / n
    b = em / n / i1
    return a, b


def coefficients(n: float) -> tuple[float, float]:
    """Reference (A, B) at intensity n in [0, 700].

    With r = sqrt(N/2): I1 e^{-N/2} = dawsn(r)/r, B = (1 - e^{-N/2}) / (N I1 e^{-N/2})
    and A = (12/N) [sqrt(pi/2N) (1 - erfcx(r) + (1 - e^{-N/2}) E / (I1 e^{-N/2})) - 1]
    where E = int_0^1 erfcx(s r) ds.
    """
    n = float(n)
    if n == 0.0:
        return 1.0, 0.5
    if n < CLOSED_FORM_MIN_N:
        return _small_n_coefficients(n)
    r = math.sqrt(0.5 * n)
    i1_scaled = special.dawsn(r) / r
    one_minus = -math.expm1(-0.5 * n)
    with warnings.catch_warnings():
        # quad warns when round-off stops it short of 2e-14; the result is
        # still far inside the 1e-12 the checks need
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        e_int, _ = integrate.quad(lambda s: special.erfcx(s * r), 0.0, 1.0,
                                  epsabs=0.0, epsrel=2e-14, limit=200)
    a = 12.0 / n * (math.sqrt(math.pi / (2.0 * n))
                    * (1.0 - special.erfcx(r) + one_minus * e_int / i1_scaled) - 1.0)
    b = one_minus / (n * i1_scaled)
    return a, b


def cosine_intensity(amplitude: float, wavenumber: int) -> float:
    """N of a ripple amplitude * cos(2 pi k X): mean squared gradient."""
    return 0.5 * (amplitude * 2.0 * math.pi * wavenumber) ** 2


def channel_gap(x: np.ndarray) -> np.ndarray:
    """Reference channel gap h = (2x - 1)^2 + 0.5."""
    return (2.0 * x - 1.0) ** 2 + 0.5


def cell_barycenters(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycenters in cell order (cell = cy * nx + cx)."""
    cx, cy = np.meshgrid(np.arange(nx), np.arange(ny))
    return ((cx + 0.5) / nx).ravel(), ((cy + 0.5) / ny).ravel()


def node_coords(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates in node order (node = iy * (nx + 1) + ix)."""
    ix, iy = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    return (ix / nx).ravel(), (iy / ny).ravel()


def inside(rects, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Index of the closed rectangle (x0, y0, x1, y1) holding each point, or -1."""
    out = np.full(np.shape(x), -1)
    for k, (x0, y0, x1, y1) in enumerate(rects):
        out[(x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)] = k
    return out


def stencil_system(nx: int, ny: int, k_cell: np.ndarray, c_cell: np.ndarray,
                   u_b: tuple[float, float], q_e: float):
    """Reduced 5-point system for the pressure on the unit square.

    k_cell = h^3 A / 12 and c_cell = h B per cell (cell = cy * nx + cx).  A
    face's conductance is the mean of k over the (one or two) cells beside
    it.  The load at a node is the difference of c U_b over the cells on
    either side of it, times half a cell edge, minus the inlet flux on
    {x = 0}.  Unknowns are the nodes with x < 1 and 0 < y < 1; returns
    (matrix, rhs, free node indices).
    """
    hx, hy = 1.0 / nx, 1.0 / ny
    k = np.zeros((ny + 2, nx + 2))   # cells padded by a ring of zeros
    c = np.zeros((ny + 2, nx + 2))
    k[1:-1, 1:-1] = k_cell.reshape(ny, nx)
    c[1:-1, 1:-1] = c_cell.reshape(ny, nx)
    # node (iy, ix) touches padded cells (iy, ix), (iy, ix + 1), (iy + 1, ix)
    # and (iy + 1, ix + 1): below-left, below-right, above-left, above-right
    ll, lr = k[:-1, :-1], k[:-1, 1:]   # below-left and below-right of node
    ul, ur = k[1:, :-1], k[1:, 1:]     # above-left and above-right of node
    west = 0.5 * (ll + ul) * hy / hx   # conductance of the face to node ix - 1
    east = 0.5 * (lr + ur) * hy / hx
    south = 0.5 * (ll + lr) * hx / hy
    north = 0.5 * (ul + ur) * hx / hy
    diag = west + east + south + north

    cl, cr = c[:-1, :-1] + c[1:, :-1], c[:-1, 1:] + c[1:, 1:]
    cb, ct = c[:-1, :-1] + c[:-1, 1:], c[1:, :-1] + c[1:, 1:]
    rhs = 0.5 * (u_b[0] * hy * (cl - cr) + u_b[1] * hx * (cb - ct))
    inlet = np.zeros((ny + 1, nx + 1))
    inlet[:-1, 0] += 0.5 * q_e * hy
    inlet[1:, 0] += 0.5 * q_e * hy
    rhs = rhs - inlet

    n_nodes = (nx + 1) * (ny + 1)
    idx = np.arange(n_nodes).reshape(ny + 1, nx + 1)
    pairs = ((idx[:, :-1], idx[:, 1:], east[:, :-1]),    # (ix, ix + 1)
             (idx[:-1, :], idx[1:, :], north[:-1, :]))   # (iy, iy + 1)
    rows = [idx.ravel()]
    cols = [idx.ravel()]
    vals = [diag.ravel()]
    for a, b, w in pairs:
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [-w.ravel(), -w.ravel()]
    full = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_nodes, n_nodes))
    xs, ys = node_coords(nx, ny)
    free = np.flatnonzero((xs < 1.0) & (ys > 0.0) & (ys < 1.0))
    return full[free][:, free].tocsr(), rhs.ravel()[free], free


def relative_residual(matrix, rhs: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs))


def nodal_l2(values: np.ndarray, nx: int, ny: int, keep: np.ndarray | None = None) -> float:
    """Trapezoid-weighted L2 norm of nodal values on the unit square."""
    wx = np.ones(nx + 1)
    wx[[0, -1]] = 0.5
    wy = np.ones(ny + 1)
    wy[[0, -1]] = 0.5
    w = np.outer(wy, wx).ravel() / (nx * ny)
    if keep is not None:
        w = np.where(keep, w, 0.0)
    return math.sqrt(float(np.sum(w * values * values)))
