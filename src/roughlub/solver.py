"""P1 finite-element solver for the roughness-corrected pressure equation.

Weak form (test functions q vanish on {x=1}, {y=0} and {y=1}):

    int (h^3 A / 12) grad p . grad q  -  int (h B) U_b . grad q
        + int_{x=0} Q_e q  =  0

Each grid cell is split into two triangles along the lower-left to
upper-right diagonal; both triangles inherit the cell's barycenter data, so
all element integrals are exact for the piecewise-constant coefficients.

On this triangulation the P1 system is a 5-point stencil.  The stiffness
coupling across an edge is -(k/2) cot of the angle opposite it, and the angle
opposite every diagonal is a right angle, so the diagonal couples nothing.
An axis-parallel edge faces a corner with cot = hy/hx (x-edges) or hx/hy
(y-edges) in each of the one or two triangles beside it, so its conductance
is the mean of k = h^3 A / 12 over the adjacent cells (zero outside the
square), times hy/hx or hx/hy.  The shear load integrates each cell's
grad phi_i to half its edges, so a node's load is the difference of the
cell terms h B U_b on either side of it.  `assemble` builds that stencil
directly; the solution is still the P1 solution.

The free nodes form a tensor-product sub-lattice, `Grid.free_lattice()`, so
the reduced system (Dirichlet rows/columns eliminated) is the stencil sliced
to that sub-lattice.  It is symmetric positive definite and is solved with
conjugate gradients preconditioned by one symmetric geometric-multigrid
V-cycle: linear interpolation along each side, Galerkin coarse operators
P^T A P, two weighted-Jacobi sweeps before and after each coarse correction,
and an exact dense solve on a coarsest level of at most COARSEST unknowns.
A side of odd cell count keeps its last node on the coarse lattice, so its
last coarse interval is one fine interval wide.  A side is coarsened only
while it has at least 4 cells and at least half as many as the other side;
on a stretched grid the short side waits (semi-coarsening).  Every grid
thus coarsens down to the dense level, and the iteration count stays
bounded under refinement and on stretched and odd grids.  The interpolation
and restriction matrices depend on the grid alone, so `_transfers(grid)`
keeps those of the last grid asked for, by `_last_key_cache`, the one cache
policy of the package (`postprocess` keeps its profile tables by it too):
solves on the grid of the last solve reuse them, and each solve builds only
its coarse operators and the dense coarsest inverse on them.  Between solves
they hold about 77 bytes per cell (0.44 MiB at 96x64, 4.8 MiB at 256x256,
78 MiB at 1024x1024); a solve on another grid releases them before building
that grid's transfers.

``scipy.sparse`` is imported inside the functions that build matrices, on
the first assembly: importing it costs about 0.3 s, which `import roughlub`,
`coefficients`, `velocity_profile` and `roughlub coeffs` would otherwise pay
without ever solving.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import CoefficientFields, Grid, ScenarioConfig, build_fields

if TYPE_CHECKING:
    import scipy.sparse as sp


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system plus the mapping back to grid nodes."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    grid: Grid  # unknowns are the nodes of grid.free_lattice(), row-major

    @property
    def free_nodes(self) -> np.ndarray:
        """Grid node index of each unknown."""
        lattice = np.arange(self.grid.n_nodes).reshape(self.grid.ny + 1, self.grid.nx + 1)
        return lattice[self.grid.free_lattice()].ravel()


@dataclass(frozen=True)
class PressureSolution:
    """Nodal pressure on the full grid with solver diagnostics."""

    p: np.ndarray
    iterations: int
    residual: float
    levels: tuple[int, ...] = ()  # unknowns per multigrid level, fine to coarse


def assemble(grid: Grid, fields: CoefficientFields,
             u_b: tuple[float, float], q_e: float) -> LinearSystem:
    """Build the reduced stiffness matrix and load vector."""
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny

    k_cell = fields.h1_bar**3 * fields.a / 12.0
    if np.any(k_cell <= 0.0) or not np.all(np.isfinite(k_cell)):
        raise ValueError("non-elliptic cell: h^3 A / 12 must be positive everywhere")
    # built before the load, so that the temporaries of the two never coexist
    matrix = _stiffness(grid, k_cell)

    # int (h B) U_b . grad phi_i: half an edge times the difference of the
    # cell terms on either side of the node (padded as in `_stiffness`)
    c = np.pad((fields.h1_bar * fields.b).reshape(ny, nx), 1)
    c_left, c_right = c[:-1, :-1] + c[1:, :-1], c[:-1, 1:] + c[1:, 1:]
    c_below, c_above = c[:-1, :-1] + c[:-1, 1:], c[1:, :-1] + c[1:, 1:]
    rhs = 0.5 * (u_b[0] * hy * (c_left - c_right) + u_b[1] * hx * (c_below - c_above))
    # inlet edge term: int_{x=0} Q_e phi_i = Q_e * hy / 2 per edge endpoint
    inlet = np.full(ny + 1, q_e * hy)
    inlet[[0, -1]] *= 0.5
    rhs[:, 0] -= inlet
    return LinearSystem(matrix=matrix, rhs=rhs[grid.free_lattice()].ravel(), grid=grid)


def _stiffness(grid: Grid, k_cell: np.ndarray) -> sp.csr_matrix:
    """5-point stiffness matrix on the free nodes for the cell values k_cell."""
    import scipy.sparse as sp
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    # cell data padded by a ring of zeros: node (iy, ix) touches the padded
    # cells [iy:iy+2, ix:ix+2], i.e. below-left, below-right, above-left, above-right
    k = np.pad(k_cell.reshape(ny, nx), 1)
    # face conductances on the node lattice, zero across the outer boundary,
    # sliced to the free nodes
    free = grid.free_lattice()
    west = (0.5 * (k[:-1, :-1] + k[1:, :-1]) * hy / hx)[free]
    east = (0.5 * (k[:-1, 1:] + k[1:, 1:]) * hy / hx)[free]
    south = (0.5 * (k[:-1, :-1] + k[:-1, 1:]) * hx / hy)[free]
    north = (0.5 * (k[1:, :-1] + k[1:, 1:]) * hx / hy)[free]
    diagonal = (west + east + south + north).ravel()
    east[:, -1] = 0.0                     # the last free column's east neighbour is pinned
    x_link = -east.ravel()[:-1]           # unknown i to unknown i + 1
    y_link = -north.ravel()[:-nx]         # unknown i to unknown i + nx (the row above)
    del k, west, east, south, north       # released before the matrix is built
    return sp.diags([y_link, x_link, diagonal, x_link, y_link],
                    [-nx, -1, 0, 1, nx], format="csr")


# Multigrid preconditioner (Briggs, Henson & McCormick, "A Multigrid Tutorial",
# SIAM 2000, ch. 3 and 8): linear interpolation along each side, Galerkin
# coarse operators, weighted Jacobi smoothing, semi-coarsening of stretched grids.
OMEGA = 0.8          # Jacobi weight; omega * max eig(D^-1 A) < 2 keeps it SPD
SWEEPS = 2           # pre- and post-smoothing sweeps per level
COARSEST = 64        # coarsen while a level has more unknowns than this
MAX_ITER = 200       # CG iteration cap; solves take 7 to 16 on the grids measured


@dataclass(frozen=True)
class _Level:
    """One level of the hierarchy; the coarsest carries only its dense inverse."""

    matrix: sp.csr_matrix
    jacobi: np.ndarray | None = None        # omega / diagonal
    restrict: sp.csr_matrix | None = None   # to the next coarser level
    prolong: sp.csr_matrix | None = None    # from the next coarser level
    inverse: np.ndarray | None = None       # dense inverse of the coarsest level


def _coarse_cells(n: int, other: int) -> int:
    """Cells on the next coarser level of a side of n cells: halved, rounding
    up, while it has at least 4 cells and at least half as many as the other
    side; else unchanged."""
    return (n + 1) // 2 if n >= 4 and 2 * n >= other else n


def _interpolation_1d(n: int, coarse: int, flip: bool, free: slice) -> sp.csr_matrix:
    """Linear interpolation from a side of `coarse` cells onto the same side with
    n cells, restricted to the nodes selected by `free` on both.

    Halving puts the coarse nodes at fine nodes 0, 2, 4, ... and n, so for odd
    n the last coarse interval is one fine interval wide; `flip` mirrors them
    to n, n - 2, ... and 0, which moves that narrow interval to the first end.
    An unchanged side interpolates by the identity.  A fine node on a coarse
    node takes its value; one between two takes half of each.
    """
    import scipy.sparse as sp
    on_coarse = np.zeros(n + 1, dtype=bool)
    on_coarse[::1 if coarse == n else 2] = True
    on_coarse[-1] = True  # both end nodes stay, also for odd n
    if flip:
        on_coarse = on_coarse[::-1]
    left = np.cumsum(on_coarse) - 1  # coarse node at or before each fine node
    cols = np.stack((left, left + 1), axis=1)[free]
    vals = np.where(on_coarse[:, None], [1.0, 0.0], 0.5)[free]
    first, stop, _ = free.indices(coarse + 1)
    keep = (vals != 0.0) & (cols >= first) & (cols < stop)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return sp.csr_matrix((vals[keep], cols[keep] - first, indptr),
                         shape=(keep.shape[0], stop - first))


def _last_key_cache(build):
    """`build(key)` kept for the last key only, under one lock.

    A call with the last key returns the held value.  Another key empties
    the slot before `build` runs, so the values of two keys never coexist.
    Keys are hashable, and `build` never returns None.  `cache_clear()`
    empties the slot; `__wrapped__` is `build`.
    """
    lock = threading.Lock()
    slot = {}  # {last key: its value}, or empty

    @functools.wraps(build)
    def cached(key):
        with lock:
            if (held := slot.get(key)) is None:
                slot.clear()
                held = slot[key] = build(key)
            return held

    cached.cache_clear = slot.clear  # atomic, and `cached` reads the slot once
    return cached


@_last_key_cache
def _transfers(grid: Grid) -> tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]:
    """(restrict, prolong) from each multigrid level to the next coarser one.

    P = kron(P_y, P_x) on the free-node lattice: the slices of
    `grid.free_lattice()` select the free nodes on every level.  Odd sides put
    their narrow coarse interval at the last end on even levels and at the
    first end on odd ones, so that it does not shrink relative to the others
    as levels go by.  Coarsening goes on while a level has more than COARSEST
    unknowns; the transfers depend on the grid alone, so solves on one grid
    can share them.
    """
    import scipy.sparse as sp
    rows, cols = grid.free_lattice()
    nx, ny = grid.nx, grid.ny
    transfers = []
    while len(range(ny + 1)[rows]) * len(range(nx + 1)[cols]) > COARSEST:
        flip = len(transfers) % 2 == 1
        cx, cy = _coarse_cells(nx, ny), _coarse_cells(ny, nx)
        prolong = sp.kron(_interpolation_1d(ny, cy, flip, rows),
                          _interpolation_1d(nx, cx, flip, cols), format="csr")
        transfers.append((prolong.T.tocsr(), prolong))
        nx, ny = cx, cy
    return tuple(transfers)


def _hierarchy(system: LinearSystem) -> tuple[_Level, ...]:
    """Galerkin levels A_c = P^T A P on the free-node lattice, finest first,
    for the `_transfers(system.grid)`; the coarsest level is inverted densely."""
    a = system.matrix
    levels = []
    for restrict, prolong in _transfers(system.grid):
        levels.append(_Level(a, OMEGA / a.diagonal(), restrict, prolong))
        a = (restrict @ a @ prolong).tocsr()
    inverse = np.linalg.inv(a.toarray())
    levels.append(_Level(a, inverse=0.5 * (inverse + inverse.T)))
    return tuple(levels)


def _vcycle(levels: tuple[_Level, ...], r: np.ndarray) -> np.ndarray:
    """One symmetric V-cycle for levels[0].matrix z = r, starting from z = 0."""
    level = levels[0]
    if level.inverse is not None:
        return level.inverse @ r
    a, w = level.matrix, level.jacobi
    z = w * r
    for _ in range(SWEEPS - 1):
        z += _residual(a, z, r, w)
    z += level.prolong @ _vcycle(levels[1:], level.restrict @ _residual(a, z, r))
    for _ in range(SWEEPS):
        z += _residual(a, z, r, w)
    return z


def _residual(a: sp.csr_matrix, z: np.ndarray, r: np.ndarray, w=None) -> np.ndarray:
    """r - a z, times the array w if given, in the one buffer of the product a z."""
    t = a @ z
    np.subtract(r, t, out=t)
    return t if w is None else np.multiply(t, w, out=t)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v summed by numpy in one thread, in an order fixed by the build and
    CPU.  BLAS splits a long dot across its threads, so its last digits, and
    the output bytes, would follow the thread count."""
    return float(np.einsum("i,i->", u, v))


# Data near the float range overflows in the norms and products of CG; that
# shows as a non-finite residual, reported as one ConvergenceError.
@np.errstate(over="ignore", invalid="ignore")
def solve_linear(system: LinearSystem, tol: float = 1e-10) -> PressureSolution:
    """Multigrid-preconditioned CG down to a true relative residual <= tol.

    The preconditioner is one symmetric V-cycle of the Galerkin hierarchy on
    `_transfers(system.grid)`; CG stops after MAX_ITER iterations.
    A zero right-hand side short-circuits to the zero solution.  The result
    is deterministic for fixed inputs (fixed operation order), also across
    BLAS thread counts: the reductions of CG are `_dot`s.
    """
    m = system.matrix
    b_max = float(np.abs(system.rhs).max())
    if b_max == 0.0:
        return PressureSolution(p=np.zeros(system.grid.n_nodes), iterations=0, residual=0.0)
    # scaling by a power of two commutes exactly with every operation of CG, so
    # b is scaled up until its largest entry is at least 1/2, and the norms of
    # tiny data do not underflow; larger data are not scaled down, so overflow
    # still shows as a nan residual
    shift = -min(math.frexp(b_max)[1], 0)
    b = np.ldexp(system.rhs, shift) if shift else system.rhs
    b_norm = math.sqrt(_dot(b, b))

    levels = _hierarchy(system)
    x = np.zeros(b.size)
    r = b.copy()
    d = np.empty(b.size)
    rz = None  # no direction yet: CG starts, or restarts, from d = z
    # the updates run in place, in the order and on the operands of
    # d = z + beta d, x += alpha d and r -= alpha Ad, so the bits do not move
    for iterations in range(1, MAX_ITER + 1):
        z = _vcycle(levels, r)
        rz_next = _dot(r, z)
        if rz is None:
            d[:] = z
        else:
            d *= rz_next / rz
            d += z
        rz = rz_next
        ad = m @ d
        alpha = rz / _dot(d, ad)
        x += np.multiply(d, alpha, out=z)  # z is dead once d holds it
        r -= np.multiply(ad, alpha, out=ad)
        del z, ad  # freed before the next V-cycle allocates its own
        r_norm = math.sqrt(_dot(r, r))
        if not math.isfinite(r_norm):
            residual = math.nan  # no later iterate is finite either
            break
        if r_norm <= tol * b_norm or iterations == MAX_ITER:
            # recurrence residual can drift; confirm with the true residual
            true_r = b - m @ x
            residual = math.sqrt(_dot(true_r, true_r)) / b_norm
            if residual <= tol:
                break
            # restart from the true residual: the old direction and r.z belong to
            # the drifted recurrence residual, and keeping them makes it grow
            r, rz = true_r, None
    if not residual <= tol:  # a nan residual fails too
        raise ConvergenceError(
            f"CG did not converge in {iterations} iterations "
            f"(relative residual {residual:.3e} > tol {tol:.3e})")

    grid = system.grid
    full = np.zeros((grid.ny + 1, grid.nx + 1))
    free = full[grid.free_lattice()]  # a view: the free nodes need no index array
    free[...] = np.ldexp(x, -shift, out=x).reshape(free.shape)
    return PressureSolution(p=full.ravel(), iterations=iterations, residual=residual,
                            levels=tuple(level.matrix.shape[0] for level in levels))


def _solve(config: ScenarioConfig) -> tuple[Grid, PressureSolution]:
    grid, fields = build_fields(config)
    system = assemble(grid, fields, config.u_b, config.q_e)
    del fields  # CG reads the system alone
    return grid, solve_linear(system, config.tol)


def solve_fields(*configs: ScenarioConfig) -> tuple[tuple[Grid, PressureSolution], ...]:
    """Fields -> assembly -> linear solve of each of `configs`, one after another.

    Each config's coefficient fields are released once its system is
    assembled, before its CG starts, so no CG runs beside coefficient fields
    and no two configs' fields coexist.  Solves on one grid share one set of
    multigrid transfers (`_transfers`).  Returns (grid, solution) per config.
    """
    return tuple(_solve(config) for config in configs)


def solve_reynolds(config: ScenarioConfig) -> PressureSolution:
    """Full pipeline: fields -> assembly -> linear solve."""
    return solve_fields(config)[0][1]

