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

The reduced system (Dirichlet rows/columns eliminated) is symmetric positive
definite and is solved with conjugate gradients preconditioned by one
symmetric geometric-multigrid V-cycle: bilinear prolongation on the node
lattice, Galerkin coarse operators P^T A P, two weighted-Jacobi sweeps
before and after each coarse correction, and an exact dense solve on a
small coarsest level.  The iteration count then stays bounded as the grid
is refined, as long as the cell counts halve evenly down to that level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficients import couette_coeff, poiseuille_coeff
from .geometry import (CoefficientFields, GapProfile, Grid, RoughnessSpec,
                       ScenarioConfig, build_fields, evaluate_gap)


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system plus the mapping back to grid nodes."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free_nodes: np.ndarray  # grid node index of each unknown
    n_nodes: int
    nx: int  # cells per side: the nodes form an (ny + 1) x (nx + 1) lattice
    ny: int


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
    free = np.flatnonzero(~grid.dirichlet_mask())
    # reduced before the load is built, so that the full-lattice temporaries
    # of the two never coexist
    matrix = _stiffness(grid, k_cell)[free][:, free]

    # int (h B) U_b . grad phi_i: half an edge times the difference of the
    # cell terms on either side of the node (padded as in `_stiffness`)
    c = np.pad((fields.h1_bar * fields.b).reshape(ny, nx), 1)
    c_left, c_right = c[:-1, :-1] + c[1:, :-1], c[:-1, 1:] + c[1:, 1:]
    c_below, c_above = c[:-1, :-1] + c[:-1, 1:], c[1:, :-1] + c[1:, 1:]
    rhs = 0.5 * (u_b[0] * hy * (c_left - c_right) + u_b[1] * hx * (c_below - c_above))
    # inlet edge term: int_{x=0} Q_e phi_i = Q_e * hy / 2 per edge endpoint
    inlet = np.zeros((ny + 1, nx + 1))
    inlet[:-1, 0] += 0.5 * q_e * hy
    inlet[1:, 0] += 0.5 * q_e * hy
    rhs = (rhs - inlet).ravel()

    return LinearSystem(matrix=matrix, rhs=rhs[free], free_nodes=free,
                        n_nodes=grid.n_nodes, nx=nx, ny=ny)


def _stiffness(grid: Grid, k_cell: np.ndarray) -> sp.csr_matrix:
    """5-point stiffness matrix on all grid nodes for the cell values k_cell."""
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    # cell data padded by a ring of zeros: node (iy, ix) touches the padded
    # cells [iy:iy+2, ix:ix+2], i.e. below-left, below-right, above-left, above-right
    k = np.pad(k_cell.reshape(ny, nx), 1)
    # face conductances on the node lattice; zero across the outer boundary
    west = 0.5 * (k[:-1, :-1] + k[1:, :-1]) * hy / hx
    east = 0.5 * (k[:-1, 1:] + k[1:, 1:]) * hy / hx
    south = 0.5 * (k[:-1, :-1] + k[:-1, 1:]) * hx / hy
    north = 0.5 * (k[1:, :-1] + k[1:, 1:]) * hx / hy
    x_link = -east.ravel()[:-1]           # node i to node i + 1
    y_link = -north.ravel()[:-(nx + 1)]   # node i to node i + nx + 1
    return sp.diags(
        [y_link, x_link, (west + east + south + north).ravel(), x_link, y_link],
        [-(nx + 1), -1, 0, 1, nx + 1], format="csr")


# Multigrid preconditioner (Briggs, Henson & McCormick, "A Multigrid Tutorial",
# SIAM 2000, ch. 3 and 8): bilinear prolongation on the node lattice, Galerkin
# coarse operators, weighted Jacobi smoothing.
OMEGA = 0.8          # Jacobi weight; omega * max eig(D^-1 A) < 2 keeps it SPD
SWEEPS = 2           # pre- and post-smoothing sweeps per level
COARSEST = 64        # coarsen while a level has more unknowns than this
DENSE_MAX = 512      # a coarsest level up to this size is solved exactly
COARSE_SWEEPS = 4    # Jacobi sweeps on a larger coarsest level


@dataclass(frozen=True)
class _Level:
    """One level of the hierarchy; only the coarsest has no `prolong`."""

    matrix: sp.csr_matrix
    jacobi: np.ndarray                      # omega / diagonal
    restrict: sp.csr_matrix | None = None   # to the next coarser level
    prolong: sp.csr_matrix | None = None    # from the next coarser level
    inverse: np.ndarray | None = None       # dense inverse of a small coarsest level


def _prolong_1d(n: int) -> sp.csr_matrix:
    """Linear interpolation from n/2 + 1 coarse nodes to n + 1 fine nodes."""
    fine = np.arange(n + 1)
    odd = fine[1::2]
    rows = np.concatenate([fine, odd])
    cols = np.concatenate([fine // 2, odd // 2 + 1])
    vals = np.concatenate([np.where(fine % 2 == 1, 0.5, 1.0), np.full(odd.size, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n // 2 + 1))


def _hierarchy(system: LinearSystem) -> tuple[_Level, ...]:
    """Galerkin levels A_c = P^T A P on the node lattice, finest first.

    P = kron(P_y, P_x) restricted to the free nodes of both lattices; a
    coarse node is free iff the fine node at the same place is.  Coarsening
    stops at an odd cell count, a side of fewer than 4 cells, or a level of
    at most COARSEST unknowns.
    """
    a, nx, ny = system.matrix, system.nx, system.ny
    free = np.zeros(system.n_nodes, dtype=bool)
    free[system.free_nodes] = True
    free = free.reshape(ny + 1, nx + 1)
    levels = []
    while (nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) >= 4
           and a.shape[0] > COARSEST):
        coarse_free = free[::2, ::2]
        prolong = sp.kron(_prolong_1d(ny), _prolong_1d(nx), format="csr")
        prolong = prolong[np.flatnonzero(free)][:, np.flatnonzero(coarse_free)]
        restrict = prolong.T.tocsr()
        levels.append(_Level(a, OMEGA / a.diagonal(), restrict, prolong))
        a = (restrict @ a @ prolong).tocsr()
        nx, ny, free = nx // 2, ny // 2, coarse_free
    inverse = None
    if a.shape[0] <= DENSE_MAX:
        inverse = np.linalg.inv(a.toarray())
        inverse = 0.5 * (inverse + inverse.T)
    levels.append(_Level(a, OMEGA / a.diagonal(), inverse=inverse))
    return tuple(levels)


def _vcycle(levels: tuple[_Level, ...], r: np.ndarray) -> np.ndarray:
    """One symmetric V-cycle for levels[0].matrix z = r, starting from z = 0."""
    level = levels[0]
    if level.inverse is not None:
        return level.inverse @ r
    a, w = level.matrix, level.jacobi
    sweeps = SWEEPS if level.prolong is not None else COARSE_SWEEPS
    z = w * r
    for _ in range(sweeps - 1):
        z += w * (r - a @ z)
    if level.prolong is None:
        return z
    z += level.prolong @ _vcycle(levels[1:], level.restrict @ (r - a @ z))
    for _ in range(sweeps):
        z += w * (r - a @ z)
    return z


def solve_linear(system: LinearSystem, tol: float = 1e-10,
                 max_iter: int | None = None) -> PressureSolution:
    """Multigrid-preconditioned CG down to a true relative residual <= tol.

    The preconditioner is one symmetric V-cycle of `_hierarchy(system)`.
    A zero right-hand side short-circuits to the zero solution.  The result
    is deterministic for fixed inputs (fixed operation order).
    """
    m, b = system.matrix, system.rhs
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    b_norm = float(np.linalg.norm(b))
    full = np.zeros(system.n_nodes)
    if b_norm == 0.0:
        return PressureSolution(p=full, iterations=0, residual=0.0)

    levels = _hierarchy(system)
    x = np.zeros(n)
    r = b.copy()
    z = _vcycle(levels, r)
    d = z.copy()
    rz = float(r @ z)
    iterations = 0
    residual = 1.0
    for k in range(1, max_iter + 1):
        ad = m @ d
        alpha = rz / float(d @ ad)
        x += alpha * d
        r -= alpha * ad
        iterations = k
        if np.linalg.norm(r) <= tol * b_norm:
            # recurrence residual can drift; confirm with the true residual
            true_r = b - m @ x
            residual = float(np.linalg.norm(true_r) / b_norm)
            if residual <= tol:
                break
            r = true_r
        z = _vcycle(levels, r)
        rz_next = float(r @ z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    else:
        residual = float(np.linalg.norm(b - m @ x) / b_norm)
        if residual > tol:
            raise ConvergenceError(
                f"CG did not converge in {max_iter} iterations "
                f"(relative residual {residual:.3e} > tol {tol:.3e})")

    full[system.free_nodes] = x
    return PressureSolution(p=full, iterations=iterations, residual=residual,
                            levels=tuple(level.matrix.shape[0] for level in levels))


def residual_check(system: LinearSystem, solution: PressureSolution) -> float:
    """Relative residual of a solution against its system (absolute if rhs = 0)."""
    x = solution.p[system.free_nodes]
    r = float(np.linalg.norm(system.matrix @ x - system.rhs))
    b_norm = float(np.linalg.norm(system.rhs))
    return r / b_norm if b_norm > 0.0 else r


def solve_fields(config: ScenarioConfig, grid: Grid,
                 fields: CoefficientFields) -> PressureSolution:
    """Assembly -> linear solve on the grid and fields built for `config`."""
    system = assemble(grid, fields, config.u_b, config.q_e)
    return solve_linear(system, tol=config.tol, max_iter=config.max_iter)


def solve_reynolds(config: ScenarioConfig) -> PressureSolution:
    """Full pipeline: fields -> assembly -> linear solve."""
    return solve_fields(config, *build_fields(config))


def oracle_1d(gap: GapProfile, roughness: RoughnessSpec, u_bx: float,
              q_e: float, samples: int = 129) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pressure for y-independent data, for solver validation.

    In one horizontal dimension the flux (h^3 A / 12) p' - h B u_bx is the
    constant q_e, so with p(1) = 0

        p(x) = - int_x^1 12 (q_e + h(s) B(s) u_bx) / (h(s)^3 A(s)) ds.

    The integral is evaluated by composite Simpson with >= 2^14 panels per
    smooth piece; rough-region edges become panel boundaries so the
    discontinuous coefficients never straddle a panel.
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

    breaks = {0.0, 1.0}
    for r in roughness.regions:
        breaks.update((r.x0, r.x1))
    breaks = np.array(sorted(b for b in breaks if 0.0 <= b <= 1.0))

    def integrand(s: np.ndarray) -> np.ndarray:
        h = np.asarray(evaluate_gap(gap, s, np.full_like(s, 0.5)))
        n = roughness.intensity_at(s, np.full_like(s, 0.5))
        a = np.empty_like(h)
        b = np.empty_like(h)
        for value in np.unique(n):
            sel = n == value
            a[sel] = poiseuille_coeff(value)
            b[sel] = couette_coeff(value)
        return 12.0 * (q_e + h * b * u_bx) / (h**3 * a)

    def simpson(lo: float, hi: float, panels: int = 2**14) -> float:
        if hi - lo <= 0.0:
            return 0.0
        s = np.linspace(lo, hi, 2 * panels + 1)
        # nudge the end samples off the piece boundary so a coefficient jump
        # shared with the neighbouring piece is sampled on the correct side
        s[0] += 1e-13
        s[-1] -= 1e-13
        y = integrand(s)
        h = (hi - lo) / (2 * panels)
        return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()))

    x = np.linspace(0.0, 1.0, samples)
    p = np.zeros(samples)
    for i, xi in enumerate(x):
        cuts = np.unique(np.concatenate(([xi], breaks[breaks > xi])))
        p[i] = -sum(simpson(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
    return x, p
