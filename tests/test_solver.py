import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughlub import solver
from roughlub.geometry import (CoefficientFields, GapProfile, Grid, RoughnessSpec,
                               RoughRegion, ScenarioConfig, build_fields)
from roughlub.solver import ConvergenceError, assemble, solve_linear, solve_reynolds

from oracles import oracle_1d, residual_check, simpson

FLAT_GAP = GapProfile(kind="constant", c0=1.0)


def flat_config(**kw):
    kw.setdefault("gap", FLAT_GAP)
    return ScenarioConfig(**kw)


def assembled(config):
    grid, fields = build_fields(config)
    return grid, assemble(grid, fields, config.u_b, config.q_e)


def pinned_by_coordinates(grid):
    """Dirichlet nodes: {x=1}, and {y=0} and {y=1} unless the y sides are natural."""
    x, y = grid.node_coords()
    return (x == 1.0) | (not grid.y_sides_natural) & ((y == 0.0) | (y == 1.0))


def assert_symmetric(levels, u, v):
    """<u, Mv> = <v, Mu> for the V-cycle M, to round-off on the Cauchy-Schwarz
    scale sqrt(<u, Mu> <v, Mv>); M must be positive definite for that scale."""
    mu, mv = solver._vcycle(levels, u), solver._vcycle(levels, v)
    assert u @ mu > 0.0 and v @ mv > 0.0
    assert abs(u @ mv - v @ mu) <= 1e-14 * np.sqrt((u @ mu) * (v @ mv))


class TestAssemble:
    def test_two_by_two_structure(self):
        grid, system = assembled(flat_config(nx=2, ny=2))
        assert system.grid.n_nodes == 9
        # dirichlet on three sides leaves the inlet mid-edge node + center
        assert system.rhs.size == 2
        dense = system.matrix.toarray()
        assert np.array_equal(dense, dense.T)

    def test_matrix_symmetric(self):
        _, system = assembled(ScenarioConfig(nx=13, ny=7))
        asym = abs(system.matrix - system.matrix.T)
        assert asym.max() == 0.0

    def test_balanced_couette_rhs_vanishes(self):
        # constant data: the shear term integrates by parts onto the inlet
        # edge and cancels the flux term exactly when q_e = -b * h * ubx
        _, system = assembled(flat_config(nx=16, ny=16, q_e=-0.5))
        assert np.linalg.norm(system.rhs) <= 1e-14

    def test_y_shear_load_is_the_transposed_x_shear_load(self):
        # the x <-> y mirror maps the lower-left to upper-right diagonals onto
        # themselves, so on an n x n grid the load of U_b = (0, u) on the
        # transposed data is the transposed load of U_b = (u, 0), at the
        # interior nodes, where the sides' conditions do not enter
        n = 12
        grid = Grid(n, n, y_sides_natural=True)
        h1_bar, a, b = np.random.default_rng(5).uniform(0.2, 2.0, (3, n, n))

        def interior_load(u_b, transpose):
            cells = (np.zeros((n, n)), a, b, h1_bar)
            fields = CoefficientFields(*(c.T.ravel() if transpose else c.ravel()
                                         for c in cells))
            system = assemble(grid, fields, u_b, 0.0)
            load = np.zeros(grid.n_nodes)
            load[system.free_nodes] = system.rhs
            return load.reshape(n + 1, n + 1)[1:-1, 1:-1]

        x_load = interior_load((0.7, 0.0), transpose=False)
        y_load = interior_load((0.0, 0.7), transpose=True)
        assert np.abs(x_load).max() > 0.01
        assert np.array_equal(y_load.T, x_load)

    def test_five_point_stencil_structure(self):
        # the diagonal of each cell couples nothing, so only the diagonal and
        # the axis-parallel links between free nodes are stored
        grid, system = assembled(ScenarioConfig(nx=13, ny=7))
        matrix = system.matrix
        assert (matrix.data != 0).all()
        free = np.zeros(grid.n_nodes, dtype=bool)
        free[system.free_nodes] = True
        lattice = free.reshape(grid.ny + 1, grid.nx + 1)
        links = ((lattice[:, :-1] & lattice[:, 1:]).sum()
                 + (lattice[:-1, :] & lattice[1:, :]).sum())
        assert matrix.nnz == system.rhs.size + 2 * links

    @pytest.mark.parametrize("nx, ny", [(13, 7), (48, 12)])
    @pytest.mark.parametrize("natural", [False, True])
    def test_free_nodes_are_the_non_dirichlet_nodes(self, nx, ny, natural):
        grid, system = assembled(ScenarioConfig(nx=nx, ny=ny, y_sides_natural=natural))
        free = np.flatnonzero(~pinned_by_coordinates(grid))
        assert np.array_equal(system.free_nodes, free)
        assert system.rhs.size == free.size

    def test_classical_limit_entrywise(self):
        # smooth fields must reproduce the h^3/12, h/2 weak form exactly
        config = ScenarioConfig(nx=12, ny=12)
        grid, fields = build_fields(config)
        system = assemble(grid, fields, config.u_b, config.q_e)
        classical = type(fields)(n_psi=fields.n_psi,
                                 a=np.ones_like(fields.a),
                                 b=np.full_like(fields.b, 0.5),
                                 h1_bar=fields.h1_bar)
        reference = assemble(grid, classical, config.u_b, config.q_e)
        assert abs(system.matrix - reference.matrix).max() <= 1e-14
        assert np.abs(system.rhs - reference.rhs).max() <= 1e-14

    def test_ellipticity_guard(self):
        config = ScenarioConfig(nx=4, ny=4)
        grid, fields = build_fields(config)
        broken = type(fields)(n_psi=fields.n_psi, a=-fields.a, b=fields.b,
                              h1_bar=fields.h1_bar)
        with pytest.raises(ValueError, match="elliptic"):
            assemble(grid, broken, config.u_b, config.q_e)


class TestSolveLinear:
    def test_zero_rhs_short_circuit(self):
        _, system = assembled(flat_config(nx=8, ny=8, q_e=-0.5))
        solution = solve_linear(system)
        assert np.all(solution.p == 0.0)
        assert solution.iterations == 0
        assert solution.residual == 0.0

    def test_converged_residual_within_tolerance(self):
        _, system = assembled(ScenarioConfig(nx=32, ny=32))
        solution = solve_linear(system, tol=1e-10)
        assert solution.residual <= 1e-10
        assert residual_check(system, solution) <= 1e-10

    def test_dirichlet_nodes_exactly_zero(self):
        config = ScenarioConfig(nx=16, ny=16)
        grid, _ = build_fields(config)
        solution = solve_reynolds(config)
        assert np.all(solution.p[pinned_by_coordinates(grid)] == 0.0)

    def test_nonconvergence_raises(self):
        # 32x32 stalls near a relative residual of 9e-15, so 1e-16 is out of reach
        _, system = assembled(ScenarioConfig(nx=32, ny=32))
        with pytest.raises(ConvergenceError, match="residual"):
            solve_linear(system, tol=1e-16)

    @pytest.mark.parametrize("data", [dict(q_e=1e200), dict(q_e=1e154),
                                      dict(u_b=(1e308, 0.0))])
    def test_overflow_raises_convergence_error(self, data):
        # the products in CG overflow to a nan residual; that is no convergence,
        # and it is reported without a numpy warning
        _, system = assembled(ScenarioConfig(nx=16, ny=16, **data))
        with pytest.raises(ConvergenceError, match="relative residual nan"):
            solve_linear(system)

    def test_default_iteration_cap_is_fixed(self):
        # an unreachable tolerance stops at MAX_ITER, whatever the unknowns
        _, system = assembled(ScenarioConfig(nx=16, ny=16))
        with pytest.raises(ConvergenceError, match="in 200 iterations"):
            solve_linear(system, tol=1e-17)

    def test_failed_true_residual_check_restarts_cg(self):
        # 256x4 with natural y sides cannot reach 1e-12 (its sparse-LU floor is
        # 1.6e-12); restarted CG stalls at that floor instead of drifting away
        _, system = assembled(ScenarioConfig(nx=256, ny=4, y_sides_natural=True))
        with pytest.raises(ConvergenceError, match="in 200 iterations") as failure:
            solve_linear(system, tol=1e-12)
        residual = float(re.search(r"relative residual (\S+)", str(failure.value))[1])
        assert residual <= 2e-12

    def test_restart_then_converges(self, monkeypatch):
        # 104x4 with natural y sides: at iteration 9 the recurrence residual
        # reads 9.0e-13 but the true one 1.078e-12, so CG restarts from the
        # true residual once and stops at iteration 10 at 3.3e-13.  A solve
        # takes 1 + 3 iterations + checks `_dot`s, one per true-residual check
        _, system = assembled(ScenarioConfig(nx=104, ny=4, y_sides_natural=True))
        dots = []
        dot = solver._dot

        def spy(u, v):
            dots.append(None)
            return dot(u, v)

        monkeypatch.setattr(solver, "_dot", spy)
        solution = solve_linear(system, tol=1e-12)
        assert solution.iterations == 10
        assert len(dots) - 1 - 3 * solution.iterations == 2  # one failed check, one passed
        assert solution.residual <= 1e-12
        assert residual_check(system, solution) <= 1e-12

    def test_peak_memory_at_most_16_vectors(self):
        # fig3 at 128^2 with the transfers held peaks at about 15 vectors of
        # the unknowns: the Galerkin hierarchy, the scaled b, x, r, d, z, Ad
        # and a V-cycle's temporaries; a copy per CG update, or an index array
        # for the full-grid pressure after CG, would exceed 16
        _, system = assembled(ScenarioConfig(nx=128, ny=128, roughness=FIG3))
        solve_linear(system)
        tracemalloc.start()
        try:
            solve_linear(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * system.rhs.nbytes

    def test_deterministic(self):
        config = ScenarioConfig(nx=24, ny=24)
        a = solve_reynolds(config)
        b = solve_reynolds(config)
        assert np.array_equal(a.p, b.p)
        assert a.iterations == b.iterations


FIG3 = RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),))
# a centred N = 700 patch in a channel narrowing to 0.01: h^3 A / 12 spans over 1e7
CONTRAST = dict(roughness=RoughnessSpec((RoughRegion(0.25, 0.25, 0.75, 0.75, n=700.0),)),
                gap=GapProfile(c1=0.01))


class TestMultigrid:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_iterations_bounded_under_refinement(self, n):
        _, system = assembled(ScenarioConfig(nx=n, ny=n, roughness=FIG3))
        assert solve_linear(system).iterations <= 12

    @pytest.mark.parametrize("nx, ny", [
        (250, 250), (100, 100), (97, 64), (1024, 16), (64, 512), (4096, 4), (13, 7)])
    def test_iterations_bounded_on_odd_and_stretched_grids(self, nx, ny):
        # odd and stretched grids coarsen too, down to the dense level
        _, system = assembled(ScenarioConfig(nx=nx, ny=ny, roughness=FIG3))
        solution = solve_linear(system)
        assert solution.iterations <= 12
        assert solution.levels[-1] <= solver.COARSEST

    @pytest.mark.parametrize("nx, ny", [(64, 64), (250, 250), (97, 64), (1024, 16)])
    def test_iterations_bounded_under_contrast(self, nx, ny):
        _, system = assembled(ScenarioConfig(nx=nx, ny=ny, **CONTRAST))
        assert solve_linear(system).iterations <= 16

    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(2, 300), ny=st.integers(2, 300), natural=st.booleans())
    # a bound relative to u.Mv, a sum of random signs, failed here at round-off
    @example(nx=289, ny=120, natural=False)
    def test_any_grid_preconditioned_and_converges(self, nx, ny, natural):
        config = ScenarioConfig(nx=nx, ny=ny, roughness=FIG3, y_sides_natural=natural)
        _, system = assembled(config)
        levels = solver._hierarchy(system)
        assert levels[-1].matrix.shape[0] <= solver.COARSEST
        rng = np.random.default_rng(nx * 1000 + ny)
        assert_symmetric(levels, *rng.standard_normal((2, system.rhs.size)))
        solution = solve_linear(system)
        assert solution.iterations <= 20
        assert residual_check(system, solution) <= config.tol

    @pytest.mark.parametrize("n", range(4, 10))
    @pytest.mark.parametrize("flip", [False, True])
    def test_prolongation_reproduces_linear_functions(self, n, flip):
        # coarse nodes sit at fine nodes 0, 2, 4, ... and n, or mirrored
        coarse = np.unique(np.r_[0:n + 1:2, n])
        if flip:
            coarse = n - coarse[::-1]
        full = solver._interpolation_1d(n, coarse.size - 1, flip, slice(None))
        assert full.shape == (n + 1, coarse.size)
        assert np.array_equal(full @ (3.0 * coarse - 1.0), 3.0 * np.arange(n + 1) - 1.0)
        # on the free slices: the same, with the values of the dropped coarse
        # nodes, which are Dirichlet nodes, held at zero
        for free in (slice(1, -1), slice(None, -1)):
            values = 3.0 * coarse - 1.0
            values[np.setdiff1d(np.arange(coarse.size), np.arange(coarse.size)[free])] = 0.0
            prolong = solver._interpolation_1d(n, coarse.size - 1, flip, free)
            assert prolong.shape == (len(range(n + 1)[free]), len(range(coarse.size)[free]))
            assert np.array_equal(prolong @ values[free], (full @ values)[free])

    @pytest.mark.parametrize("nx, ny", [(13, 7), (97, 64), (1024, 16), (41, 289)])
    def test_prolongation_reproduces_bilinear_functions(self, nx, ny):
        # on every level, fine nodes on the free lattice get the values of a
        # function bilinear in the lattice indices (interpolation is by index)
        # that vanishes on the pinned side x = 1; 1024 x 16 keeps its short
        # side, which interpolates by the identity
        grid = Grid(nx, ny, y_sides_natural=True)
        rows, cols = grid.free_lattice()

        def on_lattice(ix, iy):
            return ((ix[-1] - ix)[None, :] * (2.0 + 3.0 * iy)[:, None])[rows, cols].ravel()

        def coarse_nodes(n, other, flip):
            """Fine index of each coarse node of a side of n cells."""
            if n < 4 or 2 * n < other:
                return np.arange(n + 1)
            keep = np.unique(np.r_[0:n + 1:2, n])
            return n - keep[::-1] if flip else keep

        transfers = solver._transfers(grid)
        for level, (restrict, prolong) in enumerate(transfers):
            flip = level % 2 == 1
            cx, cy = coarse_nodes(nx, ny, flip), coarse_nodes(ny, nx, flip)
            assert np.array_equal(prolong @ on_lattice(cx, cy),
                                  on_lattice(np.arange(nx + 1), np.arange(ny + 1)))
            assert (restrict != prolong.T).nnz == 0
            nx, ny = cx.size - 1, cy.size - 1
        assert transfers and (nx + 1) * (ny + 1) - (ny + 1) <= solver.COARSEST

    def test_odd_sides_alternate_the_narrow_interval(self):
        # 289 -> 145 -> 73 cells on natural y sides: with the narrow coarse
        # interval always at the last end this took 23 iterations
        config = ScenarioConfig(nx=41, ny=289, roughness=FIG3, y_sides_natural=True)
        _, system = assembled(config)
        assert solve_linear(system).iterations <= 16

    def test_levels_coarsen_to_small_dense_level(self):
        _, system = assembled(ScenarioConfig(nx=64, ny=64, roughness=FIG3))
        levels = solve_linear(system).levels
        assert levels == (4032, 992, 240, 56)
        assert levels[0] == system.rhs.size

    @pytest.mark.parametrize("nx, ny", [(64, 64), (96, 64), (13, 7), (97, 64)])
    def test_preconditioner_symmetric(self, nx, ny):
        _, system = assembled(ScenarioConfig(nx=nx, ny=ny, roughness=FIG3))
        levels = solver._hierarchy(system)
        rng = np.random.default_rng(7)
        assert_symmetric(levels, *rng.standard_normal((2, system.rhs.size)))

    @pytest.mark.parametrize("nx, ny, natural", [
        (13, 7, False), (97, 64, False), (64, 64, True), (48, 12, True)])
    def test_converges_on_odd_and_natural_grids(self, nx, ny, natural):
        config = ScenarioConfig(nx=nx, ny=ny, roughness=FIG3,
                                y_sides_natural=natural)
        _, system = assembled(config)
        solution = solve_linear(system, tol=1e-10)
        assert solution.residual <= 1e-10
        assert residual_check(system, solution) <= 1e-10

    @pytest.mark.parametrize("nx, ny", [(64, 64), (96, 64), (97, 64)])
    def test_agrees_with_direct_solve(self, nx, ny):
        _, system = assembled(ScenarioConfig(nx=nx, ny=ny, roughness=FIG3))
        x = solve_linear(system, tol=1e-12).p[system.free_nodes]
        direct = sla.spsolve(system.matrix.tocsc(), system.rhs)
        assert np.abs(x - direct).max() <= 1e-8 * np.abs(direct).max()

    def test_hierarchy_freed_without_gc(self, monkeypatch):
        # the levels are plain data without reference cycles, so they go as
        # soon as solve_linear returns, not when the cyclic collector runs
        _, system = assembled(ScenarioConfig(nx=64, ny=64, roughness=FIG3))
        refs = []
        vcycle = solver._vcycle

        def spy(levels, r):
            if not refs:
                refs.extend(weakref.ref(level.matrix) for level in levels[1:])
            return vcycle(levels, r)

        monkeypatch.setattr(solver, "_vcycle", spy)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            solve_linear(system)
            assert refs and all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()


class TestLastKeyCache:
    def test_hit_returns_the_held_value(self):
        built = []

        @solver._last_key_cache
        def cached(key):
            built.append(key)
            return [key]

        a = cached(1)
        assert cached(1) is a and built == [1]
        assert cached(2) == [2] and built == [1, 2]
        assert cached(1) is not a and built == [1, 2, 1]
        cached.cache_clear()
        assert cached(1) == [1] and built == [1, 2, 1, 1]

    def test_each_key_gets_its_own_value_under_thread_switching(self):
        # four threads, one key each, with frequent thread switches inside the
        # build: builds never overlap, and every call returns its own key's value
        import sys
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        building = []  # keys whose build is running
        overlaps = []

        @solver._last_key_cache
        def cached(key):
            building.append(key)
            time.sleep(0)
            overlaps.append(len(building) > 1)
            building.remove(key)
            return [key]

        keys = range(4)
        start = threading.Barrier(len(keys), timeout=60)

        def call_many(key):
            start.wait()
            return [cached(key)[0] for _ in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(keys)) as pool:
                futures = [pool.submit(call_many, key) for key in keys]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [set(values) for values in results] == [{key} for key in keys]
        assert all(len(values) == 200 for values in results)
        assert overlaps and not any(overlaps)


class TestTransferSlot:
    # grid A, then grids that differ from it in one of nx, ny, y_sides_natural
    GRIDS = (ScenarioConfig(nx=40, ny=24, roughness=FIG3),
             ScenarioConfig(nx=40, ny=24, roughness=FIG3, y_sides_natural=True),
             ScenarioConfig(nx=33, ny=24, roughness=FIG3),
             ScenarioConfig(nx=40, ny=17, roughness=FIG3))

    def test_grids_in_turn_match_cold_solves(self):
        # A, B, A, C, A, D, A: no solve reuses another grid's transfers, and
        # each equals a cold solve
        a, b, c, d = self.GRIDS
        cold = {}
        for config in self.GRIDS:
            solver._transfers.cache_clear()
            cold[config] = solve_reynolds(config)
        solver._transfers.cache_clear()
        for config in (a, b, a, c, a, d, a):
            solution = solve_reynolds(config)
            assert np.array_equal(solution.p, cold[config].p)
            assert solution.iterations == cold[config].iterations

    def test_slot_released_before_the_next_grid_is_built(self, monkeypatch):
        # grid A's finest prolongation is gone, without the cyclic collector,
        # before the transfers of grid B are built
        grid_a, _ = build_fields(self.GRIDS[0])
        build, refs, alive = solver._transfers.__wrapped__, [], []

        def spy(grid):
            alive.append(any(ref() is not None for ref in refs))
            return build(grid)

        monkeypatch.setattr(solver, "_transfers", solver._last_key_cache(spy))
        solve_reynolds(self.GRIDS[0])
        refs.append(weakref.ref(solver._transfers(grid_a)[0][1]))  # a hit
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            solve_reynolds(self.GRIDS[2])
        finally:
            if was_enabled:
                gc.enable()
        assert alive == [False, False]


class TestResidualCheck:
    def test_perturbed_solution_detected(self):
        config = ScenarioConfig(nx=16, ny=16)
        _, system = assembled(config)
        solution = solve_linear(system, tol=1e-10)
        assert residual_check(system, solution) <= 1e-10
        bad = solution.p.copy()
        bad[system.free_nodes[0]] += 1.0
        perturbed = type(solution)(p=bad, iterations=solution.iterations,
                                   residual=solution.residual)
        assert residual_check(system, perturbed) > 1e-10

    def test_zero_system_zero_solution(self):
        _, system = assembled(flat_config(nx=8, ny=8, q_e=-0.5))
        solution = solve_linear(system)
        assert residual_check(system, solution) == 0.0


class TestProperties:
    def test_no_forcing_gives_zero(self):
        solution = solve_reynolds(ScenarioConfig(nx=16, ny=16, u_b=(0.0, 0.0),
                                                 q_e=0.0))
        assert np.abs(solution.p).max() == 0.0

    def test_balanced_couette_pressure_zero(self):
        solution = solve_reynolds(flat_config(nx=64, ny=64, q_e=-0.5))
        assert np.abs(solution.p).max() <= 1e-10

    def test_joint_scaling_covariance(self):
        base = ScenarioConfig(nx=16, ny=16)
        scaled = ScenarioConfig(nx=16, ny=16, u_b=(2.0, 0.0), q_e=1.0)
        p1 = solve_reynolds(base).p
        p2 = solve_reynolds(scaled).p
        assert np.abs(p2 - 2.0 * p1).max() <= 1e-8 * max(1.0, np.abs(p1).max())

    def test_y_mirror_symmetry(self):
        config = ScenarioConfig(
            nx=32, ny=32, tol=1e-12,
            roughness=RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),)))
        solution = solve_reynolds(config)
        p = solution.p.reshape(33, 33)
        assert np.abs(p - p[::-1]).max() <= 1e-7

    def test_grid_refinement_convergence(self):
        # smooth reference scenario: successive refinements shrink the nodal
        # L2 difference by at least a factor 3 (asymptotically 4)
        solutions = {}
        for n in (16, 32, 64, 128):
            solutions[n] = solve_reynolds(ScenarioConfig(nx=n, ny=n, tol=1e-12))
        diffs = []
        for n in (16, 32, 64):
            coarse = solutions[n].p.reshape(n + 1, n + 1)
            fine = solutions[2 * n].p.reshape(2 * n + 1, 2 * n + 1)[::2, ::2]
            diffs.append(np.sqrt(np.mean((fine - coarse) ** 2)))
        assert diffs[1] <= diffs[0] / 3.0
        assert diffs[2] <= diffs[1] / 3.0


class TestOracle1D:
    def test_balanced_couette_zero(self):
        _, p = oracle_1d(FLAT_GAP, RoughnessSpec(), u_bx=1.0, q_e=-0.5,
                         samples=33)
        assert np.abs(p).max() <= 1e-13

    def test_linear_pressure_closed_form(self):
        x, p = oracle_1d(FLAT_GAP, RoughnessSpec(), u_bx=0.0, q_e=1.0,
                         samples=33)
        assert np.abs(p - (-12.0 * (1.0 - x))).max() <= 1e-12

    def test_quadratic_channel_golden_values(self):
        # frozen from an independent high-precision quadrature of the first
        # integral for the reference scenario (smooth channel, ubx=1, qe=0.5)
        golden = {
            0.0: -31.598659099014532,
            0.25: -28.660811018093873,
            0.5: -15.799329549507266,
            0.75: -2.9378480809206588,
            1.0: 0.0,
        }
        x, p = oracle_1d(GapProfile(), RoughnessSpec(), u_bx=1.0, q_e=0.5,
                         samples=5)
        for xi, pi in zip(x, p):
            assert pi == pytest.approx(golden[xi], abs=1e-9)

    def test_rejects_y_dependent_roughness(self):
        rough = RoughnessSpec((RoughRegion(0.4, 0.2, 0.6, 0.8, n=2.0),))
        with pytest.raises(ValueError, match="y"):
            oracle_1d(FLAT_GAP, rough, u_bx=1.0, q_e=0.5)
        varying = GapProfile(kind="tabulated", table=np.array([[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ValueError, match="y"):
            oracle_1d(varying, RoughnessSpec(), u_bx=1.0, q_e=0.5)
        with pytest.raises(ValueError, match="2 samples"):
            oracle_1d(FLAT_GAP, RoughnessSpec(), u_bx=1.0, q_e=0.5, samples=1)

    def test_piecewise_rough_flux_constant(self):
        # the first integral (h^3 A/12) p' - h B ubx must equal q_e on both
        # sides of the roughness jump
        from roughlub.coefficients import coefficients
        rough = RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),))
        x, p = oracle_1d(FLAT_GAP, rough, u_bx=1.0, q_e=0.25, samples=201)
        for lo, hi, n in ((10, 90, 0.0), (110, 190, 2.0)):
            dp = np.gradient(p[lo:hi], x[lo:hi])
            flux = coefficients(n).a / 12.0 * dp - coefficients(n).b
            interior = flux[2:-2]
            assert np.abs(interior - 0.25).max() <= 1e-3

    @pytest.mark.parametrize("x0, x1, n", [(0.45, 0.55, 2.0), (0.3, 0.7, 30.0)])
    def test_off_lattice_strip_against_piecewise_simpson(self, x0, x1, n):
        # region edges between samples: p(x) = -int_x^1 of the integrand,
        # split at the edges, where the intensity is known on each piece
        from roughlub.coefficients import coefficients
        rough = RoughnessSpec((RoughRegion(x0, 0.0, x1, 1.0, n=n),))
        x, p = oracle_1d(GapProfile(), rough, u_bx=1.0, q_e=0.5, samples=2049)

        def integrand(n_piece):
            a, b = coefficients(n_piece)
            h = lambda s: (2.0 * s - 1.0) ** 2 + 0.5  # the default channel
            return lambda s: 12.0 * (0.5 + h(s) * b) / (h(s) ** 3 * a)

        for i in (0, 1000, 1800):  # x = 0, inside the strip, past it
            cuts = [x[i]] + [e for e in (x0, x1) if e > x[i]] + [1.0]
            ref = -sum(simpson(integrand(n if x0 <= lo < x1 else 0.0), lo, hi)
                       for lo, hi in zip(cuts[:-1], cuts[1:]))
            assert abs(p[i] - ref) <= 1e-12 * abs(ref)


class TestOracleEquivalence:
    def test_flat_case_exact_at_any_resolution(self):
        config = flat_config(nx=16, ny=4, u_b=(0.0, 0.0), q_e=1.0,
                             y_sides_natural=True)
        grid, _ = build_fields(config)
        solution = solve_reynolds(config)
        x, y = grid.node_coords()
        assert np.abs(solution.p - (-12.0 * (1.0 - x))).max() <= 1e-10

    @staticmethod
    def oracle_errors(sizes, **kw):
        """Max error of the y = 0 row against `oracle_1d` (u_bx = 1, q_e = 0.5)
        at each nx of `sizes`, with ny = 4 and natural y sides."""
        errors = []
        for nx in sizes:
            config = ScenarioConfig(nx=nx, ny=4, y_sides_natural=True, **kw)
            grid, _ = build_fields(config)
            _, ys = grid.node_coords()
            row = solve_reynolds(config).p[ys == 0.0]
            _, p_ref = oracle_1d(config.gap, config.roughness, u_bx=1.0,
                                 q_e=0.5, samples=nx + 1)
            errors.append(np.abs(row - p_ref).max())
        return np.array(errors)

    def test_second_order_convergence_to_oracle(self):
        errors = self.oracle_errors((16, 32, 64, 128), tol=1e-12)
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(orders >= 1.8)

    def test_default_tol_reaches_second_order(self):
        # the solver's default tol 1e-10: with natural y sides the system's own
        # precision floor rises with nx (a relative residual of 1.6e-12 at 256x4)
        errors = self.oracle_errors((16, 32, 64, 128, 256))
        assert abs(np.log2(errors[-2] / errors[-1]) - 2.0) <= 0.05

    def test_rough_y_independent_scenario_matches_oracle(self):
        rough = RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),))
        errors = self.oracle_errors((32, 64), tol=1e-12, roughness=rough)
        assert errors[1] <= errors[0] / 3.0
