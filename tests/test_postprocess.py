import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughlub import postprocess
from roughlub.geometry import (RoughnessSpec, RoughRegion, ScenarioConfig,
                               build_fields, load_config)
from roughlub.postprocess import (Z_COUNT_MAX, _dawson_primitive,
                                  compare_fields, gradient_at, velocity_profile)
from roughlub.solver import PressureSolution, solve_fields

from oracles import (dawson_primitive_oracle, flux_from_coefficients,
                     flux_from_velocity, simpson)


def couette_poiseuille(h1, z, grad_p, u_b):
    """Analytic smooth-surface profile used as the n = 0 reference."""
    z = z[:, None]
    return (0.5 * h1 * h1 * (z * z - z) * np.asarray(grad_p)[None, :]
            + (1.0 - z) * np.asarray(u_b)[None, :])


class TestVelocityProfile:
    def test_boundary_values_exact(self):
        profile = velocity_profile(1.3, 4.7, (0.8, -0.3), (1.0, 0.5))
        assert np.array_equal(profile.u[0], [1.0, 0.5])
        assert np.array_equal(profile.u[-1], [0.0, 0.0])

    def test_smooth_limit_matches_couette_poiseuille(self):
        h1, grad_p, u_b = 1.4, (0.7, -1.2), (1.0, 0.25)
        profile = velocity_profile(h1, 0.0, grad_p, u_b, z_count=64)
        expected = couette_poiseuille(h1, profile.z, grad_p, u_b)
        assert np.abs(profile.u - expected).max() <= 1e-12

    def test_smooth_midgap_value(self):
        profile = velocity_profile(1.0, 0.0, (1.0, 0.0), (0.0, 0.0), z_count=64)
        assert profile.u[32] == pytest.approx([-0.125, 0.0], abs=1e-14)

    def test_rough_couette_against_simpson_oracle(self):
        # pure shear at intensity 2: u_x(1/2) = 1 - K(1/2)/K(1)
        k_half = simpson(lambda s: np.exp(s * s), 0.0, 0.5)
        k_one = simpson(lambda s: np.exp(s * s), 0.0, 1.0)
        profile = velocity_profile(1.0, 2.0, (0.0, 0.0), (1.0, 0.0), z_count=64)
        assert profile.u[32, 0] == pytest.approx(1.0 - k_half / k_one, abs=1e-9)

    def test_affine_in_forcing(self):
        single = velocity_profile(0.9, 3.0, (0.5, -0.25), (1.0, 0.0))
        double = velocity_profile(0.9, 3.0, (1.0, -0.5), (2.0, 0.0))
        assert np.abs(double.u - 2.0 * single.u).max() <= 1e-12

    @pytest.mark.parametrize("kw", [dict(h1=-1.0), dict(n=-0.5), dict(n=701.0),
                                    dict(grad_p=(1.0, 0.0, 0.0)), dict(u_b=1.0),
                                    dict(z_count=4), dict(z_count=Z_COUNT_MAX + 1),
                                    # non-finite input, and h1**2 max(1, |grad_p|) overflowing
                                    dict(h1=math.nan), dict(h1=math.inf),
                                    dict(grad_p=(math.nan, 0.0)), dict(u_b=(math.inf, 0.0)),
                                    dict(h1=1e200), dict(h1=1e200, grad_p=(0.0, 0.0)),
                                    dict(h1=1e100, grad_p=(0.0, 1e200))])
    def test_domain_errors(self, kw):
        # the message names the first argument at fault
        args = dict(h1=1.0, n=1.0, grad_p=(1.0, 0.0), u_b=(1.0, 0.0),
                    z_count=16)
        args.update(kw)
        with pytest.raises(ValueError, match=next(iter(kw))):
            velocity_profile(**args)

    def test_largest_z_count(self):
        profile = velocity_profile(1.0, 700.0, (0.8, -1.3), (1.0, 0.4),
                                   z_count=Z_COUNT_MAX)
        assert profile.u.shape == (Z_COUNT_MAX + 1, 2)
        assert np.all(np.isfinite(profile.u))
        assert np.array_equal(profile.u[0], [1.0, 0.4])

    # 16 nodes per interval below 32 intervals, 8 below 256, 4 from 256 up
    @pytest.mark.parametrize("z_count", [8, 9, 31, 32, 255, 256, 4096])
    @pytest.mark.parametrize("n", [10.5, 30.0, 200.0, 700.0])
    def test_dawson_primitive_against_simpson_oracle(self, z_count, n):
        r = math.sqrt(0.5 * n)
        lz = _dawson_primitive(r, z_count)
        expected = dawson_primitive_oracle(r, z_count)
        assert np.abs(lz - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_peak_memory_at_4096_intervals(self):
        # 4 Gauss nodes per interval, their positions held by `_gauss_rule`:
        # about 0.36 MB; 16 nodes built on every call took 0.9 MB, and a
        # 64-node rule on every [0, Z_j] 4.4 MB
        velocity_profile(1.0, 700.0, (1.0, 0.0), (1.0, 0.0), z_count=4096)
        tracemalloc.start()
        try:
            velocity_profile(1.0, 700.0, (1.0, 0.0), (1.0, 0.0), z_count=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestPlanSlot:
    # z_counts A, B, C: 8, 4 and 16 Gauss nodes per interval; one intensity
    # on each side of the series / closed-form split
    Z_COUNTS = (64, 256, 31)
    INTENSITIES = (2.0, 300.0)

    @staticmethod
    def profile(n, z_count):
        return velocity_profile(1.2, n, (0.8, -1.3), (1.0, 0.4), z_count=z_count)

    @staticmethod
    def clear_tables():
        postprocess._power_table.cache_clear()
        postprocess._gauss_rule.cache_clear()

    def cold_profiles(self, z_counts):
        cold = {}
        for z_count in z_counts:
            for n in self.INTENSITIES:
                self.clear_tables()
                cold[n, z_count] = self.profile(n, z_count)
        self.clear_tables()
        return cold

    def test_z_counts_in_turn_match_cold_profiles(self):
        # A, B, A, C, A, each branch first in turn: no profile reads another
        # z_count's tables, and each equals a profile from empty caches
        a, b, c = self.Z_COUNTS
        cold = self.cold_profiles(self.Z_COUNTS)
        for k, z_count in enumerate((a, b, a, c, a)):
            for n in self.INTENSITIES[::1 if k % 2 else -1]:
                profile = self.profile(n, z_count)
                assert np.array_equal(profile.z, cold[n, z_count].z)
                assert np.array_equal(profile.u, cold[n, z_count].u)

    def test_slot_released_before_the_next_plan_is_built(self, monkeypatch):
        # A's power table is gone, without the cyclic collector, before the
        # power table of B is built
        build, refs, alive = postprocess._power_table.__wrapped__, [], []

        def spy(z_count):
            alive.append(any(ref() is not None for ref in refs))
            return build(z_count)

        monkeypatch.setattr(postprocess, "_power_table", postprocess._last_key_cache(spy))
        self.profile(2.0, 64)
        refs.append(weakref.ref(postprocess._power_table(64)[1]))  # a hit
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.profile(2.0, 256)
        finally:
            if was_enabled:
                gc.enable()
        assert alive == [False, False]

    def test_profiles_do_not_share_the_plan(self):
        cold = self.cold_profiles((64,))
        for n in self.INTENSITIES:
            profile = self.profile(n, 64)
            profile.z[:] = -1.0
            profile.u[:] = -1.0
            again = self.profile(n, 64)
            assert np.array_equal(again.z, cold[n, 64].z)
            assert np.array_equal(again.u, cold[n, 64].u)
        tables = (*postprocess._power_table(64), *postprocess._gauss_rule(64))
        assert len(tables) == 6 and not any(a.flags.writeable for a in tables)


class TestFlux:
    def test_smooth_analytic_flux(self):
        profile = velocity_profile(1.0, 0.0, (1.0, 0.0), (1.0, 0.0), z_count=64)
        flux = flux_from_velocity(profile)
        assert flux == pytest.approx([-1.0 / 12.0 + 0.5, 0.0], abs=1e-12)

    def test_zero_forcing(self):
        profile = velocity_profile(1.0, 5.0, (0.0, 0.0), (0.0, 0.0))
        assert np.array_equal(flux_from_velocity(profile), [0.0, 0.0])

    def test_coefficient_flux_smooth(self):
        flux = flux_from_coefficients(1.5, 0.0, (0.4, -0.2), (1.0, 0.0))
        expected = 1.5 * 0.5 * np.array([1.0, 0.0]) \
            - 1.5**3 / 12.0 * np.array([0.4, -0.2])
        assert np.abs(flux - expected).max() <= 1e-14

    def test_coefficient_flux_rough_shear(self):
        flux = flux_from_coefficients(1.0, 2.0, (0.0, 0.0), (1.0, 0.0))
        assert flux[0] == pytest.approx(0.58739, abs=5e-5)
        assert flux[1] == 0.0

    def test_all_zero_inputs(self):
        assert np.array_equal(
            flux_from_coefficients(1.0, 0.0, (0.0, 0.0), (0.0, 0.0)), [0.0, 0.0])

    def test_consistency_randomized_sweep(self):
        rng = np.random.RandomState(20240817)
        for _ in range(100):
            h1 = rng.uniform(0.5, 2.0)
            n = rng.uniform(0.0, 10.0)
            grad_p = rng.uniform(-2.0, 2.0, size=2)
            u_b = rng.uniform(-2.0, 2.0, size=2)
            profile = velocity_profile(h1, n, grad_p, u_b, z_count=256)
            gap = flux_from_velocity(profile) - flux_from_coefficients(h1, n, grad_p, u_b)
            assert np.linalg.norm(gap) <= 1e-7
            assert np.abs(profile.u[0] - u_b).max() <= 1e-12
            assert np.abs(profile.u[-1]).max() <= 1e-12

    @given(h1=st.floats(0.5, 2.0), n=st.floats(0.0, 10.0),
           gpx=st.floats(-2.0, 2.0), ubx=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_consistency_property(self, h1, n, gpx, ubx):
        profile = velocity_profile(h1, n, (gpx, 0.0), (ubx, 0.0), z_count=256)
        gap = flux_from_velocity(profile) - flux_from_coefficients(
            h1, n, (gpx, 0.0), (ubx, 0.0))
        assert np.linalg.norm(gap) <= 1e-7

    @pytest.mark.parametrize("n", [80.0, 100.0, 300.0, 700.0])
    def test_consistency_at_large_intensity(self, n):
        # the closed-form profile is bounded up to N_MAX; what remains is the
        # Simpson error of the flux in the 1/sqrt(N) wall layer
        grad_p, u_b = (0.8, -1.3), (1.0, 0.4)
        profile = velocity_profile(1.0, n, grad_p, u_b, z_count=4096)
        gap = flux_from_velocity(profile) - flux_from_coefficients(1.0, n, grad_p, u_b)
        assert np.linalg.norm(gap) <= 1e-7
        assert np.abs(profile.u).max() <= 1.0 + np.linalg.norm(grad_p)

    def test_profile_continuous_across_closed_form_split(self):
        below = velocity_profile(1.2, 10.0, (0.8, -1.3), (1.0, 0.4), z_count=128)
        above = velocity_profile(1.2, np.nextafter(10.0, 11.0), (0.8, -1.3),
                                 (1.0, 0.4), z_count=128)
        assert np.abs(above.u - below.u).max() <= 1e-12

    def test_too_few_samples(self):
        profile = velocity_profile(1.0, 0.0, (1.0, 0.0), (0.0, 0.0), z_count=8)
        short = type(profile)(z=profile.z[:7], u=profile.u[:7], n_psi=0.0,
                              h1=1.0, grad_p=profile.grad_p, u_b=profile.u_b)
        with pytest.raises(ValueError):
            flux_from_velocity(short)
        odd = velocity_profile(1.0, 0.0, (1.0, 0.0), (0.0, 0.0), z_count=9)
        with pytest.raises(ValueError, match="even"):
            flux_from_velocity(odd)


class TestGradientAt:
    def zero_solution(self, grid):
        return PressureSolution(p=np.zeros(grid.n_nodes), iterations=0,
                                residual=0.0)

    def test_zero_field(self):
        grid, _ = build_fields(ScenarioConfig(nx=8, ny=8))
        grad = gradient_at(self.zero_solution(grid), grid, 0.3, 0.7)
        assert np.array_equal(grad, [0.0, 0.0])

    def test_exact_on_linear_fields(self):
        grid, _ = build_fields(ScenarioConfig(nx=8, ny=8))
        x, y = grid.node_coords()
        for coeffs in ((1.0, 0.0), (0.0, 1.0), (2.0, -3.0)):
            p = PressureSolution(p=coeffs[0] * x + coeffs[1] * y,
                                 iterations=0, residual=0.0)
            for point in ((0.3, 0.7), (0.77, 0.31), (0.5, 0.5)):
                grad = gradient_at(p, grid, *point)
                assert grad == pytest.approx(list(coeffs), abs=1e-12)

    def test_self_convergence_under_refinement(self):
        values = []
        for nx in (32, 64, 128):
            config = ScenarioConfig(nx=nx, ny=nx, tol=1e-12)
            grid, solution = solve_fields(config)
            values.append(gradient_at(solution, grid, 0.25, 0.5))
        jumps = [np.linalg.norm(values[i + 1] - values[i]) for i in range(2)]
        assert jumps[1] <= 0.75 * jumps[0]

    def test_outside_domain(self):
        grid, _ = build_fields(ScenarioConfig(nx=8, ny=8))
        with pytest.raises(ValueError):
            gradient_at(self.zero_solution(grid), grid, 1.0, 0.5)


class TestCompareFields:
    def test_identical_solutions(self):
        grid, solution = solve_fields(ScenarioConfig(nx=16, ny=16))
        report = compare_fields(solution, solution, grid, RoughnessSpec())
        assert report.l2 == 0.0
        assert report.linf == 0.0
        assert report.l2_outside_rough == 0.0

    def test_right_half_rough_perturbs_smooth_side(self):
        rough_spec = RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),))
        grid, smooth = solve_fields(ScenarioConfig(nx=64, ny=64))
        _, rough = solve_fields(ScenarioConfig(nx=64, ny=64, roughness=rough_spec))
        report = compare_fields(smooth, rough, grid, rough_spec)
        assert report.l2_outside_rough > 1e-4
        assert report.l2 >= report.l2_outside_rough
        assert report.linf > 0.0

    def test_zero_amplitude_roughness_is_noise_level(self):
        spec = load_config("rough.region.1 = 0,0,1,1,amp=0,wav=1").roughness
        grid, smooth = solve_fields(ScenarioConfig(nx=32, ny=32))
        _, rough = solve_fields(ScenarioConfig(nx=32, ny=32, roughness=spec))
        report = compare_fields(smooth, rough, grid, spec)
        assert report.linf <= 1e-9

    def test_dimension_mismatch(self):
        grid, _ = build_fields(ScenarioConfig(nx=8, ny=8))
        a = PressureSolution(p=np.zeros(grid.n_nodes), iterations=0, residual=0.0)
        b = PressureSolution(p=np.zeros(10), iterations=0, residual=0.0)
        with pytest.raises(ValueError):
            compare_fields(a, b, grid, RoughnessSpec())
