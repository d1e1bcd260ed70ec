import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughlub.coefficients import (N_SWITCH, coefficients, cosine_roughness_intensity,
                                   couette_coeff, decay_integral, growth_integral,
                                   poiseuille_coeff, tabulated_roughness_intensity,
                                   triangle_integral)

from oracles import (couette_oracle, decay_oracle, growth_oracle,
                     poiseuille_oracle, triangle_oracle)

ORACLE_INTENSITIES = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0]


def rel_err(computed, reference):
    return abs(computed - reference) / max(1.0, abs(reference))


class TestKernelIntegrals:
    def test_growth_at_zero(self):
        assert growth_integral(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_decay_at_zero(self):
        assert decay_integral(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_triangle_at_zero(self):
        assert triangle_integral(0.0) == pytest.approx(0.5, abs=1e-13)

    def test_triangle_separable_at_zero(self):
        assert triangle_integral(0.0) == pytest.approx(
            growth_integral(0.0) * decay_integral(0.0) / 2.0, abs=1e-13)

    def test_growth_frozen_value(self):
        # independent Simpson oracle value for int_0^1 exp(s^2) ds
        assert growth_integral(2.0) == pytest.approx(1.4626517459071817, abs=1e-12)

    def test_decay_frozen_value(self):
        assert decay_integral(2.0) == pytest.approx(0.7468241328124271, abs=1e-12)

    def test_triangle_frozen_value(self):
        assert triangle_integral(2.0) == pytest.approx(0.7226228066941736, abs=1e-10)

    def test_decay_bounded_for_large_intensity(self):
        assert 0.0 < decay_integral(50.0) < 1.0

    @pytest.mark.parametrize("n", ORACLE_INTENSITIES)
    def test_against_simpson_oracle(self, n):
        assert rel_err(growth_integral(n), growth_oracle(n)) <= 1e-9
        assert rel_err(decay_integral(n), decay_oracle(n)) <= 1e-9
        assert rel_err(triangle_integral(n), triangle_oracle(n)) <= 1e-9

    @pytest.mark.parametrize("bad", [-1.0, -1e-9, 700.1, math.inf, math.nan])
    def test_domain_errors(self, bad):
        for fn in (growth_integral, decay_integral, triangle_integral):
            with pytest.raises(ValueError):
                fn(bad)


class TestCoefficients:
    def test_classical_limit_exact(self):
        assert poiseuille_coeff(0.0) == 1.0
        assert couette_coeff(0.0) == 0.5

    def test_reference_calibration(self):
        # reported values for the intensity-2 rough patch
        assert poiseuille_coeff(2.0) == pytest.approx(1.08696, abs=5e-5)
        assert couette_coeff(2.0) == pytest.approx(0.58739, abs=5e-5)

    def test_frozen_values_at_ten(self):
        assert poiseuille_coeff(10.0) == pytest.approx(1.0509433215487897, abs=1e-9)
        assert couette_coeff(10.0) == pytest.approx(0.8584428412784121, abs=1e-9)

    @pytest.mark.parametrize("n", ORACLE_INTENSITIES[:4])
    def test_against_formula_oracle(self, n):
        assert poiseuille_coeff(n) == pytest.approx(poiseuille_oracle(n), abs=1e-9)
        assert couette_coeff(n) == pytest.approx(couette_oracle(n), abs=1e-9)

    def test_continuity_at_taylor_switch(self):
        below = N_SWITCH * (1.0 - 1e-9)
        assert abs(poiseuille_coeff(below) - poiseuille_coeff(N_SWITCH)) <= 1e-9
        assert abs(couette_coeff(below) - couette_coeff(N_SWITCH)) <= 1e-9

    def test_continuity_at_closed_form_split(self):
        # fixed Gauss rules at N <= 10, Dawson/erfcx closed forms above
        above = np.nextafter(10.0, 11.0)
        assert abs(poiseuille_coeff(above) - poiseuille_coeff(10.0)) <= 1e-12
        assert abs(couette_coeff(above) - couette_coeff(10.0)) <= 1e-12
        for fn in (growth_integral, decay_integral, triangle_integral):
            assert rel_err(fn(above), fn(10.0)) <= 1e-12

    def test_couette_near_zero(self):
        assert couette_coeff(1e-8) == pytest.approx(0.5, abs=1e-9)

    def test_couette_lower_bound_sweep(self):
        for n in np.arange(0.1, 100.05, 0.1):
            assert couette_coeff(n) > 0.5

    def test_poiseuille_positive_sweep(self):
        for n in np.arange(0.0, 100.05, 0.1):
            assert poiseuille_coeff(n) > 0.0

    def test_pair_helper(self):
        for n in (0.0, 5e-7, 2.0, 3.0, 10.0, math.nextafter(10.0, 11.0), 50.0, 700.0):
            pair = coefficients(n)
            assert pair.a == poiseuille_coeff(n)
            assert pair.b == couette_coeff(n)
            if n >= N_SWITCH:
                # B is (e^{n/2} - 1) / n / I1 with the I1 of growth_integral, bit for bit
                assert pair.b == math.expm1(0.5 * n) / n / growth_integral(n)

    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_ellipticity_and_couette_bound(self, n):
        pair = coefficients(n)
        assert pair.a > 0.0
        assert pair.b >= 0.5


class TestRoughnessIntensity:
    def test_cosine_flat(self):
        assert cosine_roughness_intensity(0.0, 3) == 0.0

    def test_cosine_unit_case(self):
        assert cosine_roughness_intensity(1.0 / math.pi, 1) == pytest.approx(2.0, rel=1e-14)

    def test_cosine_wavenumber_two(self):
        assert cosine_roughness_intensity(1.0, 2) == pytest.approx(8.0 * math.pi**2, rel=1e-14)

    @pytest.mark.parametrize("amp,wav", [
        (-0.1, 1), (1.0, 0), (1.0, -2),
        # the intensity overflows: amp**2 or (2 pi wav)**2 raise OverflowError,
        # and 1e150 with 1e10 multiplies out to inf
        (1e200, 1), pytest.param(1.0, 10**300, id="1.0-1e300"), (1e150, 10**10)])
    def test_cosine_domain_errors(self, amp, wav):
        with pytest.raises(ValueError):
            cosine_roughness_intensity(amp, wav)

    def test_tabulated_zero(self):
        assert tabulated_roughness_intensity(np.zeros((8, 8, 2))) == 0.0

    def test_tabulated_constant_gradient(self):
        g = np.tile([0.3, -0.4], (16, 16, 1))
        assert tabulated_roughness_intensity(g) == pytest.approx(0.25, rel=1e-14)

    def test_tabulated_matches_cosine_closed_form(self):
        amp = 0.7
        x = np.arange(256) / 256.0
        g = -2.0 * np.pi * amp * np.sin(2.0 * np.pi * x)
        expected = amp**2 * 2.0 * np.pi**2
        assert tabulated_roughness_intensity(g) == pytest.approx(expected, abs=1e-10)

    def test_tabulated_grid_convergence(self):
        # trapezoid on a periodic grid: error at worst quadratic in the spacing
        amp, wav = 0.9, 3
        exact = cosine_roughness_intensity(amp, wav)

        def approx(m):
            x = np.arange(m) / m
            g = -2.0 * np.pi * wav * amp * np.sin(2.0 * np.pi * wav * x)
            return tabulated_roughness_intensity(g)

        errs = [abs(approx(m) - exact) for m in (16, 32, 64)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 4.0 + 1e-12

    @pytest.mark.parametrize("bad", [np.zeros((0,)), np.ones((1, 2)),
                                     [[1.0, 2.0], [3.0]]])
    def test_tabulated_shape_errors(self, bad):
        with pytest.raises(ValueError):
            tabulated_roughness_intensity(bad)
