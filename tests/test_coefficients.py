import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughlub.coefficients import coefficients, cosine_roughness_intensity, growth_integral

from oracles import bounded_poiseuille_oracle, couette_oracle, growth_oracle, poiseuille_oracle

ORACLE_INTENSITIES = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0]

# (N, A, B) to 20 digits, from the defining integrals in 45-digit mpmath
REFERENCE_PAIRS = [
    (1e-7, 1.0000000049999999762, 0.50000000416666668056),
    (0.5, 1.0243488756397526679, 0.52115988526591804832),
    (2.0, 1.086970024193462126, 0.58738583304849302502),
    (5.0, 1.1437728461215235775, 0.71630366798420704182),
    (10.0, 1.0509433215487897287, 0.85844284127841208907),
]


def rel_err(computed, reference):
    return abs(computed - reference) / max(1.0, abs(reference))


class TestKernelIntegrals:
    def test_growth_at_zero(self):
        assert growth_integral(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_growth_frozen_value(self):
        # independent Simpson oracle value for int_0^1 exp(s^2) ds
        assert growth_integral(2.0) == pytest.approx(1.4626517459071817, abs=1e-12)

    @pytest.mark.parametrize("n", ORACLE_INTENSITIES)
    def test_against_simpson_oracle(self, n):
        assert rel_err(growth_integral(n), growth_oracle(n)) <= 1e-9

    @pytest.mark.parametrize("bad", [-1.0, -1e-9, 700.1, math.inf, math.nan])
    def test_domain_errors(self, bad):
        for fn in (growth_integral, coefficients):
            with pytest.raises(ValueError):
                fn(bad)


class TestCoefficients:
    def test_classical_limit_exact(self):
        assert coefficients(0.0) == (1.0, 0.5)

    def test_reference_calibration(self):
        # reported values for the intensity-2 rough patch
        assert coefficients(2.0).a == pytest.approx(1.08696, abs=5e-5)
        assert coefficients(2.0).b == pytest.approx(0.58739, abs=5e-5)

    def test_frozen_values_at_ten(self):
        assert coefficients(10.0).a == pytest.approx(1.0509433215487897, abs=1e-9)
        assert coefficients(10.0).b == pytest.approx(0.8584428412784121, abs=1e-9)

    @pytest.mark.parametrize("n", ORACLE_INTENSITIES[:4])
    def test_against_formula_oracle(self, n):
        assert coefficients(n).a == pytest.approx(poiseuille_oracle(n), abs=1e-9)
        assert coefficients(n).b == pytest.approx(couette_oracle(n), abs=1e-9)

    @pytest.mark.parametrize("n", [10.5, 20.0, 50.0, 200.0, 700.0])
    def test_poiseuille_against_bounded_oracle(self, n):
        # above the split, where the formula oracle cancels; this checks the
        # Gauss rule for E in `_erfcx_mean` (measured: at most 5.1e-15)
        assert rel_err(coefficients(n).a, bounded_poiseuille_oracle(n)) <= 2e-14

    @pytest.mark.parametrize("n, a, b", REFERENCE_PAIRS)
    def test_against_reference_values(self, n, a, b):
        pair = coefficients(n)
        assert abs(pair.a - a) <= 1e-15 * a
        assert abs(pair.b - b) <= 1e-15 * b

    def test_small_intensity_matches_taylor_form(self):
        # A = 1 + N/20 + O(N^2), B = 1/2 + N/24 + O(N^2); the eps term covers
        # the round-off of the sums themselves
        eps = 2.2e-16
        for n in np.geomspace(1e-12, 1e-4, 81):
            pair = coefficients(n)
            assert abs(pair.a - (1.0 + n / 20.0)) <= n * n + 4.0 * eps
            assert abs(pair.b - (0.5 + n / 24.0)) <= n * n + 4.0 * eps

    def test_continuity_at_closed_form_split(self):
        # power series at N <= 10, Dawson/erfcx closed forms above
        above = np.nextafter(10.0, 11.0)
        assert abs(coefficients(above).a - coefficients(10.0).a) <= 1e-12
        assert abs(coefficients(above).b - coefficients(10.0).b) <= 1e-12

    def test_couette_near_zero(self):
        assert coefficients(1e-8).b == pytest.approx(0.5, abs=1e-9)

    def test_couette_lower_bound_sweep(self):
        for n in np.arange(0.1, 100.05, 0.1):
            assert coefficients(n).b > 0.5

    def test_poiseuille_positive_sweep(self):
        for n in np.arange(0.0, 100.05, 0.1):
            assert coefficients(n).a > 0.0

    def test_pair_helper(self):
        for n in (0.0, 5e-7, 2.0, 3.0, 10.0, math.nextafter(10.0, 11.0), 50.0, 700.0):
            pair = coefficients(n)
            assert tuple(pair) == (pair.a, pair.b)
            if n > 10.0:
                # above the series, B is (e^{n/2} - 1) / n / I1 with the I1 of
                # growth_integral, bit for bit
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
