"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import numpy as np
import pytest

from roughlub import cli
from roughlub.coefficients import coefficients, growth_integral
from roughlub.geometry import (GapProfile, RoughnessSpec, RoughRegion,
                               ScenarioConfig, build_fields)
from roughlub.postprocess import (compare_fields, flux_from_coefficients,
                                  flux_from_velocity, velocity_profile)
from roughlub.solver import assemble, solve_reynolds

from oracles import (bounded_poiseuille_oracle, couette_oracle, growth_oracle,
                     oracle_1d, poiseuille_oracle)


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_coefficient_calibration():
    rough, smooth = coefficients(2.0), coefficients(0.0)
    ok = (abs(rough.a - 1.08696) <= 5e-5
          and abs(rough.b - 0.58739) <= 5e-5
          and abs(smooth.a - 1.0) <= 1e-12
          and abs(smooth.b - 0.5) <= 1e-12)
    report(1, "coefficient calibration", ok)


def test_criterion_2_classical_limit():
    config = ScenarioConfig(nx=32, ny=32)
    grid, fields = build_fields(config)
    assert np.all(fields.n_psi == 0.0)
    system = assemble(grid, fields, config.u_b, config.q_e)
    classical_fields = type(fields)(n_psi=fields.n_psi,
                                    a=np.ones_like(fields.a),
                                    b=np.full_like(fields.b, 0.5),
                                    h1_bar=fields.h1_bar)
    classical = assemble(grid, classical_fields, config.u_b, config.q_e)
    matrix_gap = abs(system.matrix - classical.matrix).max()
    rhs_gap = np.abs(system.rhs - classical.rhs).max()
    report(2, "classical Reynolds limit", matrix_gap <= 1e-14 and rhs_gap <= 1e-14)


def test_criterion_3_oracle_equivalence():
    # flat analytic case: the discrete space contains the exact solution.
    # Note the oracle's first integral gives p(x) = -12 q_e (1 - x) here; the
    # magnitude is 12 (1 - x) with the sign fixed by the inlet-term convention.
    flat = ScenarioConfig(nx=16, ny=4, gap=GapProfile(kind="constant", c0=1.0),
                          u_b=(0.0, 0.0), q_e=1.0, y_sides_natural=True)
    grid, _ = build_fields(flat)
    x, _ = grid.node_coords()
    p = solve_reynolds(flat).p
    _, p_ref = oracle_1d(flat.gap, flat.roughness, u_bx=0.0, q_e=1.0, samples=17)
    xo = np.linspace(0.0, 1.0, 17)
    analytic_ok = (np.abs(p_ref - (-12.0 * (1.0 - xo))).max() <= 1e-10
                   and np.abs(p - (-12.0 * (1.0 - x))).max() <= 1e-10)

    errors = []
    for nx in (16, 32, 64, 128):
        config = ScenarioConfig(nx=nx, ny=4, tol=1e-12, y_sides_natural=True)
        g, _ = build_fields(config)
        _, ys = g.node_coords()
        row = solve_reynolds(config).p[ys == 0.0]
        _, p_oracle = oracle_1d(config.gap, config.roughness, u_bx=1.0,
                                q_e=0.5, samples=nx + 1)
        errors.append(np.abs(row - p_oracle).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    report(3, "1d oracle equivalence", analytic_ok and bool(np.all(orders >= 1.8)))


def test_criterion_4_zero_solution_identity():
    config = ScenarioConfig(nx=64, ny=64, gap=GapProfile(kind="constant", c0=1.0),
                            u_b=(1.0, 0.0), q_e=-0.5)
    solution = solve_reynolds(config)
    report(4, "balanced-Couette zero solution", np.abs(solution.p).max() <= 1e-10)


def test_criterion_5_flux_consistency():
    rng = np.random.RandomState(987654321)
    ok = True
    for _ in range(100):
        h1 = rng.uniform(0.5, 2.0)
        n = rng.uniform(0.0, 10.0)
        grad_p = rng.uniform(-2.0, 2.0, size=2)
        u_b = rng.uniform(-2.0, 2.0, size=2)
        profile = velocity_profile(h1, n, grad_p, u_b, z_count=256)
        mismatch = np.linalg.norm(flux_from_velocity(profile)
                                  - flux_from_coefficients(h1, n, grad_p, u_b))
        ok &= mismatch <= 1e-7
        ok &= np.abs(profile.u[0] - u_b).max() <= 1e-12
        ok &= np.abs(profile.u[-1]).max() <= 1e-12
    report(5, "flux consistency sweep", bool(ok))


def test_criterion_6_nonlocality():
    spec = RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),))
    smooth = solve_reynolds(ScenarioConfig(nx=64, ny=64))
    rough = solve_reynolds(ScenarioConfig(nx=64, ny=64, roughness=spec))
    grid, _ = build_fields(ScenarioConfig(nx=64, ny=64))
    result = compare_fields(smooth, rough, grid, spec)
    report(6, "nonlocal roughness effect", result.l2_outside_rough > 1e-4)


def test_criterion_7_quadrature_kernel_oracle():
    # A through the paper's formula from the Simpson kernels up to the split
    # at N = 10; above it that formula cancels (7e-5 relative at N = 50), so A
    # there is checked against the bounded closed form with E by Simpson
    ok = True
    for n in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        pair = coefficients(n)
        a_oracle = poiseuille_oracle(n) if n <= 10.0 else bounded_poiseuille_oracle(n)
        for computed, reference in ((growth_integral(n), growth_oracle(n)),
                                    (pair.a, a_oracle), (pair.b, couette_oracle(n))):
            ok &= abs(computed - reference) <= 1e-9 * max(1.0, abs(reference))
    report(7, "quadrature kernels vs Simpson oracle", bool(ok))


def test_criterion_8_determinism(tmp_path, capsys):
    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code = cli.main(["solve", "--scenario", "fig2", "--out", str(out_dir)])
        assert code == 0
        outputs.append((out_dir / "pressure.csv").read_bytes())
    capsys.readouterr()
    report(8, "byte-identical repeated runs", outputs[0] == outputs[1])
