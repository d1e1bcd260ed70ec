"""The benchmark's reference checks accept roughlub's output and reject
perturbed copies of it.  Run with `PYTHONPATH=src python -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys

import numpy as np
import pytest

import refcheck
import workloads
from layertrace import Tracer, summarize

import roughlub
import roughlub.cli
from roughlub import (RoughnessSpec, RoughRegion, ScenarioConfig, assemble, build_fields,
                      coefficients, velocity_profile)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert roughlub.cli.main(argv) == 0


def _edit_csv(path, row, col, scale):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_stencil_reproduces_assembled_system():
    config = ScenarioConfig(nx=24, ny=16, u_b=(1.0, -0.3), q_e=0.7, roughness=RoughnessSpec(
        (RoughRegion(0.25, 0.125, 0.625, 0.5, n=3.0), RoughRegion(0.75, 0.5, 1.0, 1.0, n=40.0))))
    grid, fields = build_fields(config)
    program = assemble(grid, fields, config.u_b, config.q_e)
    k = fields.h1_bar**3 * fields.a / 12.0
    matrix, rhs, free = refcheck.stencil_system(24, 16, k, fields.h1_bar * fields.b,
                                                config.u_b, config.q_e)
    np.testing.assert_array_equal(free, program.free_nodes)
    assert abs(matrix - program.matrix).max() <= 2e-16 * abs(matrix).max()
    assert np.abs(rhs - program.rhs).max() <= 2e-16 * np.abs(rhs).max()


@pytest.mark.parametrize("n", [0.0, 1e-7, 1e-6, 1e-3, 0.05, 0.0999, 0.1, 0.5, 2.0, 10.0,
                               10.5, 50.0, 123.4, 400.0, 700.0])
def test_reference_coefficients_match_program(n):
    a, b = refcheck.coefficients(n)
    pair = coefficients(n)
    assert abs(a - pair.a) <= 1e-12 * pair.a
    assert abs(b - pair.b) <= 1e-12 * pair.b


def test_pointwise_checks_reject_perturbed_values(tmp_path):
    wl = workloads.Pointwise(0, tmp_path)
    a, b = coefficients(7.5)
    wl.check_pair(7.5, (a, b))
    for bad in ((a * (1 + 1e-9), b), (a, b * (1 - 1e-9)), (-a, b)):
        with pytest.raises(workloads.CheckFailed):
            wl.check_pair(7.5, bad)

    gp, ub = np.array([0.8, -1.3]), np.array([1.0, 0.4])
    profile = velocity_profile(1.7, 20.0, gp, ub, z_count=256)
    wl.check_profile(1.7, 20.0, gp, ub, profile)
    for row, delta in ((0, 1e-9), (-1, 1e-9), (128, 1e-4)):
        u = profile.u.copy()
        u[row, 0] += delta
        with pytest.raises(workloads.CheckFailed):
            wl.check_profile(1.7, 20.0, gp, ub, dataclasses.replace(profile, u=u))

    wl.b_seen = [(1.0, 0.6, 0.6), (2.0, 0.59, 0.7)]
    with pytest.raises(workloads.CheckFailed):
        wl.finish()


class SmallFig3(workloads.Fig3Fine):
    nx = ny = 32


def test_fig3_checks_reject_perturbed_outputs(tmp_path):
    for scale, row, col, name in ((1.0, None, None, None),
                                  (1.0 + 1e-6, 2 + 33 * 16 + 5, 2, "pressure.csv"),
                                  (1.0 + 1e-9, 1 + 32 * 3 + 20, 3, "fields.csv"),
                                  (1.0 + 1e-9, 1 + 7, 5, "fields.csv")):
        wl = SmallFig3(0, tmp_path)
        wl.round(0)
        if name is None:
            wl.finish()
            continue
        _edit_csv(wl.first_dir / name, row, col, scale)
        with pytest.raises(workloads.CheckFailed):
            wl.finish()


def test_fig3_repeat_must_be_byte_identical(tmp_path):
    wl = SmallFig3(0, tmp_path)
    wl.round(0)
    wl.round(1)
    _edit_csv(wl.first_dir / "pressure.csv", 40, 2, 1.0 + 1e-15)
    wl.digests = wl._digests(wl.first_dir)  # as if round 0 had written this
    with pytest.raises(workloads.CheckFailed):
        wl.round(2)


def test_design_checks_reject_perturbed_outputs(tmp_path):
    design = workloads.random_design(0, 0)
    config = tmp_path / "d.cfg"
    config.write_text("grid.nx = 96\ngrid.ny = 64\n" + "".join(
        f"rough.region.{i} = {','.join(map(repr, rect))},{params}\n"
        for i, (rect, params, _) in enumerate(design, start=1)))
    wl = workloads.DesignSweep(0, tmp_path)
    edits = (("pressure_rough.csv", 2 + 97 * 30 + 40, 2, 1.0 + 1e-6),
             ("pressure_smooth.csv", 2 + 97 * 10 + 3, 2, 1.0 + 1e-6),
             ("difference.csv", 2 + 97 * 20 + 20, 2, 1.0 + 1e-12))
    out = tmp_path / "ok"
    _cli(["compare", "--config", str(config), "--out", str(out)])
    wl.check(design, out, "design")
    for k, (name, row, col, scale) in enumerate(edits):
        out = tmp_path / f"bad{k}"
        _cli(["compare", "--config", str(config), "--out", str(out)])
        _edit_csv(out / name, row, col, scale)
        with pytest.raises(workloads.CheckFailed):
            wl.check(design, out, "design")
    metrics = tmp_path / "ok" / "metrics.txt"
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("l2=")
    lines[0] = f"l2={float(lines[0][3:]) * (1 + 1e-9)!r}"
    metrics.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed):
        wl.check(design, tmp_path / "ok", "design")


def test_gap_and_containment_match_program():
    config = ScenarioConfig(nx=20, ny=12, roughness=RoughnessSpec(
        (RoughRegion(0.25, 0.25, 0.5, 0.75, n=1.0),)))
    grid, fields = build_fields(config)
    bx, by = refcheck.cell_barycenters(20, 12)
    np.testing.assert_allclose(refcheck.channel_gap(bx), fields.h1_bar, rtol=1e-15)
    rects = [(0.25, 0.25, 0.5, 0.75)]
    xs, ys = refcheck.node_coords(20, 12)
    np.testing.assert_array_equal(refcheck.inside(rects, xs, ys) >= 0,
                                  config.roughness.inside_any(xs, ys))
    np.testing.assert_array_equal(refcheck.inside(rects, bx, by) >= 0, fields.n_psi > 0)


def test_tracer_wraps_every_binding_and_restores():
    original = sys.modules["roughlub.geometry"].build_fields
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = sys.modules["roughlub.geometry"].build_fields
        assert wrapped is not original
        assert sys.modules["roughlub.solver"].build_fields is wrapped
        assert sys.modules["roughlub.cli"].build_fields is wrapped
        assert roughlub.build_fields is wrapped
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["roughlub.cli"].main(["coeffs", "--n", "2"])
    finally:
        tracer.uninstall()
    assert sys.modules["roughlub.solver"].build_fields is original
    spans = summarize(tracer.spans)
    assert spans["cli.main"]["calls"] == 1
    assert spans["coefficients"]["calls"] == 1
    assert spans["coefficients.growth_integral"]["calls"] >= 1
