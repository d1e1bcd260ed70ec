import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughlub
from roughlub import cli

SMOOTH_DOC = "grid.nx = 16\ngrid.ny = 16\n"
ROUGH_DOC = SMOOTH_DOC + "rough.region.1 = 0.5,0,1,1,n=2\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter that imports roughlub from this source tree."""
    src = str(Path(roughlub.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_module_entry_point_prints_usage():
    result = run_python("-m", "roughlub.cli", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: roughlub")


def test_startup_does_not_import_scipy_special():
    # importing scipy.special costs tens of milliseconds per process; only
    # intensities above 10 need it
    result = run_python("-c", "import sys, roughlub.cli\n"
                        "from roughlub import coefficients\n"
                        "coefficients(2.0)\n"
                        "print('scipy.special' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


SCIPY_LOADED = "\nimport sys\nprint([m for m in sys.modules if m.startswith('scipy')])\n"


@pytest.mark.parametrize("code", [
    # what every `roughlub` invocation pays before it does any work
    "import roughlub.cli\nfrom roughlub import coefficients\ncoefficients(2.0)",
    "from roughlub import velocity_profile\n"
    "velocity_profile(1.0, 2.0, [0.8, -1.3], [1.0, 0.4])",
    "from roughlub.cli import main\nassert main(['coeffs', '--n', '2']) == 0",
    "import contextlib\nfrom roughlub.cli import main\n"
    "with contextlib.suppress(SystemExit):\n    main(['--help'])",
    "from roughlub.cli import main\n"
    "assert main(['solve', '--scenario', 'fig3', '--nx', '1', '--out', 'unused']) == 2",
], ids=["setup", "velocity_profile", "coeffs", "help", "input_error"])
def test_entry_points_without_a_solve_load_no_scipy(code):
    # importing scipy.sparse costs about 0.3 s per process; it is loaded by
    # the first assembly only
    result = run_python("-c", code + SCIPY_LOADED)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_large_intensity_loads_special_but_not_sparse():
    result = run_python("-c", "import sys\nfrom roughlub import coefficients\n"
                        "coefficients(700.0)\n"
                        "print('scipy.special' in sys.modules, 'scipy.sparse' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True False"


def test_manifest_wall_time_excludes_scipy_import(tmp_path):
    # a fresh process imports scipy.sparse (about 0.3 s) before the timer starts
    result = run_python("-m", "roughlub.cli", "solve", "--scenario", "fig3", "--nx", "8",
                        "--ny", "8", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    manifest = dict(line.split("=", 1) for line in
                    (tmp_path / "manifest.txt").read_text().splitlines())
    assert float(manifest["wall_time_s"]) < 0.1


def test_convergence_study_reaches_second_order():
    script = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
    result = run_python(str(script), "--levels", "5")
    assert result.returncode == 0, result.stderr
    last_order = float(result.stdout.splitlines()[-1].split()[-1])
    assert abs(last_order - 2.0) <= 0.05


def test_oversized_grid_exits_2_before_allocating(tmp_path):
    # the child's address space is capped at 4 GiB, so a grid that got past
    # the check would fail with a MemoryError traceback, not exhaust the host
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))\n"
            "from roughlub.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    result = run_python("-c", code, "solve", "--scenario", "fig3", "--nx", "200000",
                        "--ny", "200000", "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "grid.nx" in result.stderr and "grid.ny" in result.stderr


def test_oversized_nz_exits_2_before_allocating(tmp_path):
    # 10^8 intervals would need tens of GB; the child is capped at 2 GiB
    config = tmp_path / "patch.cfg"
    config.write_text(SMOOTH_DOC + "rough.region.1 = 0.25,0.25,0.75,0.75,n=20\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from roughlub.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    result = run_python("-c", code, "velocity", "--config", str(config), "--x", "0.5",
                        "--y", "0.5", "--nz", "100000000")
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "--nz" in result.stderr and "[8, 65536]" in result.stderr


@pytest.mark.parametrize("x, y, flag", [("0", "0.5", "--x"), ("0.5", "1", "--y"),
                                        ("nan", "0.5", "--x")])
def test_point_outside_square_exits_2_before_solving(tmp_path, x, y, flag):
    # a 4096^2 solve needs several GB; the child is capped at 2 GiB
    config = tmp_path / "big.cfg"
    config.write_text("grid.nx = 4096\ngrid.ny = 4096\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from roughlub.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    result = run_python("-c", code, "velocity", "--config", str(config), "--x", x,
                        "--y", y)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert flag in result.stderr


class TestCoeffs:
    def test_smooth_values_exact(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "0")
        assert code == 0
        assert out.strip() == "N=0 A=1.00000 B=0.500000"

    def test_rough_reference_values(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "2")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["N"]) == 2.0
        assert float(fields["A"]) == pytest.approx(1.08696, abs=5e-5)
        assert float(fields["B"]) == pytest.approx(0.58739, abs=5e-5)

    def test_negative_intensity_exits_2(self, capsys):
        code, _, err = run(capsys, "coeffs", "--n", "-1")
        assert code == 2
        assert "error" in err


class TestSolve:
    def test_config_run_writes_outputs(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC)
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "solve", "--config", str(config),
                         "--out", str(out_dir))
        assert code == 0
        pressure = (out_dir / "pressure.csv").read_text().splitlines()
        assert pressure[0] == "# nx=16 ny=16"
        assert pressure[1] == "x,y,p"
        assert len(pressure) == 2 + 17 * 17
        # row-major: y outer, x inner
        assert pressure[2].startswith("0,0,")
        assert pressure[3].startswith("0.0625,0,")
        fields = (out_dir / "fields.csv").read_text().splitlines()
        assert fields[0] == "x,y,n_psi,a,b,h1"
        assert len(fields) == 1 + 16 * 16

    def test_manifest_lists_existing_files(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "solve", "--scenario", "fig3",
                         "--nx", "16", "--ny", "16", "--out", str(out_dir))
        assert code == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        listed = [line.split("=", 1)[1] for line in manifest
                  if line.startswith("file=")]
        assert listed == ["pressure.csv", "fields.csv"]
        for name in listed:
            assert (out_dir / name).stat().st_size > 0

    def test_manifest_reports_multigrid_levels(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "solve", "--scenario", "fig3",
                         "--nx", "32", "--ny", "16", "--out", str(out_dir))
        assert code == 0
        manifest = dict(line.split("=", 1) for line in
                        (out_dir / "manifest.txt").read_text().splitlines()
                        if not line.startswith(("file=", "rough.region.")))
        levels = [int(v) for v in manifest["solver.levels"].split(",")]
        # the unknowns: nodes off {x=1}, {y=0} and {y=1}
        assert levels[0] == 32 * 15
        assert levels == sorted(levels, reverse=True)
        assert int(manifest["iterations"]) >= 1

    def test_csv_writers_match_per_value_formatting(self, tmp_path):
        # the streaming writers format each distinct value once; the bytes
        # must equal formatting every value in place, -0.0, nan and inf included
        from roughlub.geometry import ScenarioConfig, build_fields
        config = ScenarioConfig(nx=5, ny=3)
        grid, fields = build_fields(config)
        p = np.linspace(-1.0, 1.0, grid.n_nodes)
        p[:4] = [-0.0, 0.0, np.nan, -np.inf]
        h1 = fields.h1_bar.copy()
        h1[:2] = [-0.0, 0.0]
        fields = type(fields)(n_psi=fields.n_psi, a=fields.a, b=fields.b, h1_bar=h1)
        cli._write_pressure_csv(tmp_path / "p.csv", config, p)
        cli._write_fields_csv(tmp_path / "f.csv", config, grid, fields)
        x, y = grid.node_coords()
        expected = ["# nx=5 ny=3", "x,y,p"] + [
            f"{xi:.17g},{yi:.17g},{pi:.17g}" for xi, yi, pi in zip(x, y, p)]
        assert (tmp_path / "p.csv").read_text() == "\n".join(expected) + "\n"
        bx, by = grid.cell_barycenters()
        expected = ["x,y,n_psi,a,b,h1"] + [
            ",".join(f"{v:.17g}" for v in row) for row in
            zip(bx, by, fields.n_psi, fields.a, fields.b, fields.h1_bar)]
        assert (tmp_path / "f.csv").read_text() == "\n".join(expected) + "\n"
        assert (tmp_path / "p.csv").read_text().splitlines()[2:4] == [
            "0,0,-0", "0.20000000000000001,0,0"]
        rows = (tmp_path / "f.csv").read_text().splitlines()
        assert rows[1].endswith(",-0") and rows[2].endswith(",0")

    def test_fig2_preset_uses_reference_data(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "solve", "--scenario", "fig2",
                         "--out", str(out_dir))
        assert code == 0
        manifest = (out_dir / "manifest.txt").read_text()
        assert "nx=64\nny=64\n" in manifest
        assert "gap.kind=quadratic_channel" in manifest
        assert "velocity.ubx=1\nvelocity.uby=0\n" in manifest
        assert "inlet.flux=0.5" in manifest
        assert "rough.regions=0" in manifest

    def test_determinism_byte_identical(self, capsys, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run(capsys, "solve", "--scenario", "fig2",
                             "--out", str(out_dir))
            assert code == 0
            outputs.append((out_dir / "pressure.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--config",
                           str(tmp_path / "nope.cfg"), "--out", str(tmp_path))
        assert code == 2
        assert "not found" in err

    def test_bad_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("grid.nx = 16\nnonsense.key = 1\n")
        code, _, err = run(capsys, "solve", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "unknown key" in err

    def test_output_dir_key_exits_2(self, capsys, tmp_path):
        # the output directory comes from --out only
        config = tmp_path / "old.cfg"
        config.write_text(SMOOTH_DOC + "output.dir = elsewhere\n")
        code, _, err = run(capsys, "solve", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unknown key 'output.dir'" in err
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("line, key", [
        ("rough.region.1 = 0.5,0,1,1,amp=0.1,wav=inf", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,amp=0.1,wav=1.5", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,n=nan", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,amp=nan,wav=1", "rough.region.1"),
        ("gap.c0 = nan", "gap.c0"),
        ("gap.c1 = inf", "gap.c1"),
        ("gap.kind = constant\ngap.c0 = -1", "gap.c0"),
        ("gap.c1 = 0", "gap.c1"),
        ("gap.c0 = -2", "gap.c0"),
        ("gap.kind = bogus", "gap.kind"),
        ("gap.kind = tabulated\ngap.table_path = {one_row}", "gap.table_path"),
        ("gap.table_path = {one_row}", "gap.table_path"),
        ("grid.nx = 1", "grid.nx"),
        ("grid.nx = abc", "grid.nx"),
        ("inlet.flux = inf", "inlet.flux"),
        ("velocity.ubx = nan", "velocity.ubx"),
        ("velocity.uby = -inf", "velocity.uby"),
        ("solver.tol = 0", "solver.tol"),
        ("solver.max_iter = 0", "solver.max_iter"),
        ("solver.max_iter = 1.5", "solver.max_iter"),
        ("rough.region.1 = 0.5,0,1,1", "rough.region.1"),
        ("rough.region.1 = a,0,1,1,n=2", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,2", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,n=abc", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1.5,1,n=2", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,n=800", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,amp=-1,wav=1", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,amp=1e200,wav=1", "rough.region.1"),
        ("rough.region.1 = 0.5,0,1,1,amp=1,wav=1e300", "rough.region.1"),
        ("rough.region.x = 0.5,0,1,1,n=2", "rough.region.x"),
        ("rough.region.1 = 0.5,0,1,1,n=2\nrough.region.1 = 0,0,0.5,1,n=2",
         "rough.region.1"),
    ])
    def test_bad_config_value_exits_2_naming_key(self, capsys, tmp_path, line, key):
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("1.0,2.0\n")
        config = tmp_path / "bad.cfg"
        config.write_text("grid.ny = 16\n" + line.format(one_row=one_row) + "\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "solve", "--config", str(config), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err
        assert not out_dir.exists()


    def test_tabulated_gap_with_inf_exits_2_naming_key(self, capsys, tmp_path):
        table = tmp_path / "gap.csv"
        table.write_text("1.0,2.0\n1.0,inf\n")
        config = tmp_path / "bad.cfg"
        config.write_text(SMOOTH_DOC + f"gap.kind = tabulated\ngap.table_path = {table}\n")
        code, _, err = run(capsys, "solve", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "gap.table_path" in err

    @pytest.mark.parametrize("line", ["inlet.flux = 1e200", "inlet.flux = 1e154",
                                      "velocity.ubx = 1e308"])
    def test_overflowing_data_exits_1_without_csv(self, capsys, tmp_path, line):
        config = tmp_path / "huge.cfg"
        config.write_text(SMOOTH_DOC + line + "\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "solve", "--config", str(config), "--out", str(out_dir))
        assert code == 1
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not (out_dir / "pressure.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_output_path_exits_2(self, capsys, tmp_path, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("a regular file\n")
        out = blocker / below if below else blocker
        code, _, err = run(capsys, command, "--scenario", "fig3", "--nx", "8",
                           "--ny", "8", "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(out) in err


class TestVelocity:
    def test_profile_rows_and_boundaries(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC)
        code, out, _ = run(capsys, "velocity", "--config", str(config),
                           "--x", "0.25", "--y", "0.5", "--nz", "16")
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.splitlines()]
        assert len(rows) == 17
        assert rows[0] == [0.0, 1.0, 0.0]   # Z=0 carries the bottom velocity
        assert rows[-1] == [1.0, 0.0, 0.0]  # Z=1 is the resting top surface

    def test_smooth_profile_matches_analytic_form(self, capsys, tmp_path):
        from roughlub.geometry import ScenarioConfig, build_fields, load_config
        from roughlub.postprocess import gradient_at
        from roughlub.solver import solve_reynolds

        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(SMOOTH_DOC)
        code, out, _ = run(capsys, "velocity", "--config", str(config_path),
                           "--x", "0.25", "--y", "0.5", "--nz", "16")
        assert code == 0
        rows = np.array([list(map(float, line.split(",")))
                         for line in out.splitlines()])

        config = load_config(SMOOTH_DOC)
        grid, fields = build_fields(config)
        solution = solve_reynolds(config)
        grad_p = gradient_at(solution, grid, 0.25, 0.5)
        cell = 8 * 16 + 4  # barycenter cell containing (0.25, 0.5)
        h1 = fields.h1_bar[cell]
        z = rows[:, 0]
        expected = 0.5 * h1 * h1 * (z * z - z) * grad_p[0] + (1.0 - z) * 1.0
        assert np.abs(rows[:, 1] - expected).max() <= 1e-10
        assert np.abs(rows[:, 2] - 0.5 * h1 * h1 * (z * z - z) * grad_p[1]).max() <= 1e-10

    def test_large_intensity_profile_is_bounded(self, capsys, tmp_path):
        from roughlub.geometry import build_fields, load_config
        from roughlub.postprocess import gradient_at
        from roughlub.solver import solve_reynolds

        doc = SMOOTH_DOC + "rough.region.1 = 0,0,1,1,n=300\n"
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(doc)
        code, out, _ = run(capsys, "velocity", "--config", str(config_path),
                           "--x", "0.25", "--y", "0.5", "--nz", "64")
        assert code == 0
        rows = np.array([list(map(float, line.split(",")))
                         for line in out.splitlines()])
        assert rows.shape == (65, 3) and np.all(np.isfinite(rows))

        config = load_config(doc)
        grid, fields = build_fields(config)
        grad_p = gradient_at(solve_reynolds(config), grid, 0.25, 0.5)
        h1 = fields.h1_bar[8 * 16 + 4]
        bound = np.linalg.norm(config.u_b) + h1 * h1 * np.linalg.norm(grad_p)
        assert np.linalg.norm(rows[:, 1:], axis=1).max() <= bound

    def test_boundary_point_exits_2(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC)
        code, _, err = run(capsys, "velocity", "--config", str(config),
                           "--x", "0.0", "--y", "0.5")
        assert code == 2


class TestCompare:
    def test_rough_config_produces_metrics(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text("grid.nx = 64\ngrid.ny = 64\n"
                          "rough.region.1 = 0.5,0,1,1,n=2\n")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compare", "--config", str(config),
                         "--out", str(out_dir))
        assert code == 0
        for name in ("pressure_smooth.csv", "pressure_rough.csv",
                      "difference.csv", "metrics.txt"):
            assert (out_dir / name).stat().st_size > 0
        metrics = dict(line.split("=") for line in
                       (out_dir / "metrics.txt").read_text().splitlines())
        assert float(metrics["l2_outside_rough"]) > 1e-4
        assert float(metrics["l2"]) > 0.0
        assert float(metrics["linf"]) > 0.0

    def test_fig5_small_strip_still_significant(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compare", "--scenario", "fig5",
                         "--out", str(out_dir))
        assert code == 0
        metrics = dict(line.split("=") for line in
                       (out_dir / "metrics.txt").read_text().splitlines())
        assert float(metrics["l2"]) > 1e-4
        assert float(metrics["l2_outside_rough"]) > 1e-4

    def test_zero_amplitude_roughness_metrics_vanish(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text("grid.nx = 32\ngrid.ny = 32\n"
                          "rough.region.1 = 0,0,1,1,amp=0,wav=1\n")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compare", "--config", str(config),
                         "--out", str(out_dir))
        assert code == 0
        metrics = dict(line.split("=") for line in
                       (out_dir / "metrics.txt").read_text().splitlines())
        assert float(metrics["l2"]) <= 1e-9
        assert float(metrics["linf"]) <= 1e-9

    def test_grid_overrides(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "compare", "--scenario", "fig3", "--nx", "16",
                         "--ny", "8", "--out", str(out_dir))
        assert code == 0
        for name in ("pressure_smooth.csv", "pressure_rough.csv", "difference.csv"):
            lines = (out_dir / name).read_text().splitlines()
            assert lines[0] == "# nx=16 ny=8"
            assert len(lines) == 2 + 17 * 9

    def test_no_rough_region_exits_2(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC)
        code, _, err = run(capsys, "compare", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "rough region" in err
