import errno
import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughlub
from roughlub import _g17, cli
from roughlub.geometry import MAX_INPUT_BYTES

SMOOTH_DOC = "grid.nx = 16\ngrid.ny = 16\n"
ROUGH_DOC = SMOOTH_DOC + "rough.region.1 = 0.5,0,1,1,n=2\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def lines_per_write(monkeypatch):
    """The number of lines in each write to a file that `Path.open` opened
    for writing, in order."""
    lines = []
    real_open = Path.open

    class SpyFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            lines.append(len(text.splitlines()))
            return self.fh.write(text)

    def spy_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return SpyFile(fh) if mode.startswith("w") else fh

    monkeypatch.setattr(Path, "open", spy_open)
    return lines


def expected_fields_csv(grid, fields) -> str:
    """fields.csv with every number formatted in place."""
    bx, by = grid.cell_barycenters()
    rows = zip(bx, by, fields.n_psi, fields.a, fields.b, fields.h1_bar)
    return "\n".join(["x,y,n_psi,a,b,h1"] + [",".join(f"{v:.17g}" for v in row)
                                              for row in rows]) + "\n"


def run_python(*args, env=None):
    """Run a fresh interpreter that imports roughlub from this source tree,
    with the variables of `env` added to the environment."""
    src = str(Path(roughlub.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_every_public_name_resolves():
    # the public surface, pinned: a change to the exports edits this list
    assert sorted(roughlub.__all__) == [
        "CoefficientFields", "CoefficientPair", "ComparisonReport", "ConfigError",
        "ConvergenceError", "GapProfile", "Grid", "LinearSystem", "PressureSolution",
        "RoughRegion", "RoughnessSpec", "ScenarioConfig", "VelocityProfile", "assemble",
        "build_fields", "coefficients", "compare_fields", "cosine_roughness_intensity",
        "evaluate_gap", "flux_from_coefficients", "flux_from_velocity", "gradient_at",
        "growth_integral", "load_config", "solve_fields", "solve_linear", "solve_reynolds",
        "velocity_profile"]
    for name in roughlub.__all__:
        assert getattr(roughlub, name) is not None, name


def test_module_entry_point_prints_usage():
    result = run_python("-m", "roughlub.cli", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: roughlub")



def test_parser_built_once_and_reused(capsys):
    # one parser per process; a parse leaves nothing behind for the next one
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    velocity = ["velocity", "--config", "c.cfg", "--x", "0.5", "--y", "0.5"]
    assert parser.parse_args(velocity + ["--nz", "8"]).nz == 8
    assert parser.parse_args(velocity).nz == 64
    argvs = (["--help"], ["solve", "--help"], [], ["solve", "--bogus", "1"],
             ["coeffs"], ["coeffs", "--n", "x"], ["coeffs", "--n", "2"])

    def outcomes():
        seen = []
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --help exits through argparse
                code = ("exit", exc.code)
            seen.append((code, *capsys.readouterr()))
        return seen

    first = outcomes()
    assert first == outcomes()
    assert [code for code, _, _ in first] == [("exit", 0), ("exit", 0), 2, 2, 2, 2, 0]
    assert first[0][1].startswith("usage: roughlub")
    assert all(err.startswith("error: ") and err.count("\n") == 1
               for code, _, err in first if code == 2)

def test_startup_does_not_import_scipy_special():
    # importing scipy.special costs tens of milliseconds per process; only
    # intensities above 10 need it
    result = run_python("-c", "import sys, roughlub.cli\n"
                        "from roughlub import coefficients\n"
                        "coefficients(2.0)\n"
                        "print('scipy.special' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# and the CSV kernel, which only the CSV writers load
SCIPY_LOADED = ("\nimport sys\nprint([m for m in sys.modules\n"
                "       if m.startswith('scipy') or m == 'roughlub._g17'])\n")


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


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_output_bytes_do_not_depend_on_blas_threads(tmp_path, command):
    # at 128^2 the CG vectors are long enough for OpenBLAS to split a dot
    # across threads; the counts are set explicitly, because a 1-CPU machine
    # defaults to one thread
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                            threads)
        result = run_python("-m", "roughlub.cli", command, "--scenario", "fig3", "--nx", "128",
                            "--ny", "128", "--out", str(out), env=env)
        assert result.returncode == 0, result.stderr
        outputs.append({path.name: [line for line in path.read_bytes().splitlines()
                                    if not line.startswith(b"wall_time_s=")]
                        for path in out.iterdir()})
    assert len(outputs[0]) == (3 if command == "solve" else 4)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, extra, starts", [
    ("solve", ["--out", "out"], 1),
    ("compare", ["--out", "out"], 2),
    ("velocity", ["--x", "0.7", "--y", "0.5"], 1),
])
def test_no_coefficient_fields_live_when_cg_starts(capsys, monkeypatch, tmp_path,
                                                   command, extra, starts):
    # CG reads the assembled system alone, so every command releases the
    # coefficient fields of a run before its CG starts
    from roughlub import solver
    from roughlub.geometry import CoefficientFields

    def live_fields():
        gc.collect()
        return sum(isinstance(o, CoefficientFields) for o in gc.get_objects())

    live_at_start = []
    solve_linear = solver.solve_linear

    def spy(system, tol=1e-10):
        live_at_start.append(live_fields() - before)
        return solve_linear(system, tol)

    monkeypatch.setattr(solver, "solve_linear", spy)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.cfg").write_text(ROUGH_DOC)
    before = live_fields()
    assert run(capsys, command, "--config", "scenario.cfg", *extra)[0] == 0
    assert live_at_start == [0] * starts


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


@pytest.mark.parametrize("argv, name", [
    (["solve", "--scenario", "fig3", "--nx", "abc", "--out", "{out}"], "--nx"),
    (["solve", "--scenario", "fig3", "--nx", "8"], "--out"),
    (["compare", "--scenario", "fig9", "--out", "{out}"], "--scenario"),
    (["velocity", "--config", "{config}", "--x", "0.5", "--y", "0.5", "--nz", "1e3"],
     "--nz"),
    (["coeffs", "--n", "abc"], "--n"),
    (["coeffs", "--n", "2", "--m", "3"], "--m"),
    ([], "command"),
    # paths holding a newline; the --out one lies under a regular file
    (["solve", "--config", "a\nb", "--out", "{out}"], "--config 'a\\nb'"),
    (["solve", "--scenario", "fig3", "--out", "{config}/a\nb"], "a\\nb'"),
    # Path('') is the working directory, which is not the --out argument
    (["solve", "--scenario", "fig3", "--out", ""], "--out ''"),
], ids=["bad-int", "missing-out", "bad-choice", "float-for-int", "bad-float",
        "unknown-flag", "no-subcommand", "newline-config", "newline-out", "empty-out"])
def test_bad_command_line_exits_2_with_one_line(capsys, monkeypatch, tmp_path, argv, name):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "smooth.cfg"
    config.write_text(SMOOTH_DOC)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *(a.format(out=out_dir, config=config) for a in argv))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert name in err
    assert out == "" and not out_dir.exists() and not (tmp_path / "pressure.csv").exists()


def test_run_figures_script_writes_every_scenario(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"
    result = run_python(str(script), "--nx", "8", "--ny", "8", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    solve = {"pressure.csv", "fields.csv", "manifest.txt"}
    compare = {"pressure_smooth.csv", "pressure_rough.csv", "difference.csv", "metrics.txt"}
    expected = {f"fig{k}": solve for k in (2, 3, 4, 5)}
    expected.update({f"fig{k}_compare": compare for k in (3, 4, 5)})
    assert {path.name: {f.name for f in path.iterdir()}
            for path in tmp_path.iterdir()} == expected


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

    def test_manifest_identifies_a_tabulated_gap(self, capsys, tmp_path):
        # tables that differ in one entry differ in their gap.table line; the
        # same table read from another path has the same line
        tables = {"a": "1,1,1\n.5,.5,.5\n", "b": "2,1,1\n.5,.5,.5\n",
                  "a_again": "1.0,1,1\n0.5,.5,.5\n"}
        lines = {}
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
            config = tmp_path / f"{name}.cfg"
            config.write_text("grid.nx = 8\ngrid.ny = 8\ngap.kind = tabulated\n"
                              f"gap.table_path = {tmp_path / name}.csv\n")
            out_dir = tmp_path / name
            assert run(capsys, "solve", "--config", str(config), "--out", str(out_dir))[0] == 0
            lines[name] = [line for line in (out_dir / "manifest.txt").read_text().splitlines()
                           if line.startswith("gap.table=")]
        digest = hashlib.sha256(np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]], dtype="<f8")
                                .tobytes()).hexdigest()
        assert lines["a"] == [f"gap.table=2x3,sha256={digest}"]
        assert lines["b"] != lines["a"] and len(lines["b"]) == 1
        assert lines["a_again"] == lines["a"]

    def test_table_with_a_byte_order_mark(self, capsys, tmp_path):
        # some spreadsheet programs start a UTF-8 file with a BOM; the table
        # reads as the same table without it
        text = "1,1.5,2\n1.25,1,0.75\n0.5,1,1.5\n"
        pressures = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            (tmp_path / f"{name}.csv").write_text(text, encoding=encoding)
            config = tmp_path / f"{name}.cfg"
            config.write_text("grid.nx = 4\ngrid.ny = 4\ngap.kind = tabulated\n"
                              f"gap.table_path = {tmp_path / name}.csv\n")
            code, _, err = run(capsys, "solve", "--config", str(config),
                               "--out", str(tmp_path / name))
            assert (code, err) == (0, "")
            pressures.append((tmp_path / name / "pressure.csv").read_bytes())
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert pressures[0] == pressures[1]

    def test_csv_writers_match_per_value_formatting(self, tmp_path, lines_per_write):
        # both files convert their values in numpy (_g17) and reuse the bytes
        # of a repeated lattice row; the bytes must equal formatting every
        # value in place,
        # -0.0, nan, inf and both ends of the float range included, also at
        # the end of a lattice row and where a lattice row longer than
        # _g17.BLOCK_ROWS is split (4100 x 2: 4101 nodes and 4100 cells a row)
        from roughlub.geometry import ScenarioConfig, build_fields
        extremes = [-0.0, 5e-324, -1.7976931348623157e308, 1.7976931348623157e308,
                    np.nan, np.inf]
        for nx, ny in ((9, 3), (70, 60), (4100, 2)):
            grid, fields = build_fields(ScenarioConfig(nx=nx, ny=ny))
            p = np.linspace(-1.0, 1.0, grid.n_nodes)
            p[:2] = [-0.0, 0.0]
            a, h1 = fields.a.copy(), fields.h1_bar.copy()
            h1[:2] = [-0.0, 0.0]
            # at the end of the first lattice row, and across the split of the last
            for column, width in ((p, nx + 1), (a, nx), (h1, nx)):
                column[width - len(extremes):width] = extremes
                if width > _g17.BLOCK_ROWS:
                    split = column.size - width + _g17.BLOCK_ROWS
                    column[split - 3:split + 3] = extremes
            fields = type(fields)(n_psi=fields.n_psi, a=a, b=fields.b, h1_bar=h1)
            cli._write_pressure_csv(tmp_path / "p.csv", grid, p)
            cli._write_fields_csv(tmp_path / "f.csv", grid, fields)
            x, y = grid.node_coords()
            expected = [f"# nx={nx} ny={ny}", "x,y,p"] + [
                f"{xi:.17g},{yi:.17g},{pi:.17g}" for xi, yi, pi in zip(x, y, p)]
            assert (tmp_path / "p.csv").read_text() == "\n".join(expected) + "\n"
            bx, by = grid.cell_barycenters()
            expected = ["x,y,n_psi,a,b,h1"] + [
                ",".join(f"{v:.17g}" for v in row) for row in
                zip(bx, by, fields.n_psi, fields.a, fields.b, fields.h1_bar)]
            assert (tmp_path / "f.csv").read_text() == "\n".join(expected) + "\n"
            rows = (tmp_path / "p.csv").read_text().splitlines()
            assert rows[2] == "0,0,-0" and rows[3].endswith(",0,0")
            assert rows[2 + nx] == "1,0,inf" and rows[1 + nx].endswith(",0,nan")
            rows = (tmp_path / "f.csv").read_text().splitlines()
            assert rows[1].endswith(",-0") and rows[2].endswith(",0")
            assert rows[nx].endswith(",inf")
        # a fields.csv whose every cell differs: a tabulated gap of random
        # heights under a rough rectangle, so that no lattice row repeats
        from roughlub.geometry import load_config
        table = tmp_path / "gap.csv"
        np.savetxt(table, np.random.default_rng(18).uniform(0.5, 3.0, (9, 12)), delimiter=",")
        grid, fields = build_fields(load_config(
            f"grid.nx = 31\ngrid.ny = 23\ngap.kind = tabulated\ngap.table_path = {table}\n"
            "rough.region.1 = 0.2,0.3,0.7,0.6,n=3\n"))
        assert np.unique(fields.h1_bar).size == fields.h1_bar.size
        cli._write_fields_csv(tmp_path / "f.csv", grid, fields)
        assert (tmp_path / "f.csv").read_text() == expected_fields_csv(grid, fields)
        # no write holds more than _g17.BLOCK_ROWS rows, and the long rows split
        assert max(lines_per_write) == _g17.BLOCK_ROWS

    def test_pressure_csv_writes_every_layout(self, tmp_path):
        # values below 1e-4 and from 1e17 up are written as d.ddde+XX, the rest
        # in fixed notation; a tie in the 18th digit and values outside
        # [1e-280, 1e280) take Python's own conversion
        from roughlub.geometry import ScenarioConfig, build_fields
        grid, _ = build_fields(ScenarioConfig(nx=9, ny=4))
        rng = np.random.default_rng(5)
        dp = rng.normal(size=grid.n_nodes) * 10.0 ** rng.integers(-8, 20, grid.n_nodes)
        dp[:9] = [3.2e-7, -1.5e-5, 1e17, -2.5e20, 1000000000000000.25, -1e-300, 1e300,
                  0.00012, 12345678901234567.0]
        cli._write_pressure_csv(tmp_path / "d.csv", grid, dp, value_name="dp")
        x, y = grid.node_coords()
        expected = ["# nx=9 ny=4", "x,y,dp"] + [
            f"{xi:.17g},{yi:.17g},{v:.17g}" for xi, yi, v in zip(x, y, dp)]
        text = (tmp_path / "d.csv").read_text()
        assert text == "\n".join(expected) + "\n"
        assert ",3.2000000000000001e-07\n" in text and ",1e+17\n" in text
        assert ",1000000000000000.2\n" in text and ",-1e-300\n" in text

    def test_fields_csv_reuses_repeated_rows_without_stale_text(self, tmp_path):
        # a tabulated gap flat in y below y = 1/4 and above y = 1/2: lattice
        # rows 0-3 repeat, 4-7 change, 8-15 repeat; a rough rectangle over
        # rows 6-11 changes n_psi, a and b inside the second run of repeats,
        # and -0.0 in one cell of row 13 makes rows 13 and 14 differ in bits
        # though they compare equal as floats
        from roughlub.geometry import build_fields, load_config
        table = tmp_path / "gap.csv"
        table.write_text("1,1,1\n1,1,1\n2,2,2\n2,2,2\n2,2,2\n")
        grid, fields = build_fields(load_config(
            f"grid.nx = 5\ngrid.ny = 16\ngap.kind = tabulated\ngap.table_path = {table}\n"
            "rough.region.1 = 0.2,0.375,0.6,0.75,n=3\n"))
        n_psi = fields.n_psi.copy()
        n_psi[13 * 5 + 4] = -0.0
        fields = type(fields)(n_psi=n_psi, a=fields.a, b=fields.b, h1_bar=fields.h1_bar)
        cli._write_fields_csv(tmp_path / "f.csv", grid, fields)
        text = (tmp_path / "f.csv").read_text()
        assert text == expected_fields_csv(grid, fields)
        rows = text.splitlines()
        assert rows[1 + 13 * 5 + 4].split(",")[2] == "-0"
        assert rows[1 + 14 * 5 + 4].split(",")[2] == "0"

    def test_fields_csv_of_short_rows_is_one_write(self, tmp_path, lines_per_write):
        # 7 x 300: 2100 lines under a gap that rises in y, so that no lattice
        # row repeats; the header is one write and the rows one more
        from roughlub.geometry import build_fields, load_config
        table = tmp_path / "gap.csv"
        table.write_text("1,1\n3,3\n")
        grid, fields = build_fields(load_config(
            f"grid.nx = 7\ngrid.ny = 300\ngap.kind = tabulated\ngap.table_path = {table}\n"))
        lines_per_write.clear()  # the table file
        cli._write_fields_csv(tmp_path / "f.csv", grid, fields)
        assert lines_per_write == [1, 2100]
        assert (tmp_path / "f.csv").read_text() == expected_fields_csv(grid, fields)

    def test_manifest_lists_the_gap_keys_its_kind_reads(self, capsys, tmp_path):
        (tmp_path / "gap.csv").write_text("1,1,1\n.5,.5,.5\n")
        kinds = {
            "quadratic_channel": ("", ["gap.kind=quadratic_channel", "gap.c0=1", "gap.c1=0.5"]),
            "constant": ("gap.kind = constant\ngap.c0 = 2\n", ["gap.kind=constant", "gap.c0=2"]),
            "tabulated": (f"gap.kind = tabulated\ngap.table_path = {tmp_path / 'gap.csv'}\n",
                          ["gap.kind=tabulated", "gap.table=2x3"]),
        }
        for kind, (doc, expected) in kinds.items():
            config = tmp_path / f"{kind}.cfg"
            config.write_text("grid.nx = 8\ngrid.ny = 8\n" + doc)
            out_dir = tmp_path / kind
            assert run(capsys, "solve", "--config", str(config), "--out", str(out_dir))[0] == 0
            lines = (out_dir / "manifest.txt").read_text().splitlines()
            assert [line.split(",")[0] for line in lines if line.startswith("gap.")] == expected

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
        assert "gap.table=" not in manifest  # only a tabulated gap has a table

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
        code, _, err = run(capsys, "solve", "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == "error: either --config or --scenario is required\n"
        assert not (tmp_path / "out").exists()

    def test_directory_config_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--config", str(tmp_path),
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"error: --config {str(tmp_path)!r}: is a directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_config_exits_2_without_blocking(self, tmp_path):
        # reading a FIFO without a writer would block; a fresh interpreter
        # under a timeout keeps a regression from hanging the suite
        fifo = tmp_path / "scenario.cfg"
        os.mkfifo(fifo)
        result = run_python("-m", "roughlub.cli", "solve", "--config", str(fifo),
                            "--out", str(tmp_path / "out"))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: --config {str(fifo)!r}: not a regular file\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_or_directory_table_exits_2_without_blocking(self, capsys, tmp_path):
        # opening a FIFO waits for a writer, so the table is checked first;
        # the FIFO runs in a fresh interpreter under a timeout
        table = tmp_path / "table.csv"
        os.mkfifo(table)
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC + f"gap.kind = tabulated\ngap.table_path = {table}\n")
        result = run_python("-m", "roughlub.cli", "solve", "--config", str(config),
                            "--out", str(tmp_path / "out"))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (f"error: key 'gap.table_path': cannot read {str(table)!r}: "
                                 "not a regular file\n")
        table.unlink()
        table.mkdir()
        code, out, err = run(capsys, "solve", "--config", str(config),
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == (f"error: key 'gap.table_path': cannot read {str(table)!r}: "
                       "is a directory\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("big", ["config", "table"])
    def test_oversized_input_exits_2_before_reading(self, capsys, monkeypatch, tmp_path, big):
        # a sparse file: truncate sets its size without writing data, and the
        # reader that would read it fails the test
        path = tmp_path / f"big.{big}"
        path.touch()
        os.truncate(path, MAX_INPUT_BYTES + 1)
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC + f"gap.kind = tabulated\ngap.table_path = {path}\n")
        reader = (Path, "read_text") if big == "config" else (np, "loadtxt")
        monkeypatch.setattr(*reader, lambda *args, **kwargs: pytest.fail(f"{big} read"))
        given = path if big == "config" else config
        code, out, err = run(capsys, "solve", "--config", str(given),
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        where = "--config" if big == "config" else "key 'gap.table_path': cannot read"
        assert err == f"error: {where} {str(path)!r}: over {MAX_INPUT_BYTES} bytes\n"
        assert not (tmp_path / "out").exists()

    def test_unreadable_config_exits_2(self, capsys, monkeypatch, tmp_path):
        # the read fails as it does for a file without read permission;
        # chmod cannot take that permission away from root
        config = tmp_path / "locked.cfg"
        config.write_text(SMOOTH_DOC)

        def denied(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        code, _, err = run(capsys, "solve", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == f"error: --config {str(config)!r}: Permission denied\n"

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
        # the gap cubed overflows or underflows
        ("gap.c0 = 1e200", "gap.c0"),
        ("gap.kind = constant\ngap.c0 = 1e110", "gap.c0"),
        ("gap.kind = constant\ngap.c0 = 1e-110", "gap.c0"),
        ("gap.kind = tabulated\ngap.table_path = {huge_entry}", "gap.table_path"),
        ("gap.kind = tabulated\ngap.table_path = {tiny_entry}", "gap.table_path"),
        ("gap.kind = tabulated\ngap.table_path = {one_row}", "gap.table_path"),
        ("gap.table_path = {one_row}", "gap.table_path"),
        # no data rows: np.loadtxt warns, and a warning would be a second line
        ("gap.kind = tabulated\ngap.table_path = {empty}", "gap.table_path"),
        ("gap.kind = tabulated\ngap.table_path = {blank}", "gap.table_path"),
        ("gap.kind = tabulated\ngap.table_path = {comments}", "gap.table_path"),
        ("grid.nx = 1", "grid.nx"),
        ("grid.nx = abc", "grid.nx"),
        ("inlet.flux = inf", "inlet.flux"),
        ("velocity.ubx = nan", "velocity.ubx"),
        ("velocity.uby = -inf", "velocity.uby"),
        ("solver.tol = 0", "solver.tol"),
        ("solver.max_iter = 0", "solver.max_iter"),
        ("solver.max_iter = 1.5", "solver.max_iter"),
        ("solver.max_iter = 500", "solver.max_iter"),
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
    @pytest.mark.filterwarnings("error::UserWarning")
    def test_bad_config_value_exits_2_naming_key(self, capsys, tmp_path, line, key):
        tables = {"one_row": "1.0,2.0\n", "huge_entry": "1.0,2.0\n1.0,1e110\n",
                  "empty": "", "blank": "\n\n\n", "comments": "# heights\n# none yet\n",
                  "tiny_entry": "1.0,2.0\n1.0,1e-110\n"}
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
        config = tmp_path / "bad.cfg"
        config.write_text("grid.ny = 16\n" + line.format(
            **{name: tmp_path / f"{name}.csv" for name in tables}) + "\n")
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

    def test_table_path_url_is_a_missing_file(self, capsys, monkeypatch, tmp_path):
        # np.loadtxt given a path fetches a URL and caches a copy under the
        # current directory; numpy imports urlopen inside the call
        import urllib.request

        def no_fetch(*args, **kwargs):
            pytest.fail("gap.table_path was fetched over the network")
        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "url.cfg"
        config.write_text(SMOOTH_DOC + "gap.kind = tabulated\n"
                          "gap.table_path = http://127.0.0.1:9/t.csv\n")
        code, _, err = run(capsys, "solve", "--config", str(config), "--out", "out")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "gap.table_path" in err
        assert [p.name for p in tmp_path.iterdir()] == ["url.cfg"]

    @pytest.mark.parametrize("line", ["inlet.flux = 1e200", "inlet.flux = 1e154",
                                      "velocity.ubx = 1e308"])
    def test_overflowing_data_exits_1_without_csv(self, capsys, tmp_path, line):
        # both commands write their CSV files after their solves succeed
        config = tmp_path / "huge.cfg"
        config.write_text(ROUGH_DOC + line + "\n")
        for command in ("solve", "compare"):
            out_dir = tmp_path / command
            code, _, err = run(capsys, command, "--config", str(config), "--out", str(out_dir))
            assert code == 1
            assert err.startswith("numerical failure:") and err.count("\n") == 1
            assert out_dir.is_dir() and not list(out_dir.glob("*.csv"))

    def test_failed_solve_never_writes_fields_csv(self, capsys, monkeypatch, tmp_path):
        # fields.csv is built and written after CG, so a failed CG leaves no
        # file to remove
        writes = []
        monkeypatch.setattr(cli, "_write_fields_csv", lambda *args: writes.append(args))
        config = tmp_path / "huge.cfg"
        config.write_text(ROUGH_DOC + "inlet.flux = 1e200\n")
        code, _, err = run(capsys, "solve", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 1 and err.startswith("numerical failure:")
        assert writes == []

    @pytest.mark.parametrize("flux", ["1e-170", "1e-160"])
    def test_tiny_data_solved_not_read_as_converged(self, capsys, tmp_path, flux):
        # the norms of data this small underflow unless the solver scales them;
        # the pressure is linear in the flux when the walls do not move
        def solve(flux):
            config = tmp_path / f"flux{flux}.cfg"
            config.write_text(SMOOTH_DOC + f"velocity.ubx = 0\ninlet.flux = {flux}\n")
            out_dir = tmp_path / f"out{flux}"
            assert run(capsys, "solve", "--config", str(config), "--out", str(out_dir))[0] == 0
            manifest = dict(line.split("=", 1) for line in
                            (out_dir / "manifest.txt").read_text().splitlines())
            p = np.loadtxt(out_dir / "pressure.csv", delimiter=",", skiprows=2)[:, 2]
            return int(manifest["iterations"]), float(manifest["residual"]), p

        iterations, residual, p = solve(flux)
        _, _, p_unit = solve("1")
        assert iterations >= 1 and 0.0 < residual <= 1e-10
        expected = float(flux) * p_unit
        assert np.abs(p - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("below", ["", "sub", "node-file", "last-file"])
    def test_unusable_output_path_exits_2(self, capsys, tmp_path, command, below):
        # --out is a regular file or lies below one, or a file the command
        # writes into it is a directory: a node CSV file, or the last file
        files = {"solve": ("pressure.csv", "manifest.txt"),
                 "compare": ("difference.csv", "metrics.txt")}[command]
        if below.endswith("-file"):
            out = tmp_path / "out"
            named = out / files[below == "last-file"]
            named.mkdir(parents=True)
        else:
            blocker = tmp_path / "taken"
            blocker.write_text("a regular file\n")
            named = out = blocker / below if below else blocker
        code, _, err = run(capsys, command, "--scenario", "fig3", "--nx", "8",
                           "--ny", "8", "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(named) in err


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
        from roughlub.geometry import build_fields, evaluate_gap, load_config
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
        h1 = float(evaluate_gap(config.gap, 0.25, 0.5))
        z = rows[:, 0]
        expected = 0.5 * h1 * h1 * (z * z - z) * grad_p[0] + (1.0 - z) * 1.0
        assert np.abs(rows[:, 1] - expected).max() <= 1e-10
        assert np.abs(rows[:, 2] - 0.5 * h1 * h1 * (z * z - z) * grad_p[1]).max() <= 1e-10

    def test_large_intensity_profile_is_bounded(self, capsys, tmp_path):
        from roughlub.geometry import build_fields, evaluate_gap, load_config
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
        h1 = float(evaluate_gap(config.gap, 0.25, 0.5))
        bound = np.linalg.norm(config.u_b) + h1 * h1 * np.linalg.norm(grad_p)
        assert np.linalg.norm(rows[:, 1:], axis=1).max() <= bound

    def test_profile_uses_the_point_not_its_cell(self, capsys, tmp_path):
        # (0.452, 0.5) lies in the fig5 strip [0.45, 0.55], but the barycenter
        # of its 64x64 cell (x = 0.4453) does not: the profile must be the
        # N = 2 one with the point's gap, so its flux is the coefficients' one
        from roughlub.geometry import build_fields, evaluate_gap, load_config
        from roughlub.postprocess import flux_from_coefficients, gradient_at
        from roughlub.solver import solve_reynolds

        doc = "grid.nx = 64\ngrid.ny = 64\nrough.region.1 = 0.45,0,0.55,1,n=2\n"
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(doc)
        code, out, _ = run(capsys, "velocity", "--config", str(config_path),
                           "--x", "0.452", "--y", "0.5", "--nz", "256")
        assert code == 0
        rows = np.array([list(map(float, line.split(",")))
                         for line in out.splitlines()])

        config = load_config(doc)
        grid, fields = build_fields(config)
        cx, cy = grid.cell_at(0.452, 0.5)
        assert fields.n_psi[cy * grid.nx + cx] == 0.0  # the barycenter is smooth
        h1 = float(evaluate_gap(config.gap, 0.452, 0.5))
        n = config.roughness.intensity_at(0.452, 0.5)
        assert n == 2.0
        u = rows[:, 1:]
        simpson = (u[0] + u[-1] + 4.0 * u[1:-1:2].sum(axis=0)
                   + 2.0 * u[2:-1:2].sum(axis=0)) / (3.0 * (rows.shape[0] - 1))
        expected = flux_from_coefficients(
            h1, n, gradient_at(solve_reynolds(config), grid, 0.452, 0.5), config.u_b)
        assert np.abs(h1 * simpson - expected).max() <= 1e-7 * np.abs(expected).max()

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

    def test_two_solves_share_one_set_of_transfers(self, capsys, tmp_path, monkeypatch):
        # in one process, a compare and then two solves on its grid build the
        # multigrid transfers once; every file equals the one written after the
        # transfers cache is emptied (a cold build), and each solve's pressure
        # file equals the compare's file of the same roughness
        from roughlub import solver
        built = []
        real_build = solver._transfers.__wrapped__

        def spy_build(grid):
            built.append(grid)
            return real_build(grid)

        monkeypatch.setattr(solver, "_transfers", solver._last_key_cache(spy_build))
        grid = ["--nx", "97", "--ny", "31"]
        runs = {"cmp": ("compare", "fig3"), "fig2": ("solve", "fig2"),
                "fig3": ("solve", "fig3")}

        def files(out):
            return {path.name: path.read_bytes() if path.name != "manifest.txt" else
                    [line for line in path.read_bytes().splitlines()
                     if not line.startswith(b"wall_time_s=")]
                    for path in sorted(out.iterdir())}

        for name, (command, scenario) in runs.items():
            assert run(capsys, command, "--scenario", scenario, *grid,
                       "--out", str(tmp_path / "warm" / name))[0] == 0
        assert len(built) == 1
        for name, (command, scenario) in runs.items():
            solver._transfers.cache_clear()
            assert run(capsys, command, "--scenario", scenario, *grid,
                       "--out", str(tmp_path / "cold" / name))[0] == 0
            assert files(tmp_path / "warm" / name) == files(tmp_path / "cold" / name)
        assert len(built) == 1 + len(runs)
        for scenario, name in (("fig2", "pressure_smooth.csv"), ("fig3", "pressure_rough.csv")):
            assert ((tmp_path / "warm" / scenario / "pressure.csv").read_bytes()
                    == (tmp_path / "warm" / "cmp" / name).read_bytes())

    def test_files_match_per_value_formatting(self, capsys, tmp_path):
        # every number of the three pressure files reads as f"{v:.17g}", and
        # difference.csv holds rough minus smooth, on an odd 97 x 31 grid
        from roughlub.geometry import RoughnessSpec, ScenarioConfig
        from roughlub.solver import solve_fields
        out_dir = tmp_path / "out"
        assert run(capsys, "compare", "--scenario", "fig3", "--nx", "97", "--ny", "31",
                   "--out", str(out_dir))[0] == 0
        config = ScenarioConfig(nx=97, ny=31,
                                roughness=RoughnessSpec(cli.PRESET_REGIONS["fig3"]))
        (grid, smooth), (_, rough) = solve_fields(ScenarioConfig(nx=97, ny=31), config)
        x, y = grid.node_coords()
        for name, header, values in (("pressure_smooth.csv", "x,y,p", smooth.p),
                                     ("pressure_rough.csv", "x,y,p", rough.p),
                                     ("difference.csv", "x,y,dp", rough.p - smooth.p)):
            expected = ["# nx=97 ny=31", header] + [
                f"{xi:.17g},{yi:.17g},{v:.17g}" for xi, yi, v in zip(x, y, values)]
            assert (out_dir / name).read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_no_rough_region_exits_2(self, capsys, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SMOOTH_DOC)
        code, _, err = run(capsys, "compare", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "rough region" in err
