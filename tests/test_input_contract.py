"""The input contract, driven by generated inputs.

Any config text either loads or raises ConfigError with a one-line message.
Any command line either runs (exit 0) or exits 2 with one `error:` line, or 1
with one `numerical failure:` line; nothing else reaches stderr, and no
exception or SystemExit escapes `cli.main`.  Any bytes as the `--config`
file or a table hold to the same; bytes that are not UTF-8 name the flag or
key of their file.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughlub import cli
from roughlub.geometry import ConfigError, ScenarioConfig, load_config

# every config key but gap.table_path, whose values are the TABLES below
KEYS = ["grid.nx", "grid.ny", "gap.kind", "gap.c0", "gap.c1", "velocity.ubx",
        "velocity.uby", "inlet.flux", "solver.tol"]
NUMBERS = ["nan", "inf", "-inf", "-0", "0", "1e308", "-1e308", "1e-320", "1e400", "1.5",
           "12345678901234567890", "-12345678901234567890", "2", "8", "0.5", "-1", "abc", ""]
VALUES = st.one_of(st.sampled_from(NUMBERS),
                   st.sampled_from(["quadratic_channel", "constant", "tabulated", "bogus"]),
                   st.text(max_size=6))
# files in the `tables` fixture's directory (missing.csv is not written); a
# table path is never random text, because numpy fetches a path that looks
# like a URL over the network
TABLES = {"good.csv": "1.0,2.0\n1.5,2.5\n", "ragged.csv": "1.0,2.0\n1.5\n",
          "negative.csv": "1.0,2.0\n1.5,-2.5\n", "text.csv": "a,b\nc,d\n"}


def table_line(name: str) -> str:
    return f"gap.table_path = {{tables}}/{name}" if name else "gap.table_path ="


REGION_VALUE = st.builds(
    lambda corners, params: ",".join(corners + params),
    st.lists(st.sampled_from(["0", "0.25", "0.5", "1", "-0", "1.5", "nan", "1e400",
                              "1e-320", "a"]), min_size=3, max_size=5),
    st.lists(st.one_of(
        st.builds("{}={}".format, st.sampled_from(["n", "amp", "wav", "frequency", ""]),
                  VALUES),
        VALUES), max_size=4))
LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS), VALUES),
    st.sampled_from([*TABLES, "missing.csv", ""]).map(table_line),
    st.builds("{} = {}".format,
              st.sampled_from(["spam.eggs", "solver.max_iter", "output.dir", "grid",
                               "rough.region", "gap.kind.x"]), VALUES),
    st.builds("rough.region.{} = {}".format,
              st.sampled_from(["1", "2", "1", "2", "01", "x", "", "-1", "²"]),
              REGION_VALUE),
    st.sampled_from(["not a pair", "=", "= 1", "# comment", "", "grid.nx = 8 # eight"]),
    st.text(max_size=12),
)
DOCUMENTS = st.lists(LINE, max_size=6).map("\n".join)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    for name, text in TABLES.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=300, deadline=None)
@given(text=DOCUMENTS)
@example(text="rough.region.² = 0,0,1,1,n=1")
@example(text="gap.kind = tabulated\n" + table_line("good.csv"))
def test_config_text_loads_or_raises_config_error(tables, text):
    try:
        config = load_config(text.replace("{tables}", str(tables)))
    except ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(config, ScenarioConfig)


def check_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error:" if code == 2 else "numerical failure:"), err
    return code, err


@settings(max_examples=25, deadline=None)
@given(text=DOCUMENTS)
@example(text="velocity.ubx = 1e308")
@example(text="rough.region.1 = 0.5,0,1,1,amp=0.5,wav=2")
def test_config_text_through_solve(tables, text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(text.replace("{tables}", str(tables)), encoding="utf-8")
        check_cli(["solve", "--config", str(config), "--nx", "4", "--ny", "4",
                   "--out", str(Path(tmp) / "out")])


FLOATS = st.one_of(st.sampled_from(NUMBERS + ["0.999999", "1"]),
                   st.floats().map(repr),
                   st.text(alphabet="0123456789.-+eEinfa ", max_size=6))
# cell counts stay small or exceed the cell limit with any other valid count,
# so that no case allocates a large grid
CELLS = st.one_of(st.sampled_from(["-1", "0", "1", "2", "3", "8", "1.5", "1e3", "", "nan",
                                   "abc", "99999999", "12345678901234567890"]),
                  st.integers(-3, 12).map(str))
INTERVALS = st.one_of(st.sampled_from(["7", "8", "64", "65536", "65537", "-1", "1e3", "nan",
                                       "12345678901234567890"]),
                      st.integers(0, 100).map(str))
ARGV = st.one_of(
    st.builds(lambda n: ["coeffs", "--n", n], FLOATS),
    st.builds(lambda x, y, nz: ["velocity", "--config", "{config}", "--x", x, "--y", y,
                                "--nz", nz], FLOATS, FLOATS, INTERVALS),
    st.builds(lambda nx, ny: ["solve", "--scenario", "fig3", "--nx", nx, "--ny", ny,
                              "--out", "{out}"], CELLS, CELLS),
)


@settings(max_examples=80, deadline=None)
@given(argv=ARGV)
@example(argv=["solve", "--scenario", "fig3", "--nx", "abc", "--out", "{out}"])
@example(argv=["velocity", "--config", "{config}", "--x", "0.5", "--y", "0.5",
               "--nz", "1e3"])
def test_command_line_runs_or_exits_with_one_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "patch.cfg"
        config.write_text("grid.nx = 4\ngrid.ny = 4\n"
                          "rough.region.1 = 0.25,0.25,0.75,0.75,n=20\n")
        check_cli([a.format(config=config, out=Path(tmp) / "out") for a in argv])


# the text of a table file: numbers, separators, comments, a BOM and newlines
TABLE_TEXT = st.lists(st.sampled_from([*"0123456789,;.-e#\n", "nan", "inf", "\ufeff"]),
                      max_size=30).map("".join)


@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=60, deadline=None)
@given(text=TABLE_TEXT)
@example(text="")
@example(text="1,2\n3\n")
def test_table_text_runs_or_exits_2_with_one_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        table, config = Path(tmp) / "gap.csv", Path(tmp) / "gap.cfg"
        table.write_text(text, encoding="utf-8")
        config.write_text(f"gap.kind = tabulated\ngap.table_path = {table}\n")
        code, _ = check_cli(["solve", "--config", str(config), "--nx", "4", "--ny", "4",
                             "--out", str(Path(tmp) / "out")])
        assert code in (0, 2), (text, code)


# the strings given as --config, --out and gap.table_path: a usable one, empty,
# a directory, a regular file (for --config, a table), a missing file, a name
# over 255 bytes, a NUL byte, a path under a regular file, and control
# characters; {tmp} is the run's directory, which is also the working one
PATHS = st.one_of(
    st.just("{good}"),
    st.sampled_from(["", "{tmp}", "{file}", "{tmp}/missing/file",
                     "{tmp}/" + "n" * 256, "{tmp}/x\0y", "{file}/below"]),
    st.text(st.characters(max_codepoint=31), min_size=1, max_size=4).map("{tmp}/".__add__))


@settings(max_examples=60, deadline=None)
@given(config=PATHS, table=PATHS, out=PATHS)
@example(config="{good}", table="{good}", out="{tmp}/x\0y")
@example(config="{good}", table="{good}", out="{tmp}/" + "n" * 256)
@example(config="{tmp}", table="{good}", out="{good}")
def test_paths_run_or_exit_2_with_one_line(config, table, out):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        file = Path(tmp) / "good.csv"
        file.write_text(TABLES["good.csv"])
        good = {"config": Path(tmp) / "good.cfg", "table": file, "out": Path(tmp) / "out"}
        config, table, out = (path.format(good=good[role], tmp=tmp, file=file)
                              for role, path in (("config", config), ("table", table),
                                                 ("out", out)))
        good["config"].write_text(f"gap.kind = tabulated\ngap.table_path = {table}\n",
                                  encoding="utf-8")
        code, err = check_cli(["solve", "--config", config, "--nx", "4", "--ny", "4",
                               "--out", out])
        assert code in (0, 2), (config, table, out, code)
        if code == 2 and config == str(good["config"]) and table == str(file):
            assert "--out" in err, err  # only the output path is at fault
        if code == 2 and config != str(file) and table == str(file) and out == str(good["out"]):
            assert "--config" in err, err  # only the config path is at fault


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=40), role=st.sampled_from(["config", "table"]))
@example(data=b"\xef\xbb\xbfgrid.nx = 4\n", role="config")
@example(data=b"\xef\xbb\xbf1,2\n3,4\n", role="table")
@example(data=b"grid.nx = 4 # \xb5m\n", role="config")
@example(data=b"1,2\n3,4\n\xff", role="table")
def test_raw_bytes_run_or_exit_with_one_line(data, role):
    # any bytes as the --config file or as the table; a file that does not
    # decode as UTF-8 (a BOM allowed) exits 2 naming its flag or key
    with tempfile.TemporaryDirectory() as tmp:
        config, table = Path(tmp) / "raw.cfg", Path(tmp) / "raw.csv"
        if role == "config":
            config.write_bytes(data)
            where = f"--config {str(config)!r}"
        else:
            table.write_bytes(data)
            config.write_text(f"gap.kind = tabulated\ngap.table_path = {table}\n")
            where = f"key 'gap.table_path': cannot read {str(table)!r}"
        code, err = check_cli(["solve", "--config", str(config), "--nx", "4", "--ny", "4",
                               "--out", str(Path(tmp) / "out")])
        try:
            data.decode("utf-8-sig")
        except UnicodeDecodeError:
            assert code == 2, (data, code)
            assert err.startswith(f"error: {where}: "), err
