#!/usr/bin/env python3
"""Median wall time of each pipeline stage and of whole CLI runs.

    python scripts/stage_times.py --tree change=src --out BENCH.json
    python scripts/stage_times.py --tree parent=/path/to/parent/src --tree change=src \
        --out BENCH.json

Times `build_fields`, `assemble`, a cold build of the grid's multigrid
transfers (`transfers`: the solver's transfers cache is emptied, untimed,
before each call), `solve_linear` (the transfers of its grid already built,
where the solver keeps them), the `pressure.csv` write, the `fields.csv`
write (each timed write to a new file; the last one is deleted untimed) and
one whole CLI run (`command_s`), each as the median over `--repeats` calls
after one warm-up call, and the same CLI command in a fresh interpreter
(`python -m roughlub.cli`, the tree's directory on PYTHONPATH).  A `compare`
run repeated in one process finds the smooth run of the call before held, as
a step of a sweep of designs on one grid does; `command_cold_s` times it
with the transfers and that smooth run released, untimed, before each call.
Cases: a 96x64 design with two rough rectangles (stages of its rough run;
the CLI run is `compare`) and the
`fig3` preset at nx = ny in SIZES (the CLI run is `solve`), and
`fields-random-256`, a 256x256 `solve` over a tabulated gap of heights drawn
uniformly from [1, 2] at the 257x257 table nodes (seed RANDOM_SEED), so that
every cell of `fields.csv` differs from its neighbours.  CG iterations
and multigrid level sizes come from the timed `solve_linear`.  A last case,
`pointwise`, times the per-point layers alone: `coefficients(n)`,
`velocity_profile(..., z_count=256)` and `velocity_profile(..., z_count=64)`
(the `--nz` default of `roughlub velocity`) over POINTWISE_N, a fixed
log-uniform set on [1e-3, 700], split at the series/closed-form boundary
N = 10.

Each `--tree LABEL=SRC` names a source tree to import roughlub from.  Every
case of every tree runs in a fresh child interpreter, and the trees take
turns to go first, case by case, so that drift of the machine over the run
falls on all trees alike.  The output is JSON: `schema`, then `runs`, keyed
by label; a run already in the file under another label is kept, one under
the same label is replaced.  Each run holds `machine` (nproc, Python, numpy
and scipy versions), `repeats` and `cases`; each case holds `case`,
`command`, `nx`, `ny`, `stages_s` (build_fields, assemble, transfers,
solve_linear, pressure_csv, fields_csv), `command_s`, `command_cold_s`
(`compare` cases only), `process_s` (the fresh-interpreter run),
`cg_iterations` and `levels`; the
`pointwise` case holds `n_count` and `per_call_s`, the median time of one
call in each part of the split (`velocity_profile_z64_*` for the profiles
on 64 intervals).  Every case also holds `peak_rss_mb`, the
peak resident memory of its child interpreter (`ru_maxrss`) after the case,
which holds the case's own fields, system and solution beside the in-process
command; every case but `pointwise` holds `process_peak_rss_mb`, the peak
resident memory of the command alone, run once more in a fresh interpreter
(`ru_maxrss` of `RUSAGE_CHILDREN` in a small interpreter that spawns it).
`--case NAME` with one `--tree` prints that one case as JSON instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "roughlub-stage-times/1"
SIZES = (64, 128, 250, 256, 512, 1024)
CASES = ("design-96x64", *(f"fig3-{n}" for n in SIZES), "fields-random-256", "pointwise")
DESIGN = ("grid.nx = 96\ngrid.ny = 64\n"
          "rough.region.1 = 0.125,0.25,0.375,0.75,n=2\n"
          "rough.region.2 = 0.625,0.125,0.875,0.5,n=20\n")
RANDOM_SEED = 18
# runs a command and prints its ru_maxrss in KiB; it runs in an interpreter of
# its own because Linux counts in a child's ru_maxrss the peak of the process
# that spawned it, here a case child that holds the case's arrays
PEAK_RUN = ("import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
POINTWISE_N = [1e-3 * 7e5 ** (k / 63) for k in range(64)]  # log-uniform on [1e-3, 700]


def median_time(call, repeats: int, prepare=lambda k: ()) -> float:
    """Median time of call(*prepare(k)) for k = 1..repeats, after the warm-up
    k = 0 (lazy imports, first-touch allocations); `prepare` is not timed."""
    times = []
    for k in range(repeats + 1):
        args = prepare(k)
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def new_file(tmp: Path, stem: str):
    """A `prepare` that deletes the last call's file and names a new one, so
    that no timed write truncates an old output."""
    def prepare(k: int) -> tuple[Path]:
        (tmp / f"{stem}{k - 1}.csv").unlink(missing_ok=True)
        return (tmp / f"{stem}{k}.csv",)
    return prepare


def measure_case(name: str, config, argv: list[str], repeats: int, tmp: Path) -> dict:
    from roughlub import cli, solver
    from roughlub.geometry import build_fields
    from roughlub.solver import assemble, solve_linear

    grid, fields = build_fields(config)
    system = assemble(grid, fields, config.u_b, config.q_e)
    solution = solve_linear(system, config.tol)

    def empty_cache(k: int) -> tuple:
        solver._transfers.cache_clear()
        return ()

    def empty_slots(k: int) -> tuple:
        empty_cache(k)
        solver._baseline.cache_clear()
        return ()

    stages = {
        "build_fields": (lambda: build_fields(config),),
        "assemble": (lambda: assemble(grid, fields, config.u_b, config.q_e),),
        "transfers": (lambda: solver._transfers(grid), empty_cache),
        "solve_linear": (lambda: solve_linear(system, config.tol),),
        "pressure_csv": (lambda path: cli._write_pressure_csv(path, grid, solution.p),
                         new_file(tmp, "p")),
        "fields_csv": (lambda path: cli._write_fields_csv(path, grid, fields),
                       new_file(tmp, "f")),
    }
    argv = argv + ["--out", str(tmp / "out")]

    def run_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"roughlub {' '.join(argv)} failed")

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    command = [sys.executable, "-m", "roughlub.cli", *argv]

    def run_process():
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)

    def run_process_peak() -> float:
        result = subprocess.run([sys.executable, "-c", PEAK_RUN, *command], env=env,
                                check=True, capture_output=True, text=True)
        return int(result.stdout) / 1024.0

    case = {
        "case": name,
        "command": argv[0],
        "nx": config.nx,
        "ny": config.ny,
        "stages_s": {stage: median_time(call, repeats, *prepare)
                     for stage, (call, *prepare) in stages.items()},
        "command_s": median_time(run_cli, repeats),
        "process_s": median_time(run_process, repeats),
        "process_peak_rss_mb": run_process_peak(),
        "cg_iterations": solution.iterations,
        "levels": list(solution.levels),
    }
    if argv[0] == "compare":
        case["command_cold_s"] = median_time(run_cli, repeats, empty_slots)
    return case


def measure_pointwise(repeats: int) -> dict:
    from roughlub import coefficients, velocity_profile

    parts = {"n_le_10": [n for n in POINTWISE_N if n <= 10.0],
             "n_gt_10": [n for n in POINTWISE_N if n > 10.0]}
    calls = {"coefficients": coefficients,
             "velocity_profile": lambda n: velocity_profile(1.0, n, (1.0, 0.0), (1.0, 0.0),
                                                            z_count=256),
             "velocity_profile_z64": lambda n: velocity_profile(1.0, n, (1.0, 0.0),
                                                                (1.0, 0.0), z_count=64)}
    per_call = {}
    for name, call in calls.items():
        for part, ns in parts.items():
            per_call[f"{name}_{part}"] = median_time(
                lambda: [call(n) for n in ns], repeats) / len(ns)
    return {"case": "pointwise",
            "n_count": {part: len(ns) for part, ns in parts.items()},
            "per_call_s": per_call}


def measure(case: str, repeats: int) -> dict:
    import dataclasses

    from roughlub import cli
    from roughlub.geometry import RoughnessSpec, ScenarioConfig, load_config

    if case == "pointwise":
        return measure_pointwise(repeats)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if case in ("design-96x64", "fields-random-256"):
            doc, command = DESIGN, "compare"
            if case == "fields-random-256":
                import numpy as np

                heights = np.random.default_rng(RANDOM_SEED).uniform(1.0, 2.0, (257, 257))
                np.savetxt(tmp / "gap.csv", heights, fmt="%.17g", delimiter=",")
                doc, command = ("grid.nx = 256\ngrid.ny = 256\ngap.kind = tabulated\n"
                                f"gap.table_path = {tmp / 'gap.csv'}\n"), "solve"
            (tmp / "case.cfg").write_text(doc, encoding="utf-8")
            return measure_case(case, load_config(doc),
                                [command, "--config", str(tmp / "case.cfg")], repeats, tmp)
        n = int(case.removeprefix("fig3-"))
        config = dataclasses.replace(ScenarioConfig(), nx=n, ny=n,
                                     roughness=RoughnessSpec(cli.PRESET_REGIONS["fig3"]))
        argv = ["solve", "--scenario", "fig3", "--nx", str(n), "--ny", str(n)]
        return measure_case(case, config, argv, repeats, tmp)


def measure_in_child(case: str, label: str, src: str, repeats: int) -> dict:
    result = subprocess.run([sys.executable, __file__, "--case", case,
                             "--tree", f"{label}={src}", "--repeats", str(repeats)],
                            capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"error: case {case} of tree {label} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def parse_tree(text: str) -> tuple[str, str]:
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, str(Path(src).resolve())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tree", type=parse_tree, action="append", required=True,
                        help="LABEL=SRC: a source tree to import roughlub from")
    parser.add_argument("--out", help="JSON file to write or update")
    parser.add_argument("--repeats", type=int, default=9, help="timed calls per median (>= 3)")
    parser.add_argument("--case", choices=CASES, help="print this one case of one tree")
    args = parser.parse_args()
    if args.repeats < 3:
        parser.error("--repeats must be >= 3")
    trees = dict(args.tree)
    if len(trees) != len(args.tree):
        parser.error("each --tree needs its own label")
    if args.case is not None:
        if len(trees) != 1:
            parser.error("--case takes exactly one --tree")
        (src,) = trees.values()
        sys.path.insert(0, src)
        case = measure(args.case, args.repeats)
        case["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(case))
        return
    if args.out is None:
        parser.error("--out is required")

    import numpy
    import scipy

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "scipy": scipy.__version__}
    labels = list(trees)
    cases = {label: [] for label in labels}
    for i, case in enumerate(CASES):
        turn = i % len(labels)
        for label in labels[turn:] + labels[:turn]:
            cases[label].append(measure_in_child(case, label, trees[label], args.repeats))
    out = Path(args.out)
    document = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if document.get("schema", SCHEMA) != SCHEMA:
        raise SystemExit(f"error: {out} has schema {document['schema']!r}, not {SCHEMA!r}")
    runs = document.get("runs", {})
    runs.update({label: {"repeats": args.repeats, "machine": machine, "cases": cases[label]}
                 for label in labels})
    out.write_text(json.dumps({"schema": SCHEMA, "runs": runs}, indent=1) + "\n",
                   encoding="utf-8")


if __name__ == "__main__":
    main()
