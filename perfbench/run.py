#!/usr/bin/env python3
"""Benchmark for roughlub: one workload per run, JSON result on the last line.

    python3 perfbench/run.py --workload fig3-fine --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of a run whose layer calls are wrapped in spans (written to
`perfbench/results/`).  Exits 1 if an output check fails, 2 on bad usage or a
missing source tree.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layertrace import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_RUNS = 7
# what every `roughlub` invocation pays before it does any work
SETUP_CODE = "import roughlub.cli\nfrom roughlub import coefficients\ncoefficients(2.0)\n"
# the keys of workloads.WORKLOADS, which imports numpy and so has to wait
# until the thread caps are set
WORKLOAD_NAMES = ("fig3-fine", "design-sweep", "pointwise")
# spans the per-layer metrics are read from; a missing one is reported absent
REQUIRED_SPANS = ("cli.main", "solver.solve_linear", "solver.assemble",
                  "geometry.build_fields", "geometry.load_config",
                  "coefficients.coefficients", "postprocess.velocity_profile",
                  "postprocess.compare_fields")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def cap_threads() -> None:
    """BLAS and OpenMP pools no larger than the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def measure_setup(env: dict) -> float:
    """Median wall time of fresh interpreters importing the CLI and asking
    for one coefficient pair."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, rounds: int, bytes_written: int, round_times) -> dict:
    spans = summarize(tracer.spans)
    absent = [name for name in REQUIRED_SPANS if name not in tracer.wrapped]
    for name in absent:
        print(f"absent layer: {name} (its metrics read 0)", file=sys.stderr)

    def per_round(name, key):
        return spans.get(name, {}).get(key, 0.0) / rounds

    def count(name):
        return tracer.counts.get(name, 0.0) / rounds

    return {
        "solver.solve_linear.time_s": (per_round("solver.solve_linear", "time_s"), "s"),
        "solver.cg_iterations": (count("solver.cg_iterations"), "count"),
        "solver.solves": (count("solver.solves"), "count"),
        "solver.assemble.time_s": (per_round("solver.assemble", "time_s"), "s"),
        "solver.matrix_nnz": (count("solver.matrix_nnz"), "count"),
        "solver.unknowns": (count("solver.unknowns"), "count"),
        "solver.matvec_bytes": (count("solver.matvec_bytes"), "bytes-computed"),
        "cli.self_s": (per_round("cli", "self_s"), "s"),
        "cli.bytes_written": (bytes_written / rounds, "bytes"),
        "geometry.build_fields.calls": (per_round("geometry.build_fields", "calls"), "count"),
        "geometry.build_fields.time_s": (per_round("geometry.build_fields", "time_s"), "s"),
        "geometry.load_config.time_s": (per_round("geometry.load_config", "time_s"), "s"),
        "coefficients.calls": (per_round("coefficients", "calls"), "count"),
        "coefficients.time_s": (per_round("coefficients", "time_s"), "s"),
        "postprocess.velocity_profile.calls":
            (per_round("postprocess.velocity_profile", "calls"), "count"),
        "postprocess.velocity_profile.time_s":
            (per_round("postprocess.velocity_profile", "time_s"), "s"),
        "postprocess.compare_fields.time_s":
            (per_round("postprocess.compare_fields", "time_s"), "s"),
        "trace.round_s": (statistics.median(round_times), "s"),
        "trace.absent_layers": (len(absent), "count"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughlub" / "__init__.py").is_file():
        print(f"error: no roughlub source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_threads()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    setup_s = None if args.trace else measure_setup(env)

    sys.path.insert(0, str(SRC))
    import roughlub.cli  # noqa: F401  (the workloads reach it through sys.modules)
    import workloads

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    RESULTS.mkdir(exist_ok=True)
    attempted = failed = 0
    round_times: list[float] = []
    problem = None
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        try:
            start = time.perf_counter()
            while not round_times or time.perf_counter() - start < args.seconds:
                a, f, elapsed = workload.round(len(round_times))
                attempted += a
                failed += f
                round_times.append(elapsed)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            workload.finish()
        except (workloads.CheckFailed, OSError, ValueError) as exc:
            # a missing or unreadable output file fails its check too
            problem = f"{type(exc).__name__}: {exc}"
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(round_times)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {attempted} calls attempted, "
          f"{failed} failed", file=sys.stderr)
    if workload.first_error:
        print(f"first failed call: {workload.first_error}", file=sys.stderr)
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is not None:
        tracer.uninstall()
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, rounds, workload.bytes_written, round_times)
    else:
        metrics = {
            "round_s": (statistics.median(round_times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
