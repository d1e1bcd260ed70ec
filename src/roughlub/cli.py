"""Command-line front end: coefficient lookup, scenario runs, CSV exporters.

Subcommands:
    coeffs    print the (N, A, B) triple for one intensity
    solve     run a scenario, write pressure.csv / fields.csv / manifest.txt
    velocity  print a through-gap velocity profile as CSV rows on stdout
    compare   run the smooth and rough variants of a scenario and write
              difference fields plus norm metrics

Scenario presets name the reference configurations: `fig2` is the smooth
channel, `fig3`/`fig4` make the right/left half rough at intensity 2, and
`fig5` a narrow center strip.  Outputs are plain CSV meant for external
plotting tools; all runs are deterministic, so repeated invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import postprocess
from .coefficients import N_MAX, coefficients
from .geometry import (MAX_INPUT_BYTES, ConfigError, Grid, RoughnessSpec, RoughRegion,
                       ScenarioConfig, build_fields, evaluate_gap, load_config)
from .solver import ConvergenceError, PressureSolution, solve_fields

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

PRESET_REGIONS = {
    "fig2": (),
    "fig3": (RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),),
    "fig4": (RoughRegion(0.0, 0.0, 0.5, 1.0, n=2.0),),
    "fig5": (RoughRegion(0.45, 0.0, 0.55, 1.0, n=2.0),),
}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _load_scenario(config_path: str | None, scenario: str | None,
                   nx: int | None, ny: int | None) -> ScenarioConfig:
    if config_path is None and scenario is None:
        raise ConfigError("either --config or --scenario is required")
    if config_path is not None:
        path = Path(config_path)
        try:
            if not path.is_file():  # a FIFO or a device is never read
                reason = ("is a directory" if path.is_dir() else
                          "not a regular file" if path.exists() else "file not found")
                raise ConfigError(f"--config {config_path!r}: {reason}")
            if path.stat().st_size > MAX_INPUT_BYTES:
                raise ConfigError(f"--config {config_path!r}: over {MAX_INPUT_BYTES} bytes")
            text = path.read_text(encoding="utf-8")
        except OSError as exc:  # unreadable, or a name too long for the system
            raise ConfigError(f"--config {config_path!r}: {exc.strerror or exc}") from None
        config = load_config(text)
    else:
        config = ScenarioConfig()
    replace: dict = {}
    if scenario is not None:
        replace["roughness"] = RoughnessSpec(PRESET_REGIONS[scenario])
    if nx is not None:
        replace["nx"] = nx
    if ny is not None:
        replace["ny"] = ny
    return dataclasses.replace(config, **replace) if replace else config


def _write_pressure_csv(path: Path, grid: Grid, p: np.ndarray,
                        value_name: str = "p") -> None:
    """Write the line `x,y,p` for every node in row-major order."""
    from . import _g17  # here, so that commands that write no CSV do not load it
    _g17.write_csv(path, f"# nx={grid.nx} ny={grid.ny}\nx,y,{value_name}\n",
                   np.arange(grid.nx + 1) / grid.nx, np.arange(grid.ny + 1) / grid.ny,
                   [p.reshape(grid.ny + 1, grid.nx + 1)])


def _write_fields_csv(path: Path, grid: Grid, fields) -> None:
    """Write the line `x,y,n_psi,a,b,h1` for every cell in row-major order."""
    from . import _g17
    _g17.write_csv(path, "x,y,n_psi,a,b,h1\n", (np.arange(grid.nx) + 0.5) / grid.nx,
                   (np.arange(grid.ny) + 0.5) / grid.ny,
                   [c.reshape(grid.ny, grid.nx) for c in
                    (fields.n_psi, fields.a, fields.b, fields.h1_bar)])


def _write_manifest(path: Path, scenario: str, config: ScenarioConfig,
                    files: list[str], solution: PressureSolution,
                    wall_time: float) -> None:
    lines = [
        f"scenario={scenario}",
        f"nx={config.nx}",
        f"ny={config.ny}",
        f"gap.kind={config.gap.kind}",
    ]
    reads = {"quadratic_channel": ("c0", "c1"), "constant": ("c0",), "tabulated": ()}
    lines += [f"gap.{key}={_fmt(getattr(config.gap, key))}" for key in reads[config.gap.kind]]
    if config.gap.kind == "tabulated":
        import hashlib  # here, so that importing the CLI does not load it
        table = config.gap.table  # its little-endian float64 bytes identify it
        digest = hashlib.sha256(table.astype("<f8").tobytes()).hexdigest()
        lines.append(f"gap.table={table.shape[0]}x{table.shape[1]},sha256={digest}")
    lines += [
        f"velocity.ubx={_fmt(config.u_b[0])}",
        f"velocity.uby={_fmt(config.u_b[1])}",
        f"inlet.flux={_fmt(config.q_e)}",
        f"solver.tol={_fmt(config.tol)}",
        f"rough.regions={len(config.roughness.regions)}",
    ]
    for k, r in enumerate(config.roughness.regions, start=1):
        lines.append(f"rough.region.{k}={_fmt(r.x0)},{_fmt(r.y0)},"
                     f"{_fmt(r.x1)},{_fmt(r.y1)},n={_fmt(r.n)}")
    lines += [f"file={name}" for name in files]
    lines += [
        f"iterations={solution.iterations}",
        f"residual={_fmt(solution.residual)}",
        f"solver.levels={','.join(map(str, solution.levels))}",
        f"wall_time_s={wall_time:.3f}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _output_dir(path: str) -> Path:
    """Create the output directory (and parents) if needed."""
    if not path:  # Path('') is the working directory
        raise ConfigError("--out '': empty path")
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"--out {path!r}: {getattr(exc, 'strerror', None) or exc}") from None
    return out


def cmd_coeffs(args) -> int:
    pair = coefficients(args.n)
    print(f"N={args.n:g} A={pair.a:#.6g} B={pair.b:#.6g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config = _load_scenario(args.config, args.scenario, args.nx, args.ny)
    out = _output_dir(args.out)
    # loaded here, not by the first assembly, so that wall_time_s times the solve
    import scipy.sparse  # noqa: F401
    start = time.perf_counter()
    (grid, solution), = solve_fields(config)
    wall = time.perf_counter() - start
    _write_pressure_csv(out / "pressure.csv", grid, solution.p)
    # built again, not kept from the solve, so that no CG runs beside the fields
    _write_fields_csv(out / "fields.csv", grid, build_fields(config)[1])
    files = ["pressure.csv", "fields.csv"]
    _write_manifest(out / "manifest.txt", args.scenario or "custom", config,
                    files, solution, wall)
    print(f"wrote {', '.join(files + ['manifest.txt'])} to {out}")
    return EXIT_OK


def cmd_velocity(args) -> int:
    config = _load_scenario(args.config, None, None, None)
    if not 8 <= args.nz <= postprocess.Z_COUNT_MAX:
        raise ConfigError(f"--nz must be in [8, {postprocess.Z_COUNT_MAX}], got {args.nz}")
    for flag, value in (("--x", args.x), ("--y", args.y)):
        if not 0.0 < value < 1.0:  # false for nan as well
            raise ConfigError(f"{flag} must be inside (0, 1), got {value}")
    (grid, solution), = solve_fields(config)
    # the gap and intensity at the point itself, not at its cell's barycenter
    profile = postprocess.velocity_profile(
        evaluate_gap(config.gap, args.x, args.y), config.roughness.intensity_at(args.x, args.y),
        postprocess.gradient_at(solution, grid, args.x, args.y), config.u_b, z_count=args.nz)
    for z, (ux, uy) in zip(profile.z, profile.u):
        print(f"{_fmt(z)},{_fmt(ux)},{_fmt(uy)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_scenario(args.config, args.scenario, args.nx, args.ny)
    if not config.roughness.regions:
        raise ConfigError("compare needs a scenario with at least one rough region")
    out = _output_dir(args.out)
    # smooth, then rough: the smooth run differs in its roughness alone, so it
    # has the same grid, and both solves share its multigrid transfers
    (_, p_smooth), (grid, p_rough) = solve_fields(
        dataclasses.replace(config, roughness=RoughnessSpec()), config)
    report = postprocess.compare_fields(p_smooth, p_rough, grid, config.roughness)
    _write_pressure_csv(out / "pressure_smooth.csv", grid, p_smooth.p)
    _write_pressure_csv(out / "pressure_rough.csv", grid, p_rough.p)
    _write_pressure_csv(out / "difference.csv", grid, p_rough.p - p_smooth.p,
                        value_name="dp")
    (out / "metrics.txt").write_text(
        f"l2={_fmt(report.l2)}\nlinf={_fmt(report.linf)}\n"
        f"l2_outside_rough={_fmt(report.l2_outside_rough)}\n", encoding="utf-8")
    print(f"wrote pressure_smooth.csv, pressure_rough.csv, difference.csv, "
          f"metrics.txt to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ConfigError, so that `main` exits 2 with
    one line; the subcommand parsers are of the same class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughlub",
        description="Thin-film pressure solver with homogenized roughness corrections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print the effective coefficients at one intensity")
    p.add_argument("--n", type=float, required=True,
                   help=f"roughness intensity in [0, {N_MAX:g}]")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("solve", help="solve a scenario and export CSV fields")
    p.add_argument("--config", help="scenario config file (key = value lines)")
    p.add_argument("--scenario", choices=sorted(PRESET_REGIONS),
                   help="named roughness preset")
    p.add_argument("--nx", type=int, help="override cells in x")
    p.add_argument("--ny", type=int, help="override cells in y")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("velocity", help="print a through-gap velocity profile")
    p.add_argument("--config", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--nz", type=int, default=64,
                   help=f"gap intervals in [8, {postprocess.Z_COUNT_MAX}]")
    p.set_defaults(func=cmd_velocity)

    p = sub.add_parser("compare", help="compare smooth vs rough pressure fields")
    p.add_argument("--config", help="scenario config file with rough regions")
    p.add_argument("--scenario", choices=sorted(PRESET_REGIONS))
    p.add_argument("--nx", type=int, help="override cells in x")
    p.add_argument("--ny", type=int, help="override cells in y")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a config file it cannot read, an output file it cannot write
        where = f"cannot use {exc.filename!r}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
