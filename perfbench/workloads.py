"""The three benchmark workloads: inputs from a seed, timed rounds, checks.

Every workload calls roughlub only through public entry points looked up at
call time (`roughlub.cli.main`, `roughlub.coefficients`,
`roughlub.velocity_profile`), so a tracer installed on the modules sees the
calls.  Each check compares against `refcheck`, never against stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import refcheck

# Relative residual allowed in the benchmark's own stencil system, as a
# multiple of solver.tol: the program stops at a residual <= tol in its own
# summation order, which reads 9.96e-11 in this one (fig3 at 512^2, tol 1e-10).
RESIDUAL_FACTOR = 2.0
# Allowed |p(x, y) - p(x, 1 - y)| as a multiple of tol * max|p|.  The fig3
# data are symmetric in y, so the exact solution is; a solver stopped at
# relative residual tol may leave an error far above round-off.
SYMMETRY_FACTOR = 1e4
SOLVER_TOL = 1e-10  # the default solver.tol the workloads run with
COEFF_RTOL = 1e-10
PROFILE_U_ATOL = 1e-12
PROFILE_FLUX_RTOL = 1e-7  # of h B |U_b| + h^3 A |grad p| / 12


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def read_nodal_csv(path: Path, nx: int, ny: int, value_name: str) -> np.ndarray:
    """Values of a `x,y,<value>` node CSV after checking its header and nodes."""
    with open(path, encoding="utf-8") as fh:
        header = [fh.readline().rstrip("\n"), fh.readline().rstrip("\n")]
    require(header == [f"# nx={nx} ny={ny}", f"x,y,{value_name}"],
            f"{path.name}: header {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    require(rows.shape == ((nx + 1) * (ny + 1), 3), f"{path.name}: shape {rows.shape}")
    xs, ys = refcheck.node_coords(nx, ny)
    require(np.abs(rows[:, 0] - xs).max() <= 1e-15 and np.abs(rows[:, 1] - ys).max() <= 1e-15,
            f"{path.name}: node coordinates are not ix/nx, iy/ny in row-major order")
    return rows[:, 2]


def check_dirichlet_zero(p: np.ndarray, nx: int, ny: int, what: str) -> None:
    xs, ys = refcheck.node_coords(nx, ny)
    pinned = (xs == 1.0) | (ys == 0.0) | (ys == 1.0)
    require(np.all(p[pinned] == 0.0), f"{what}: Dirichlet nodes are not exactly 0")


def check_stencil_residual(p: np.ndarray, nx: int, ny: int, a_cell: np.ndarray,
                           b_cell: np.ndarray, h_cell: np.ndarray, what: str,
                           u_b=(1.0, 0.0), q_e: float = 0.5) -> float:
    matrix, rhs, free = refcheck.stencil_system(
        nx, ny, h_cell**3 * a_cell / 12.0, h_cell * b_cell, u_b, q_e)
    res = refcheck.relative_residual(matrix, rhs, p[free])
    require(res <= RESIDUAL_FACTOR * SOLVER_TOL,
            f"{what}: relative residual {res:.3e} in the reference stencil system "
            f"exceeds {RESIDUAL_FACTOR:g} * tol")
    return res


class Workload:
    """A run is a sequence of rounds; a round is the same fixed set of calls."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.bytes_written = 0
        self.first_error: str | None = None

    def round(self, k: int) -> tuple[int, int, float]:
        """Run round k; (calls attempted, calls failed, timed seconds)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; raises CheckFailed."""

    def note_failure(self, message: str) -> None:
        if self.first_error is None:
            self.first_error = message

    def call_cli(self, argv: list[str], what: str) -> float | None:
        """Seconds taken by roughlub's `main` in this process (stdout
        captured), or None if the call failed."""
        main = sys.modules["roughlub.cli"].main
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = main(argv)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a traceback from the program is a failed call
            self.note_failure(f"{what} raised {exc!r}")
            return None
        if code != 0:
            self.note_failure(f"{what} exited {code}")
            return None
        return elapsed


class Fig3Fine(Workload):
    """`roughlub solve --scenario fig3` on a 256 x 256 grid.

    256 rather than 512 cells a side: a 512^2 round takes ~15 s, so a run
    holds two, and rounds on a shared machine vary by +-10 %; at 256^2 a
    run holds over a dozen rounds and its median is steadier.  The input is fixed (the
    preset), so the seed changes nothing here.  The first round's output is
    checked in full after the timed rounds; later rounds must reproduce it
    byte for byte.
    """

    name = "fig3-fine"
    nx = ny = 256

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.first_dir: Path | None = None
        self.digests: dict[str, str] | None = None

    def _digests(self, out: Path) -> dict[str, str]:
        digests = {}
        for name in ("pressure.csv", "fields.csv"):
            sha = hashlib.sha256()
            with open(out / name, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
            digests[name] = sha.hexdigest()
        manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        # wall_time_s is a measurement and may differ between runs
        stable = [line for line in manifest if not line.startswith("wall_time_s=")]
        digests["manifest.txt"] = hashlib.sha256("\n".join(stable).encode()).hexdigest()
        return digests

    def round(self, k):
        out = self.tmp / f"solve{k}"
        argv = ["solve", "--scenario", "fig3", "--nx", str(self.nx), "--ny", str(self.ny),
                "--out", str(out)]
        elapsed = self.call_cli(argv, f"round {k}: solve")
        if elapsed is None:
            return 1, 1, 0.0
        self.bytes_written += dir_bytes(out)
        digests = self._digests(out)
        if self.digests is None:
            self.digests, self.first_dir = digests, out
        else:
            require(digests == self.digests, f"round {k}: output differs from round 0")
            shutil.rmtree(out)
        return 1, 0, elapsed

    def finish(self):
        out = self.first_dir
        require(out is not None, "no solve completed")
        nx, ny = self.nx, self.ny
        p = read_nodal_csv(out / "pressure.csv", nx, ny, "p")
        check_dirichlet_zero(p, nx, ny, "pressure.csv")

        with open(out / "fields.csv", encoding="utf-8") as fh:
            require(fh.readline().rstrip("\n") == "x,y,n_psi,a,b,h1", "fields.csv: header")
        fields = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1, ndmin=2)
        require(fields.shape == (nx * ny, 6), f"fields.csv: shape {fields.shape}")
        bx, by = refcheck.cell_barycenters(nx, ny)
        require(np.abs(fields[:, 0] - bx).max() <= 1e-15
                and np.abs(fields[:, 1] - by).max() <= 1e-15,
                "fields.csv: cell barycenters")
        rough = refcheck.inside([(0.5, 0.0, 1.0, 1.0)], bx, by) >= 0
        a2, b2 = refcheck.coefficients(2.0)
        n_ref = np.where(rough, 2.0, 0.0)
        a_ref = np.where(rough, a2, 1.0)
        b_ref = np.where(rough, b2, 0.5)
        h_ref = refcheck.channel_gap(bx)
        require(np.array_equal(fields[:, 2], n_ref), "fields.csv: n_psi is not 2 on the right half")
        for col, ref, what in ((3, a_ref, "a"), (4, b_ref, "b")):
            err = np.abs(fields[:, col] / ref - 1.0).max()
            require(err <= 1e-12, f"fields.csv: {what} off by {err:.2e} relative")
        require(np.abs(fields[:, 5] / h_ref - 1.0).max() <= 1e-14, "fields.csv: gap h1")

        check_stencil_residual(p, nx, ny, a_ref, b_ref, h_ref, "pressure.csv")
        grid = p.reshape(ny + 1, nx + 1)
        asym = np.abs(grid - grid[::-1]).max()
        require(asym <= SYMMETRY_FACTOR * SOLVER_TOL * np.abs(p).max(),
                f"pressure.csv: p(x, y) - p(x, 1 - y) reaches {asym:.3e}")
        shutil.rmtree(out)


def random_design(seed: int, k: int) -> list[tuple[tuple[float, ...], str, float]]:
    """1-3 disjoint rough rectangles: (corners, region parameters, N).

    Corners lie on multiples of 1/16, so no barycenter of the 96 x 64 grid
    sits on an edge (barycenters are odd multiples of 1/192 and 1/128).
    Half the regions give n= directly, half a cosine ripple amp=, wav=;
    either way N is log-uniform on [0.1, 50].
    """
    rng = np.random.default_rng([seed, k])
    regions: list[tuple[tuple[float, ...], str, float]] = []
    want = int(rng.integers(1, 4))
    for _ in range(100):
        if len(regions) == want:
            break
        x0, y0 = (int(v) for v in rng.integers(0, 15, size=2))
        w, h = (int(v) for v in rng.integers(2, 9, size=2))
        rect = (x0 / 16, y0 / 16, min(x0 + w, 16) / 16, min(y0 + h, 16) / 16)
        if any(rect[0] <= s[2] and s[0] <= rect[2] and rect[1] <= s[3] and s[1] <= rect[3]
               for s, _, _ in regions):
            continue
        target = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
        if rng.random() < 0.5:
            params, n = f"n={target!r}", target
        else:
            wav = int(rng.integers(1, 5))
            amp = math.sqrt(2.0 * target) / (2.0 * math.pi * wav)
            params, n = f"amp={amp!r},wav={wav}", refcheck.cosine_intensity(amp, wav)
        regions.append((rect, params, n))
    return regions


class DesignSweep(Workload):
    """`roughlub compare --config <design>` on a 96 x 64 grid, one design per round."""

    name = "design-sweep"
    nx, ny = 96, 64

    def round(self, k):
        design = random_design(self.seed, k)
        config = self.tmp / f"design{k}.cfg"
        lines = [f"grid.nx = {self.nx}", f"grid.ny = {self.ny}"]
        lines += [f"rough.region.{i} = {','.join(map(repr, rect))},{params}"
                  for i, (rect, params, _) in enumerate(design, start=1)]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = self.tmp / f"compare{k}"
        elapsed = self.call_cli(["compare", "--config", str(config), "--out", str(out)],
                                f"design {k}: compare")
        if elapsed is None:
            return 1, 1, 0.0
        self.bytes_written += dir_bytes(out)
        self.check(design, out, f"design {k}")
        shutil.rmtree(out)
        config.unlink()
        return 1, 0, elapsed

    def check(self, design, out: Path, what: str) -> None:
        nx, ny = self.nx, self.ny
        smooth = read_nodal_csv(out / "pressure_smooth.csv", nx, ny, "p")
        rough = read_nodal_csv(out / "pressure_rough.csv", nx, ny, "p")
        diff = read_nodal_csv(out / "difference.csv", nx, ny, "dp")
        for p, name in ((smooth, "smooth"), (rough, "rough")):
            check_dirichlet_zero(p, nx, ny, f"{what}: {name}")

        bx, by = refcheck.cell_barycenters(nx, ny)
        h = refcheck.channel_gap(bx)
        rects = [rect for rect, _, _ in design]
        which = refcheck.inside(rects, bx, by)
        a = np.ones(nx * ny)
        b = np.full(nx * ny, 0.5)
        for i, (_, _, n) in enumerate(design):
            a[which == i], b[which == i] = refcheck.coefficients(n)
        check_stencil_residual(smooth, nx, ny, np.ones(nx * ny), np.full(nx * ny, 0.5), h,
                               f"{what}: smooth")
        check_stencil_residual(rough, nx, ny, a, b, h, f"{what}: rough")

        require(np.array_equal(diff, rough - smooth), f"{what}: difference != rough - smooth")
        metrics = dict(line.split("=", 1) for line in
                       (out / "metrics.txt").read_text(encoding="utf-8").splitlines())
        xs, ys = refcheck.node_coords(nx, ny)
        outside = refcheck.inside(rects, xs, ys) < 0
        expect = {"l2": refcheck.nodal_l2(diff, nx, ny),
                  "linf": float(np.abs(diff).max()),
                  "l2_outside_rough": refcheck.nodal_l2(diff, nx, ny, keep=outside)}
        require(sorted(metrics) == sorted(expect), f"{what}: metrics.txt keys {sorted(metrics)}")
        for key, ref in expect.items():
            got = float(metrics[key])
            require(abs(got - ref) <= 1e-12 * ref, f"{what}: {key}={got!r}, expected {ref!r}")
        require(float(metrics["l2_outside_rough"]) > 0.0,
                f"{what}: no pressure change outside the rough regions")


class Pointwise(Workload):
    """Coefficient pairs and velocity profiles, 16 + 16 calls per round.

    Coefficient intensities: 0, 700 and one draw from each of 14 equal
    slices of [log 1e-3, log 700], so N is log-uniform and every round
    spans the whole range (the cost of a pair grows with N).  Profiles: N
    drawn the same way from 16 slices of [0, 30], h1 uniform on [0.5, 2],
    grad p and U_b on [-2, 2]^2, 256 z intervals.
    """

    name = "pointwise"
    coeff_calls = 16
    profile_calls = 16
    z_count = 256

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.b_seen: list[tuple[float, float, float]] = []  # (N, B, reference B)

    @staticmethod
    def _stratified(rng, lo: float, hi: float, count: int) -> list[float]:
        edges = np.linspace(lo, hi, count + 1)
        return [float(v) for v in rng.uniform(edges[:-1], edges[1:])]

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        logs = self._stratified(rng, math.log(1e-3), math.log(700.0), self.coeff_calls - 2)
        ns = [0.0, 700.0] + [min(math.exp(v), 700.0) for v in logs]
        prof = [(float(rng.uniform(0.5, 2.0)), n, rng.uniform(-2.0, 2.0, 2),
                 rng.uniform(-2.0, 2.0, 2))
                for n in self._stratified(rng, 0.0, 30.0, self.profile_calls)]
        coefficients = sys.modules["roughlub"].coefficients
        velocity_profile = sys.modules["roughlub"].velocity_profile
        attempted = failed = 0
        pairs: list = []
        profiles: list = []
        start = time.perf_counter()
        for n in ns:
            attempted += 1
            try:
                pairs.append(coefficients(n))
            except Exception as exc:  # a traceback from the program is a failed call
                failed += 1
                pairs.append(None)
                self.note_failure(f"coefficients({n!r}) raised {exc!r}")
        for h1, n, gp, ub in prof:
            attempted += 1
            try:
                profiles.append(velocity_profile(h1, n, gp, ub, z_count=self.z_count))
            except Exception as exc:  # a traceback from the program is a failed call
                failed += 1
                profiles.append(None)
                self.note_failure(f"velocity_profile(N={n!r}) raised {exc!r}")
        elapsed = time.perf_counter() - start

        for n, pair in zip(ns, pairs):
            if pair is not None:
                self.check_pair(n, pair)
        for (h1, n, gp, ub), profile in zip(prof, profiles):
            if profile is not None:
                self.check_profile(h1, n, gp, ub, profile)
        return attempted, failed, elapsed

    def check_pair(self, n: float, pair) -> None:
        a, b = float(pair[0]), float(pair[1])
        a_ref, b_ref = refcheck.coefficients(n)
        require(a > 0.0, f"A({n!r}) = {a!r} is not positive")
        require(abs(a - a_ref) <= COEFF_RTOL * a_ref and abs(b - b_ref) <= COEFF_RTOL * b_ref,
                f"coefficients({n!r}) = ({a!r}, {b!r}), reference ({a_ref!r}, {b_ref!r})")
        self.b_seen.append((n, b, b_ref))

    def check_profile(self, h1, n, gp, ub, profile) -> None:
        u = np.asarray(profile.u)
        what = f"velocity_profile(h1={h1!r}, N={n!r})"
        require(u.shape == (self.z_count + 1, 2), f"{what}: shape {u.shape}")
        require(np.abs(u[0] - ub).max() <= PROFILE_U_ATOL, f"{what}: u(0) != U_b")
        require(np.abs(u[-1]).max() <= PROFILE_U_ATOL, f"{what}: u(1) != 0")
        step = 1.0 / self.z_count
        flux = h1 * step / 3.0 * (u[0] + u[-1] + 4.0 * u[1:-1:2].sum(axis=0)
                                  + 2.0 * u[2:-1:2].sum(axis=0))
        a, b = refcheck.coefficients(n)
        expect = h1 * b * ub - h1**3 * a * gp / 12.0
        scale = np.abs(h1 * b * ub).max() + np.abs(h1**3 * a * gp / 12.0).max()
        err = np.abs(flux - expect).max()
        require(err <= PROFILE_FLUX_RTOL * scale,
                f"{what}: Simpson flux off by {err:.2e} (scale {scale:.2e})")

    def finish(self):
        # B rises strictly from 1/2 towards 1; compare only intensities whose
        # reference values differ by more than the accuracy checked above
        seen = sorted(set(self.b_seen))
        require(all(0.5 <= b < 1.0 for _, b, _ in seen), "B outside [1/2, 1)")
        last = None
        for n, b, b_ref in seen:
            if last is not None and b_ref - last[2] > 4 * COEFF_RTOL:
                require(b > last[1], f"B not increasing between N={last[0]!r} and N={n!r}")
            if last is None or b_ref - last[2] > 4 * COEFF_RTOL:
                last = (n, b, b_ref)


WORKLOADS = {w.name: w for w in (Fig3Fine, DesignSweep, Pointwise)}
