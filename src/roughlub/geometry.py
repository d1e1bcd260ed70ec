"""Domain description: gap profile, rough regions, structured grid, fields.

The horizontal domain is the unit square.  The boundary splits into an inlet
side {x=0}, where a flux is imposed, and the three remaining sides, where the
pressure is pinned to zero.  Roughness lives on axis-aligned rectangles, each
carrying a single intensity value; everywhere else the surface is smooth
(intensity 0).  Coefficients are sampled once per cell at the barycenter, so
the discontinuity across a rough-region edge is kept sharp instead of being
smeared by averaging.

Both input files, the `--config` document and a `gap.table_path` table, go
through one reader, `_read_input`: a regular file of at most MAX_INPUT_BYTES
bytes, UTF-8 with or without a byte-order mark.  Each failure is one
ConfigError line that names the flag or key and the path.
"""

from __future__ import annotations

import math
import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coefficients import N_MAX, coefficients

GAP_KINDS = ("quadratic_channel", "constant", "tabulated")
MAX_CELLS = 2**24  # largest nx * ny (4096^2); a solve peaks near 285 bytes per cell
MAX_INPUT_BYTES = 2**28  # largest --config or gap.table_path file read (256 MiB)


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


@dataclass(frozen=True)
class GapProfile:
    """Leading-order gap height h(x, y) > 0 over the unit square.

    quadratic_channel: h = c0 * (2x - 1)^2 + c1  (a convergent-divergent channel)
    constant:          h = c0
    tabulated:         bilinear interpolation of `table` (uniform grid, row i
                       = y level i/(rows-1), column j = x level j/(cols-1))

    Profiles compare and hash by value, tables by shape and entries, so a
    table loaded twice gives equal profiles; the table is held read-only.
    """

    kind: str = "quadratic_channel"
    c0: float = 1.0
    c1: float = 0.5
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in GAP_KINDS:
            raise ConfigError(f"gap.kind must be one of {GAP_KINDS}, got {self.kind!r}")
        for name, v in (("gap.c0", self.c0), ("gap.c1", self.c1)):
            if not math.isfinite(float(v)):
                raise ConfigError(f"{name} must be finite, got {v}")
        if self.table is not None and self.kind != "tabulated":  # never read, so refused
            raise ConfigError("gap.table_path: only valid with gap.kind=tabulated")
        # The gap must be positive everywhere: the constant gap is c0, and the
        # channel ranges between c1 (x = 1/2) and c0 + c1 (x = 0 and x = 1).
        if self.kind == "constant":
            if not self.c0 > 0.0:
                raise ConfigError(f"gap.c0 must be > 0 for a constant gap, got {self.c0}")
            keys, gaps = "gap.c0", (self.c0, self.c0)
        if self.kind == "quadratic_channel":
            if not self.c1 > 0.0:
                raise ConfigError(f"gap.c1 must be > 0 (the channel gap at x = 1/2), "
                                  f"got {self.c1}")
            if not self.c0 + self.c1 > 0.0:
                raise ConfigError(f"gap.c0 + gap.c1 must be > 0 (the channel gap at "
                                  f"x = 0 and x = 1), got {self.c0} + {self.c1}")
            keys, gaps = "gap.c0, gap.c1", sorted((self.c1, self.c0 + self.c1))
        if self.kind == "tabulated":
            if self.table is None:
                raise ConfigError("tabulated gap profile requires a table")
            t = np.array(self.table, dtype=float)  # a copy that the caller cannot change
            if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] < 2:
                raise ConfigError(f"gap.table_path: table must be 2-d with >= 2 "
                                  f"rows/cols, got {t.shape}")
            if not np.all(np.isfinite(t) & (t > 0.0)):
                raise ConfigError("gap.table_path: table entries must be finite "
                                  "and positive")
            t.flags.writeable = False
            object.__setattr__(self, "table", t)
            keys, gaps = "gap.table_path", (t.min(), t.max())
        # The equation weighs h^3: it must be finite at the largest gap (gaps[1])
        # and a normal double at the smallest, so h^3 A / 12 is finite and positive.
        with np.errstate(over="ignore"):
            cubes = np.array(gaps, dtype=float) ** 3
        if not (np.isfinite(cubes[1]) and cubes[0] >= np.finfo(float).tiny):
            raise ConfigError(f"{keys}: gaps {gaps[0]:g} to {gaps[1]:g} leave about "
                              f"[2.8e-103, 5.6e+102], where h^3 is a finite normal double")

    def __eq__(self, other):
        if not isinstance(other, GapProfile):
            return NotImplemented
        if (self.kind, self.c0, self.c1) != (other.kind, other.c0, other.c1):
            return False
        if self.table is None or other.table is None:
            return self.table is other.table
        return np.array_equal(self.table, other.table)  # shapes, then entries

    def __hash__(self):
        # entries are finite and positive, so equal tables have equal bytes
        table = None if self.table is None else (self.table.shape, self.table.tobytes())
        return hash((self.kind, self.c0, self.c1, table))


def evaluate_gap(profile: GapProfile, x, y):
    """Gap height at (x, y); accepts scalars or equal-shaped arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0) or np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("gap evaluation point outside the unit square")
    if profile.kind == "quadratic_channel":
        h = profile.c0 * (2.0 * x - 1.0) ** 2 + profile.c1 + 0.0 * y
    elif profile.kind == "constant":
        h = profile.c0 + 0.0 * x + 0.0 * y
    else:
        t = profile.table
        ny, nx = t.shape[0] - 1, t.shape[1] - 1
        fx = np.clip(x * nx, 0.0, nx)
        fy = np.clip(y * ny, 0.0, ny)
        j = np.clip(fx.astype(int), 0, nx - 1)
        i = np.clip(fy.astype(int), 0, ny - 1)
        sx, sy = fx - j, fy - i
        h = ((1 - sx) * (1 - sy) * t[i, j] + sx * (1 - sy) * t[i, j + 1]
             + (1 - sx) * sy * t[i + 1, j] + sx * sy * t[i + 1, j + 1])
    if np.any(h <= 0.0):
        raise ValueError("gap profile is non-positive at an evaluation point")
    return float(h) if h.ndim == 0 else h


@dataclass(frozen=True)
class RoughRegion:
    """Axis-aligned rectangle with a roughness intensity `n` in [0, N_MAX]."""

    x0: float
    y0: float
    x1: float
    y1: float
    n: float

    def __post_init__(self):
        if not (0.0 <= self.x0 < self.x1 <= 1.0 and 0.0 <= self.y0 < self.y1 <= 1.0):
            raise ConfigError(
                f"rough region ({self.x0},{self.y0})-({self.x1},{self.y1}) "
                "must be a nondegenerate rectangle inside the unit square")
        if not 0.0 <= self.n <= N_MAX:  # false for nan as well
            raise ConfigError(f"rough region intensity must be in [0, {N_MAX:g}], "
                              f"got {self.n}")

    def contains(self, x, y):
        return (self.x0 <= x) & (x <= self.x1) & (self.y0 <= y) & (y <= self.y1)


@dataclass(frozen=True)
class RoughnessSpec:
    """Collection of non-overlapping rough rectangles; empty means fully smooth."""

    regions: tuple[RoughRegion, ...] = ()

    def __post_init__(self):
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        for i, r in enumerate(regions):
            for s in regions[i + 1:]:
                if (r.x0 < s.x1 and s.x0 < r.x1 and r.y0 < s.y1 and s.y0 < r.y1):
                    raise ConfigError(
                        f"rough regions ({r.x0},{r.y0})-({r.x1},{r.y1}) and "
                        f"({s.x0},{s.y0})-({s.x1},{s.y1}) overlap")

    def _region_at(self, x, y) -> np.ndarray:
        """Index into `regions` of the region holding each point, -1 outside
        every region.

        Regions are closed rectangles, so on an edge shared by two touching
        regions both contain the point; there the larger intensity wins,
        whatever the order of the regions (of equal ones, the later).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        index = np.full(np.broadcast(x, y).shape, -1)
        # in increasing intensity, so that a larger one overwrites a shared edge
        for k in sorted(range(len(self.regions)), key=lambda k: self.regions[k].n):
            np.putmask(index, self.regions[k].contains(x, y), k)
        return index

    def intensity_at(self, x, y):
        """Pointwise intensity field (0 on the smooth part); vectorized."""
        out = np.array([r.n for r in self.regions] + [0.0])[self._region_at(x, y)]
        return float(out) if out.ndim == 0 else out

    def inside_any(self, x, y):
        out = self._region_at(x, y) >= 0
        return bool(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Grid:
    """Uniform (nx x ny)-cell grid on the unit square with boundary tags.

    Node index = iy * (nx + 1) + ix; cell index = cy * nx + cx.  Dirichlet
    nodes are {x=1}, {y=0} and {y=1} (pressure pinned to 0); the remaining
    {x=0} nodes are the flux inlet.  The two inlet corners go to the Dirichlet
    set (ties resolve to Dirichlet).  With `y_sides_natural` the y = 0, 1
    sides become do-nothing boundaries instead; this exists only so that
    y-independent validation problems stay y-independent.

    At most MAX_CELLS cells are accepted, checked before any array is built.
    """

    nx: int
    ny: int
    y_sides_natural: bool = False

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ConfigError(f"grid.nx and grid.ny must be >= 2, got {self.nx} x {self.ny}")
        if self.nx * self.ny > MAX_CELLS:
            raise ConfigError(f"grid.nx * grid.ny must be <= {MAX_CELLS}, "
                              f"got {self.nx} x {self.ny}")

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        ix = np.tile(np.arange(self.nx + 1), self.ny + 1)
        iy = np.repeat(np.arange(self.ny + 1), self.nx + 1)
        return ix / self.nx, iy / self.ny

    def free_lattice(self) -> tuple[slice, slice]:
        """Slices (rows, cols) of the (ny + 1, nx + 1) node lattice that select
        the free (non-Dirichlet) nodes.  They index from both ends, so they
        select the free nodes of every coarser lattice with the same corners."""
        return slice(None) if self.y_sides_natural else slice(1, -1), slice(None, -1)

    def cell_at(self, x: float, y: float) -> tuple[int, int]:
        """Column and row (cx, cy) of the cell holding the point (x, y) of the
        square; points on a shared edge go to the cell above or to the right."""
        return min(int(x * self.nx), self.nx - 1), min(int(y * self.ny), self.ny - 1)

    def cell_barycenters(self) -> tuple[np.ndarray, np.ndarray]:
        bx = (np.tile(np.arange(self.nx), self.ny) + 0.5) / self.nx
        by = (np.repeat(np.arange(self.ny), self.nx) + 0.5) / self.ny
        return bx, by


@dataclass(frozen=True)
class CoefficientFields:
    """Per-cell data entering the pressure equation (cell index = cy*nx + cx)."""

    n_psi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    h1_bar: np.ndarray


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one pressure computation."""

    nx: int = 64
    ny: int = 64
    gap: GapProfile = field(default_factory=GapProfile)
    roughness: RoughnessSpec = field(default_factory=RoughnessSpec)
    u_b: tuple[float, float] = (1.0, 0.0)
    q_e: float = 0.5
    tol: float = 1e-10
    y_sides_natural: bool = False

    def __post_init__(self):
        Grid(self.nx, self.ny)  # checks the cell counts without building arrays
        for name, v in (("velocity.ubx", self.u_b[0]), ("velocity.uby", self.u_b[1]),
                        ("inlet.flux", self.q_e)):
            if not math.isfinite(float(v)):
                raise ConfigError(f"{name} must be finite, got {v}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError(f"solver.tol must be positive and finite, got {self.tol}")


def _read_input(path: str, read, label: str):
    """`read(f)` of the input file at `path`, opened as UTF-8 text: the one
    reader of `--config` and `gap.table_path`.

    Only a regular file is opened (opening a FIFO waits for a writer), and
    only if it holds at most MAX_INPUT_BYTES bytes, checked before any byte
    is read.  A byte-order mark, which some spreadsheet programs write, is
    skipped.  A failure of the file, of its decoding or of `read` raises one
    ConfigError, `<label> '<path>': <reason>`.
    """
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            raise ValueError("is a directory" if os.path.isdir(path) else "not a regular file")
        if info.st_size > MAX_INPUT_BYTES:
            raise ValueError(f"over {MAX_INPUT_BYTES} bytes")
        with open(path, encoding="utf-8-sig") as f:
            return read(f)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, not UTF-8, bad data
        reason = ("file not found" if isinstance(exc, (FileNotFoundError, NotADirectoryError))
                  else getattr(exc, "strerror", None) or str(exc))
        raise ConfigError(f"{label} {path!r}: {reason}") from None


def _load_table(f) -> np.ndarray:
    # np.loadtxt gets a handle: it would fetch a path that looks like a URL.
    # It warns, instead of raising, on a file without data rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            return np.loadtxt(f, delimiter=",", ndmin=2)
        except UserWarning:
            raise ValueError("no data rows") from None


# config key -> (field of GapProfile for the gap.* keys, of ScenarioConfig for
# the others; conversion of the value); velocity.ubx and .uby make up u_b
_KEYS = {
    "gap.kind": ("kind", str), "gap.c0": ("c0", float), "gap.c1": ("c1", float),
    "gap.table_path": ("table", lambda path: _read_input(path, _load_table, "cannot read")),
    "grid.nx": ("nx", int), "grid.ny": ("ny", int),
    "velocity.ubx": ("ubx", float), "velocity.uby": ("uby", float),
    "inlet.flux": ("q_e", float), "solver.tol": ("tol", float),
}


def _parse_region(value: str, where: str) -> RoughRegion:
    """A `rough.region.K` value: the rectangle and either `n=<N>` or a cosine
    ripple `amp=<a>,wav=<k>`, a cos(2 pi k x), which is stored as its
    intensity, the cell average of its squared gradient: n = a^2 (2 pi k)^2 / 2
    (the ripple varies in one direction only, so whatever the dimension)."""
    parts = [p.strip() for p in value.split(",")]
    if len(parts) < 5:
        raise ConfigError(f"{where}: expected 'x0,y0,x1,y1,n=<N>' or "
                          f"'x0,y0,x1,y1,amp=<a>,wav=<k>', got {value!r}")
    try:
        x0, y0, x1, y1 = (float(p) for p in parts[:4])
    except ValueError as exc:
        raise ConfigError(f"{where}: bad rectangle corner: {exc}") from None
    kw: dict[str, float] = {}
    for p in parts[4:]:
        if "=" not in p:
            raise ConfigError(f"{where}: expected key=value region parameter, got {p!r}")
        k, _, v = p.partition("=")
        k = k.strip()
        if k not in ("n", "amp", "wav"):
            raise ConfigError(f"{where}: unknown region parameter {k!r}")
        if k in kw:
            raise ConfigError(f"{where}: duplicate region parameter {k!r}")
        try:
            kw[k] = float(v)
        except ValueError:
            raise ConfigError(f"{where}: bad numeric value for {k}: {v!r}") from None
    n, amp, wav = kw.get("n"), kw.get("amp"), kw.get("wav")
    if wav is not None and not (math.isfinite(wav) and wav >= 1 and wav == int(wav)):
        raise ConfigError(f"{where}: wav must be a positive integer, got {wav:g}")
    if (n is None) == (amp is None and wav is None):
        raise ConfigError(f"{where}: rough region needs either n=<value> or amp=,wav= "
                          "(not both)")
    if n is None:
        if amp is None or wav is None:
            raise ConfigError(f"{where}: cosine rough region needs both amp= and wav=")
        if not 0.0 <= amp < math.inf:  # false for nan as well
            raise ConfigError(f"{where}: amp must be finite and >= 0, got {amp:g}")
        try:
            n = 0.5 * amp**2 * (2.0 * math.pi * wav) ** 2
        except OverflowError:
            n = math.inf  # outside [0, N_MAX], so RoughRegion refuses it
    try:
        return RoughRegion(x0, y0, x1, y1, n)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(text: str) -> ScenarioConfig:
    """Parse a `key = value` scenario document (one pair per line, # comments).

    Unknown keys are a hard error; an omitted key keeps the default of its
    `ScenarioConfig` or `GapProfile` field.
    """
    values: dict[str, str] = {}
    regions: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("rough.region."):
            suffix = key[len("rough.region."):]
            if not suffix.isdecimal():
                raise ConfigError(f"line {lineno}: bad rough region key {key!r}")
            k = int(suffix)
            if k in regions:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            regions[k] = value
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    tabulated = values.get("gap.kind") == "tabulated"
    if tabulated and "gap.table_path" not in values:
        raise ConfigError("key 'gap.table_path': required for gap.kind=tabulated")
    if not tabulated and "gap.table_path" in values:
        raise ConfigError("key 'gap.table_path': only valid with gap.kind=tabulated")

    def converted(gap_keys: bool) -> dict:
        """Converted values of the keys present, for GapProfile (the gap.*
        keys) or for ScenarioConfig (the others)."""
        out = {}
        for key, (name, conv) in _KEYS.items():
            if key in values and key.startswith("gap.") == gap_keys:
                try:
                    out[name] = conv(values[key])
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"key {key!r}: {exc}") from None
        return out

    gap = GapProfile(**converted(True))
    rough = RoughnessSpec(tuple(
        _parse_region(regions[k], f"key 'rough.region.{k}'") for k in sorted(regions)))
    top = converted(False)
    ubx, uby = ScenarioConfig.u_b
    return ScenarioConfig(gap=gap, roughness=rough,
                          u_b=(top.pop("ubx", ubx), top.pop("uby", uby)), **top)


def build_fields(config: ScenarioConfig) -> tuple[Grid, CoefficientFields]:
    """Sample intensity, coefficients and gap height at every cell barycenter.

    A cell is rough iff its barycenter lies inside a rough rectangle, so the
    assignment is deterministic and stable under refinement (interior points
    keep their value).  Each cell reads the (N, A, B) of its region, or of
    the smooth surface, computed once per region.
    """
    grid = Grid(config.nx, config.ny, y_sides_natural=config.y_sides_natural)
    bx, by = grid.cell_barycenters()
    index = config.roughness._region_at(bx, by)
    n = [r.n for r in config.roughness.regions] + [0.0]  # index -1 reads the smooth 0
    a, b = zip(*map(coefficients, n))
    n_psi, a, b = (np.array(values)[index] for values in (n, a, b))
    h1_bar = np.asarray(evaluate_gap(config.gap, bx, by))
    return grid, CoefficientFields(n_psi=n_psi, a=a, b=b, h1_bar=h1_bar)
