import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughlub.coefficients import coefficients
from roughlub.geometry import (ConfigError, GapProfile, Grid, RoughnessSpec,
                               RoughRegion, ScenarioConfig, build_fields,
                               evaluate_gap, load_config)


class TestLoadConfig:
    def test_minimal_document_gets_reference_defaults(self):
        config = load_config("grid.nx = 8\ngrid.ny = 8\n")
        assert config.nx == 8 and config.ny == 8
        assert config.gap.kind == "quadratic_channel"
        assert config.gap.c0 == 1.0 and config.gap.c1 == 0.5
        assert config.u_b == (1.0, 0.0)
        assert config.q_e == 0.5
        assert config.tol == 1e-10
        assert config.roughness.regions == ()

    def test_comments_and_blank_lines(self):
        config = load_config("# comment\n\ngrid.nx=4  # trailing\ngrid.ny=4\n")
        assert config.nx == 4

    def test_rough_region_direct_intensity(self):
        config = load_config("rough.region.1 = 0.5,0,1,1,n=2\n")
        (region,) = config.roughness.regions
        assert (region.x0, region.y0, region.x1, region.y1) == (0.5, 0.0, 1.0, 1.0)
        assert region.n == 2.0

    def test_rough_region_cosine(self):
        config = load_config("rough.region.1 = 0,0,1,1,amp=0.5,wav=2\n")
        (region,) = config.roughness.regions
        assert region.n == pytest.approx(0.125 * (4 * np.pi) ** 2)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            load_config("grid.nx=8\nspam.eggs=1\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            load_config("grid.nx=8\ngrid.ny=8\nnot a pair\n")

    def test_overlapping_regions_rejected(self):
        doc = "rough.region.1 = 0,0,0.6,1,n=2\nrough.region.2 = 0.4,0,1,1,n=1\n"
        with pytest.raises(ConfigError, match="overlap"):
            load_config(doc)

    def test_touching_regions_allowed(self):
        doc = "rough.region.1 = 0,0,0.5,1,n=2\nrough.region.2 = 0.5,0,1,1,n=1\n"
        assert len(load_config(doc).roughness.regions) == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config("grid.nx=8\ngrid.nx=9\n")

    def test_output_dir_key_is_unknown(self):
        # --out is required on the command line, so the file key is not read
        with pytest.raises(ConfigError, match="line 2.*unknown key 'output.dir'"):
            load_config("grid.nx=8\noutput.dir = results\n")

    def test_oversized_grid_rejected_naming_keys(self):
        # 200000^2 cells would need about 12 TB; rejected before any array exists
        with pytest.raises(ConfigError, match=r"grid\.nx \* grid\.ny"):
            load_config("grid.nx = 200000\ngrid.ny = 200000\n")

    def test_bad_region_parameter(self):
        with pytest.raises(ConfigError, match="rough.region.1"):
            load_config("rough.region.1 = 0,0,1,1,frequency=3\n")

    @pytest.mark.parametrize("params, name", [("n=1,n=3", "n"),
                                              ("amp=0.1,wav=1,amp=0.2", "amp"),
                                              ("amp=0.1,wav=1,wav=1", "wav")])
    def test_repeated_region_parameter_rejected(self, params, name):
        # a repeated parameter is refused like a repeated key, not overwritten
        with pytest.raises(ConfigError) as info:
            load_config(f"grid.nx = 8\nrough.region.1 = 0,0,0.5,1,{params}\n")
        assert str(info.value) == f"key 'rough.region.1': duplicate region parameter {name!r}"

    def test_region_needs_exactly_one_parameterization(self):
        with pytest.raises(ConfigError):
            load_config("rough.region.1 = 0,0,1,1,n=2,amp=1,wav=1\n")
        with pytest.raises(ConfigError):
            load_config("rough.region.1 = 0,0,1,1,amp=1\n")

    @pytest.mark.parametrize("suffix", ["x", "", "-1", "\u00b2"])
    def test_rough_region_key_must_end_in_decimal_digits(self, suffix):
        # "\u00b2" (superscript two) is a digit to str.isdigit, but int() refuses it
        with pytest.raises(ConfigError, match="line 1: bad rough region key"):
            load_config(f"rough.region.{suffix} = 0,0,1,1,n=1\n")

    def test_validation_error_names_key(self):
        with pytest.raises(ConfigError, match="solver.tol|tolerance"):
            load_config("solver.tol = -1\n")

    @pytest.mark.parametrize("wav", ["inf", "nan", "1.5", "0", "-2"])
    def test_region_wavenumber_must_be_positive_integer(self, wav):
        with pytest.raises(ConfigError, match="rough.region.1.*wav"):
            load_config(f"rough.region.1 = 0.5,0,1,1,amp=0.1,wav={wav}\n")

    @pytest.mark.parametrize("params", ["n=nan", "n=inf", "amp=nan,wav=1",
                                        "amp=inf,wav=2", "n=-1"])
    def test_region_values_must_be_finite(self, params):
        with pytest.raises(ConfigError, match="rough.region.2"):
            load_config(f"rough.region.2 = 0.5,0,1,1,{params}\n")

    @staticmethod
    def cosine_intensity(amp, wav):
        """The intensity that load_config gives the cosine region amp=, wav=."""
        (region,) = load_config(f"rough.region.1 = 0,0,1,1,amp={amp},wav={wav}\n"
                                ).roughness.regions
        return region.n

    def test_cosine_flat(self):
        assert self.cosine_intensity(0, 3) == 0.0

    def test_cosine_unit_case(self):
        assert self.cosine_intensity(repr(1.0 / math.pi), 1) == pytest.approx(2.0, rel=1e-14)

    def test_cosine_wavenumber_two(self):
        n = self.cosine_intensity(1, 2)
        assert n == pytest.approx(8.0 * math.pi**2, rel=1e-14)
        assert n == 0.5 * 1.0**2 * (2.0 * math.pi * 2) ** 2  # bit for bit

    @pytest.mark.parametrize("amp,wav", [
        # nan and inf amplitudes: test_region_values_must_be_finite
        ("-0.1", "1"), ("-inf", "1"), ("1.0", "0"), ("1.0", "-2"),
        # the intensity overflows: amp**2 or (2 pi wav)**2 raise OverflowError,
        # and 1e150 with 1e10 multiplies out to inf
        ("1e+200", "1"), ("1.0", "1e300"), ("1e+150", "10000000000")])
    def test_cosine_domain_errors(self, amp, wav):
        with pytest.raises(ConfigError, match="^key 'rough.region.1': [^\n]*$"):
            self.cosine_intensity(amp, wav)

    def test_tabulated_requires_table_path(self):
        with pytest.raises(ConfigError, match="gap.table_path"):
            load_config("gap.kind = tabulated\n")
        with pytest.raises(ConfigError, match="table"):
            GapProfile(kind="tabulated")

    def test_tabulated_table_from_file(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1.0,2.0\n1.0,2.0\n")
        config = load_config(f"gap.kind = tabulated\ngap.table_path = {path}\n")
        assert evaluate_gap(config.gap, 0.5, 0.0) == pytest.approx(1.5)

    def test_tabulated_gap_compares_and_hashes_by_value(self, tmp_path):
        # two loads of one table are equal and hash alike, also inside a
        # ScenarioConfig; one changed entry, or another shape, makes them unequal
        path = tmp_path / "gap.csv"
        path.write_text("1.0,2.0,3.0\n1.5,2.5,3.5\n")
        doc = f"gap.kind = tabulated\ngap.table_path = {path}\n"
        first, second = load_config(doc), load_config(doc)
        assert first.gap.table is not second.gap.table
        assert first.gap == second.gap and hash(first.gap) == hash(second.gap)
        assert first == second and hash(first) == hash(second)
        changed = first.gap.table.copy()
        changed[1, 2] = 3.25
        assert first.gap != GapProfile(kind="tabulated", table=changed)
        assert first.gap != GapProfile(kind="tabulated", table=first.gap.table.reshape(3, 2))
        assert first.gap != GapProfile(kind="constant", c0=1.0)

    def test_table_refused_for_a_kind_that_does_not_read_it(self):
        # such a table would be ignored by the solve, yet make the profile
        # unequal to the same profile without it
        for kind in ("constant", "quadratic_channel"):
            with pytest.raises(ConfigError, match="only valid with gap.kind=tabulated"):
                GapProfile(kind=kind, table=np.ones((2, 2)))

    def test_tabulated_gap_holds_a_read_only_copy(self):
        table = np.array([[1.0, 2.0], [1.0, 2.0]])
        profile = GapProfile(kind="tabulated", table=table)
        table[0, 0] = 5.0
        assert profile.table[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            profile.table[0, 0] = 5.0


class TestEvaluateGap:
    def test_quadratic_channel_minimum(self):
        assert evaluate_gap(GapProfile(), 0.5, 0.3) == pytest.approx(0.5)

    def test_quadratic_channel_inlet_height(self):
        assert evaluate_gap(GapProfile(), 0.0, 0.7) == pytest.approx(1.5)

    def test_constant_profile(self):
        assert evaluate_gap(GapProfile(kind="constant", c0=1.0), 0.23, 0.91) == 1.0

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            evaluate_gap(GapProfile(), 1.2, 0.5)

    def test_tabulated_bilinear(self):
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        profile = GapProfile(kind="tabulated", table=table)
        assert evaluate_gap(profile, 0.0, 0.0) == pytest.approx(1.0)
        assert evaluate_gap(profile, 1.0, 1.0) == pytest.approx(4.0)
        assert evaluate_gap(profile, 0.5, 0.5) == pytest.approx(2.5)

    def test_nonpositive_table_rejected(self):
        with pytest.raises(ConfigError):
            GapProfile(kind="tabulated", table=np.array([[1.0, -1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("kw, key", [
        (dict(kind="constant", c0=-1.0), "gap.c0"),
        (dict(kind="constant", c0=0.0), "gap.c0"),
        (dict(c1=0.0), "gap.c1"),
        (dict(c0=-2.0, c1=0.5), "gap.c0"),
    ])
    def test_nonpositive_constants_rejected(self, kw, key):
        with pytest.raises(ConfigError, match=key):
            GapProfile(**kw)

    def test_negative_channel_curvature_allowed_while_positive(self):
        profile = GapProfile(c0=-0.25, c1=0.5)
        assert evaluate_gap(profile, 0.0, 0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_table_rejected(self, bad):
        with pytest.raises(ConfigError, match="gap.table_path"):
            GapProfile(kind="tabulated", table=np.array([[1.0, bad], [1.0, 1.0]]))

    def test_unparsable_table_file_names_key(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1.0,abc\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="gap.table_path"):
            load_config(f"gap.kind = tabulated\ngap.table_path = {path}\n")

    def test_nonfinite_constants_rejected(self):
        with pytest.raises(ConfigError, match="gap.c0"):
            GapProfile(kind="constant", c0=float("nan"))
        with pytest.raises(ConfigError, match="gap.c1"):
            GapProfile(c1=float("-inf"))


def boundary_tags(grid):
    """Dirichlet and inlet node masks: the Dirichlet nodes are those outside
    grid.free_lattice(), the inlet nodes the free ones on {x=0}."""
    free = np.zeros((grid.ny + 1, grid.nx + 1), dtype=bool)
    free[grid.free_lattice()] = True
    free = free.ravel()
    x, _ = grid.node_coords()
    return ~free, free & (x == 0.0)


class TestGrid:
    def test_node_and_cell_counts(self):
        grid = Grid(4, 3)
        assert grid.n_nodes == 20
        assert grid.node_coords()[0].size == 20
        assert grid.cell_barycenters()[0].size == 12

    def test_boundary_tagging_two_by_two(self):
        grid = Grid(2, 2)
        dirichlet, inlet = boundary_tags(grid)
        # {x=1} u {y=0} u {y=1} leaves the inlet mid-edge node and the center
        assert dirichlet.sum() == 7
        assert inlet.sum() == 1
        x, y = grid.node_coords()
        assert np.array_equal(inlet, (x == 0.0) & (y == 0.5))
        # inlet corners resolve to Dirichlet
        for corner_y in (0.0, 1.0):
            idx = np.flatnonzero((x == 0.0) & (y == corner_y))[0]
            assert dirichlet[idx]

    def test_every_boundary_node_tagged_once(self):
        grid = Grid(5, 7)
        x, y = grid.node_coords()
        boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
        dirichlet, inlet = boundary_tags(grid)
        assert np.array_equal(dirichlet | inlet, boundary)
        assert not np.any(dirichlet & inlet)

    def test_natural_y_sides(self):
        grid = Grid(4, 4, y_sides_natural=True)
        x, _ = grid.node_coords()
        dirichlet, inlet = boundary_tags(grid)
        assert np.array_equal(dirichlet, x == 1.0)
        assert np.array_equal(inlet, x == 0.0)

    @pytest.mark.parametrize("nx, ny", [(4, 3), (5, 7)])
    def test_cell_at(self, nx, ny):
        grid = Grid(nx, ny)
        bx, by = grid.cell_barycenters()
        assert [cy * nx + cx for cx, cy in map(grid.cell_at, bx, by)] == list(range(nx * ny))
        # a point on a shared edge goes to the cell above or to the right;
        # the far sides belong to the last cells
        assert grid.cell_at(1.0 / nx, 1.0 / ny) == (1, 1)
        assert grid.cell_at(1.0, 1.0) == (nx - 1, ny - 1)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            Grid(1, 4)

    def test_cell_limit(self):
        Grid(4096, 4096)  # at the limit: accepted, and nothing is allocated
        for nx, ny in ((4097, 4096), (2**24 + 1, 2), (200000, 200000)):
            with pytest.raises(ConfigError, match="grid.nx"):
                Grid(nx, ny)
            with pytest.raises(ConfigError, match="grid.nx"):
                ScenarioConfig(nx=nx, ny=ny)

    @pytest.mark.parametrize("nx, ny", [(5, 7), (6, 3)])
    @pytest.mark.parametrize("natural", [False, True])
    def test_free_lattice_selects_the_non_dirichlet_nodes(self, nx, ny, natural):
        grid = Grid(nx, ny, y_sides_natural=natural)
        x, y = grid.node_coords()
        pinned = (x == 1.0) | (not natural) & ((y == 0.0) | (y == 1.0))
        assert np.array_equal(boundary_tags(grid)[0], pinned)
        lattice = np.arange(grid.n_nodes).reshape(ny + 1, nx + 1)
        assert np.array_equal(np.sort(lattice[grid.free_lattice()].ravel()),
                              np.flatnonzero(~pinned))


class TestBuildFields:
    def test_smooth_case_is_classical(self):
        _, fields = build_fields(ScenarioConfig(nx=8, ny=8))
        assert np.all(fields.n_psi == 0.0)
        assert np.all(fields.a == 1.0)
        assert np.all(fields.b == 0.5)
        assert np.all(fields.h1_bar > 0.0)

    def test_right_half_rough(self):
        config = ScenarioConfig(
            nx=8, ny=8,
            roughness=RoughnessSpec((RoughRegion(0.5, 0.0, 1.0, 1.0, n=2.0),)))
        grid, fields = build_fields(config)
        bx, _ = grid.cell_barycenters()
        rough = bx > 0.5
        assert np.all(fields.n_psi[rough] == 2.0)
        assert np.all(fields.n_psi[~rough] == 0.0)
        assert fields.a[rough][0] == pytest.approx(1.08696, abs=5e-5)
        assert np.all(fields.a[~rough] == 1.0)

    def test_zero_amplitude_cosine_equals_smooth(self):
        rough = load_config("grid.nx = 8\ngrid.ny = 8\n"
                            "rough.region.1 = 0,0,1,1,amp=0,wav=1\n")
        smooth = ScenarioConfig(nx=8, ny=8)
        _, f_rough = build_fields(rough)
        _, f_smooth = build_fields(smooth)
        assert np.array_equal(f_rough.a, f_smooth.a)
        assert np.array_equal(f_rough.b, f_smooth.b)

    def test_bitwise_idempotent(self):
        config = ScenarioConfig(
            nx=16, ny=16,
            roughness=RoughnessSpec((RoughRegion(0.45, 0.0, 0.55, 1.0, n=2.0),)))
        _, f1 = build_fields(config)
        _, f2 = build_fields(config)
        for name in ("n_psi", "a", "b", "h1_bar"):
            assert np.array_equal(getattr(f1, name), getattr(f2, name))

    def test_coefficient_invariants_per_cell(self):
        from roughlub.coefficients import coefficients
        # one region per regime: near zero, series, closed form; smooth elsewhere
        config = ScenarioConfig(nx=6, ny=6, roughness=RoughnessSpec((
            RoughRegion(0.0, 0.0, 0.5, 0.5, n=5e-7),
            RoughRegion(0.5, 0.0, 1.0, 0.5, n=3.0),
            RoughRegion(0.0, 0.5, 0.5, 1.0, n=50.0))))
        _, fields = build_fields(config)
        assert set(fields.n_psi) == {0.0, 5e-7, 3.0, 50.0}
        for n, a, b in zip(fields.n_psi, fields.a, fields.b):
            assert (a, b) == coefficients(n)

    def test_touching_regions_independent_of_order(self):
        # at nx = 4 the barycenters x = 0.375 lie on the shared edge, where
        # the larger intensity wins in either order
        left = RoughRegion(0.0, 0.0, 0.375, 1.0, n=1.0)
        right = RoughRegion(0.375, 0.0, 1.0, 1.0, n=3.0)
        grid, forward = build_fields(ScenarioConfig(
            nx=4, ny=4, roughness=RoughnessSpec((left, right))))
        _, backward = build_fields(ScenarioConfig(
            nx=4, ny=4, roughness=RoughnessSpec((right, left))))
        assert np.array_equal(forward.n_psi, backward.n_psi)
        bx, _ = grid.cell_barycenters()
        assert np.all(forward.n_psi[bx == 0.375] == 3.0)
        assert np.all(forward.n_psi[bx < 0.375] == 1.0)

    def test_refinement_keeps_interior_values(self):
        region = RoughRegion(0.25, 0.0, 0.75, 1.0, n=2.0)
        for nx in (8, 16, 32):
            config = ScenarioConfig(nx=nx, ny=4,
                                    roughness=RoughnessSpec((region,)))
            grid, fields = build_fields(config)
            bx, by = grid.cell_barycenters()
            # a point well inside the rectangle always gets the rough value
            cell = np.argmin((bx - 0.5) ** 2 + (by - 0.5) ** 2)
            assert fields.n_psi[cell] == 2.0


EIGHTHS = [k / 8 for k in range(9)]


@st.composite
def tilings(draw):
    """Non-overlapping rough rectangles: some cells of a lattice with cuts on
    eighths, so neighbours touch; intensities on both sides of N = 10, with
    ties; regions in any order."""
    xs, ys = (sorted(draw(st.sets(st.sampled_from(EIGHTHS), min_size=2, max_size=5)))
              for _ in range(2))
    cells = [(x0, y0, x1, y1) for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:])]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    n = st.sampled_from([0.0, 0.5, 3.0, 10.0, 10.5, 50.0, 700.0])
    return RoughnessSpec(tuple(RoughRegion(*cell, n=draw(n)) for cell in chosen))


def brute_force(spec, x, y):
    """Largest intensity of the regions that contain (x, y), or 0, and
    whether any region contains it."""
    inside = [r.n for r in spec.regions if r.x0 <= x <= r.x1 and r.y0 <= y <= r.y1]
    return max(inside, default=0.0), bool(inside)


class TestRegionLookup:
    @given(spec=tilings(), nx=st.sampled_from([2, 4, 5, 8, 12]),
           ny=st.sampled_from([2, 4, 7, 8, 12]),
           points=st.lists(st.tuples(st.sampled_from([k / 16 for k in range(17)]),
                                     st.floats(0.0, 1.0)), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_lookup_matches_brute_force(self, spec, nx, ny, points):
        # barycenters of 4 and 12 cells lie on eighths, so on shared edges
        grid, fields = build_fields(ScenarioConfig(nx=nx, ny=ny, roughness=spec))
        bx, by = grid.cell_barycenters()
        xs = np.concatenate([bx, [x for x, _ in points], [y for _, y in points]])
        ys = np.concatenate([by, [y for _, y in points], [x for x, _ in points]])
        expected = [brute_force(spec, x, y) for x, y in zip(xs, ys)]
        assert spec.intensity_at(xs, ys).tolist() == [n for n, _ in expected]
        assert spec.inside_any(xs, ys).tolist() == [inside for _, inside in expected]
        for x, y, (n, inside) in list(zip(xs, ys, expected))[-2 * len(points):]:
            assert (spec.intensity_at(x, y), spec.inside_any(x, y)) == (n, inside)
        assert fields.n_psi.tolist() == [n for n, _ in expected[:bx.size]]
        for n, a, b in zip(fields.n_psi, fields.a, fields.b):
            assert (a, b) == coefficients(n)

    def test_scalar_and_array_results(self):
        spec = RoughnessSpec((RoughRegion(0.0, 0.0, 0.5, 1.0, n=2.0),))
        assert type(spec.intensity_at(0.25, 0.5)) is float
        assert type(spec.inside_any(0.75, 0.5)) is bool
        assert spec.intensity_at(np.array([[0.25, 0.75]]), 0.5).shape == (1, 2)
        assert spec.inside_any(0.25, np.array([0.5, 0.7])).tolist() == [True, True]
