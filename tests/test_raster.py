import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from fractal_tiling_lab import grids
from fractal_tiling_lab.errors import ConfigError, ResolutionError
from fractal_tiling_lab.grids import (
    ConvexPolygon,
    DistanceField,
    Grid,
    IntervalUnion,
    PolygonUnion,
    distance_transform,
    grid_from_bbox,
    inner_parallel_volume,
    inradius,
    occupied_box,
    parallel_volume,
    rasterize,
    read_cells,
)
from fractal_tiling_lab.pipeline import SceneBundle
from fractal_tiling_lab.presets import get_preset


def square(lo=0.0, hi=1.0):
    return ConvexPolygon(np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]]))


def brute_force_edt(occ):
    """All-pairs integer-squared distances; the oracle for the exact EDT."""
    pts = np.argwhere(occ)
    idx = np.indices(occ.shape).reshape(occ.ndim, -1).T
    d2 = ((idx[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return d2.reshape(occ.shape)


class TestRasterize:
    def test_unit_square_quarter_cells(self):
        g = rasterize(square(), ([0.0, 0.0], [1.0, 1.0]), 0.25)
        assert g.count() == 16
        assert abs(g.area() - 1.0) < 1e-12

    def test_empty_polygon_list(self):
        g = rasterize(PolygonUnion(()), ([0.0, 0.0], [1.0, 1.0]), 0.25)
        assert g.count() == 0

    def test_triangle_area(self):
        delta = 1 / 256
        tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        g = rasterize(tri, ([-0.01, -0.01], [1.01, 1.01]), delta)
        perimeter = 2 + math.sqrt(2)
        assert abs(g.area() - 0.5) <= 2 * delta * perimeter

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(grids, "MAX_CELLS", 10**6)
        with pytest.raises(ResolutionError):
            grid_from_bbox(([0.0, 0.0], [1.0, 1.0]), 1e-6)

    @pytest.mark.parametrize("bbox, delta", [(([0.0], [1.0]), 1e-20), (([0.0, 0.0], [1.0, 1.0]), 1e-10)])
    def test_cell_cap_checked_before_the_int_cast(self, bbox, delta):
        # 1e20 cells: past int64 for one axis and for the product of two
        with pytest.raises(ResolutionError, match=rf"^grid of 1e\+20 cells exceeds the cap of {grids.MAX_CELLS}$"):
            grid_from_bbox(bbox, delta)

    def test_attractor_field_respects_cell_cap(self, monkeypatch):
        # the padded field grid is larger than O and the attractor raster;
        # a cap between them must refuse the field before it is allocated
        scene = replace(get_preset("cantor").scene, delta=2.0**-10)
        bundle = SceneBundle(scene)
        small = max(bundle.O.occupancy.size, bundle.F_tight.occupancy.size)
        monkeypatch.setattr(grids, "MAX_CELLS", small)
        with pytest.raises(ResolutionError):
            bundle.field_small
        monkeypatch.undo()
        assert bundle.field_small.values.size > small


class TestDistanceTransform:
    def test_pythagoras(self):
        g = grid_from_bbox(([0.0, 0.0], [8.0, 8.0]), 1.0)
        occ = np.zeros(g.extents, bool)
        occ[0, 0] = True
        f = distance_transform(g.with_occupancy(occ))
        assert f.values[3, 4] == pytest.approx(5.0, abs=1e-12)

    def test_full_grid_zero(self):
        g = grid_from_bbox(([0.0], [1.0]), 0.125)
        f = distance_transform(g.with_occupancy(np.ones(g.extents, bool)))
        assert np.all(f.values == 0.0)

    def test_empty_grid_rejected(self):
        g = grid_from_bbox(([0.0], [1.0]), 0.125)
        with pytest.raises(ResolutionError):
            distance_transform(g)

    def test_matches_brute_force_random_grids(self, rng):
        # distance_transform itself, in cells (spacing 1), on 1-d and 2-d grids
        for dim in np.repeat((1, 2), 30):
            shape = tuple(rng.integers(4, 65, size=dim))
            occ = rng.random(shape) < 0.15
            if not occ.any():
                occ.flat[0] = True
            f = distance_transform(Grid(np.zeros(dim), 1.0, occ)).values.astype(float)
            assert np.array_equal(np.round(f**2).astype(np.int64), brute_force_edt(occ))

    def test_lipschitz_between_neighbors(self, rng):
        occ = rng.random((48, 48)) < 0.05
        occ[0, 0] = True
        g = Grid(np.zeros(2), 0.1, occ)
        f = distance_transform(g)
        i = rng.integers(0, 47, size=200)
        j = rng.integers(0, 47, size=200)
        slack = 0.1 * 1e-5  # float32 storage of the field
        assert np.all(np.abs(f.values[i, j] - f.values[i + 1, j]) <= 0.1 + slack)
        assert np.all(np.abs(f.values[i, j] - f.values[i, j + 1]) <= 0.1 + slack)


class TestParallelVolume:
    def test_point_on_line(self):
        delta = 0.01
        g = grid_from_bbox(([-1.0], [1.0]), delta)
        occ = np.zeros(g.extents, bool)
        occ[g.indices_of(np.array([0.0]))[0, 0]] = True
        f = distance_transform(g.with_occupancy(occ))
        assert parallel_volume(f, 0.5) == pytest.approx(1.0, abs=2 * delta)

    def test_square_at_zero(self):
        delta = 1 / 128
        g = rasterize(square(), ([-0.1, -0.1], [1.1, 1.1]), delta)
        f = distance_transform(g)
        assert parallel_volume(f, 0.0) == pytest.approx(1.0, abs=4 * delta)

    def test_segment_stadium(self):
        delta = 2.0**-10
        g = grid_from_bbox(([-0.3, -0.3], [1.3, 0.3]), delta)
        xs = g.centers(0)
        occ = np.zeros(g.extents, bool)
        j0 = g.indices_of(np.array([[0.0, 0.0]]))[0, 1]
        occ[(xs >= 0) & (xs <= 1), j0] = True
        f = distance_transform(g.with_occupancy(occ))
        eps = 0.1
        expected = 2 * eps * 1.0 + math.pi * eps**2
        perim = 2 + 2 * math.pi * eps
        assert parallel_volume(f, eps) == pytest.approx(expected, abs=4 * delta * perim)

    def test_monotone_in_eps(self, rng):
        occ = rng.random((64, 64)) < 0.03
        occ[5, 5] = True
        f = distance_transform(Grid(np.zeros(2), 0.05, occ))
        vols = [parallel_volume(f, e) for e in np.linspace(0, 1.5, 25)]
        assert np.all(np.diff(vols) >= 0)

    def test_negative_eps_rejected(self):
        g = rasterize(square(), ([-0.1, -0.1], [1.1, 1.1]), 0.05)
        with pytest.raises(ConfigError):
            parallel_volume(distance_transform(g), -0.1)


class TestInnerParallelVolume:
    def test_square_examples(self):
        delta = 1 / 512
        g = rasterize(square(), ([-0.05, -0.05], [1.05, 1.05]), delta)
        assert inner_parallel_volume(g, 0.1) == pytest.approx(0.36, abs=4 * delta * 4)
        assert inner_parallel_volume(g, 0.6) == pytest.approx(1.0, abs=4 * delta * 4)

    def test_interval_collars(self):
        delta = 1 / 4096
        g = rasterize(IntervalUnion(((0.0, 1.0),)), ([-0.05], [1.05]), delta)
        assert inner_parallel_volume(g, 0.2) == pytest.approx(0.4, abs=2 * delta)
        assert inner_parallel_volume(g, 0.5) == pytest.approx(1.0, abs=2 * delta)

    def test_zero_eps_is_zero(self):
        g = rasterize(square(), ([-0.05, -0.05], [1.05, 1.05]), 1 / 64)
        assert inner_parallel_volume(g, 0.0) == 0.0

    def test_monotone_and_bounded(self):
        g = rasterize(square(), ([-0.05, -0.05], [1.05, 1.05]), 1 / 128)
        vols = [inner_parallel_volume(g, e) for e in np.linspace(0, 0.7, 20)]
        assert np.all(np.diff(vols) >= 0)
        assert vols[-1] <= g.area() + 1e-12

    def test_steiner_convergence_rate(self):
        # inner Steiner polynomial of the unit square: 4 eps - 4 eps^2; the
        # per-eps error is a lattice sawtooth, so the O(delta) rate is
        # measured on the eps-averaged error
        eps_list = np.linspace(0.05, 0.45, 41)
        errs = []
        for delta in (1 / 256, 1 / 512):
            g = rasterize(square(), ([-0.03, -0.03], [1.03, 1.03]), delta)
            errs.append(
                np.mean([abs(inner_parallel_volume(g, e) - (4 * e - 4 * e**2)) for e in eps_list])
            )
        ratio = errs[0] / max(errs[1], 1e-15)
        assert 1.5 <= ratio <= 3.0


class TestInradius:
    def test_unit_square(self):
        delta = 1 / 256
        g = rasterize(square(), ([-0.03, -0.03], [1.03, 1.03]), delta)
        assert inradius(g) == pytest.approx(0.5, abs=delta * math.sqrt(2))

    def test_unit_interval(self):
        delta = 1 / 1024
        g = rasterize(IntervalUnion(((0.0, 1.0),)), ([-0.01], [1.01]), delta)
        assert inradius(g) == pytest.approx(0.5, abs=delta)

    def test_rectangle(self):
        delta = 1 / 256
        rect = ConvexPolygon(np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float))
        g = rasterize(rect, ([-0.03, -0.03], [2.03, 1.03]), delta)
        assert inradius(g) == pytest.approx(0.5, abs=delta * math.sqrt(2))

    def test_empty_region_rejected(self):
        g = grid_from_bbox(([0.0], [1.0]), 0.1)
        with pytest.raises(ResolutionError):
            inradius(g)


class TestExports:
    def test_pgm(self, tmp_path):
        g = rasterize(square(), ([-0.1, -0.1], [1.1, 1.1]), 0.1)
        pgm = tmp_path / "g.pgm"
        g.to_pgm(pgm)
        data = pgm.read_bytes()
        assert data.startswith(b"P5\n")
        header, rest = data.split(b"\n255\n", 1)
        w, h = map(int, header.split(b"\n")[1].split())
        assert w * h == len(rest) == g.occupancy.size


@st.composite
def masks(draw):
    """Random boolean rasters in d = 1 and 2, 1 to 39 cells per axis, sparse to full."""
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.lists(st.integers(1, 39), min_size=dim, max_size=dim)))
    density = draw(st.sampled_from([0.05, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < density


class TestMorphology:
    """grids.morphology against scipy.ndimage on the structures the library uses."""

    @settings(max_examples=300, deadline=None)
    @given(occ=masks(), iterations=st.integers(1, 4))
    def test_equals_scipy(self, occ, iterations):
        before = occ.copy()
        box = np.ones((3,) * occ.ndim, bool)
        cross = ndimage.generate_binary_structure(occ.ndim, 1)
        dilated = grids.morphology(occ, iterations)
        eroded = grids.morphology(occ, iterations, erode=True)
        assert np.array_equal(dilated, ndimage.binary_dilation(occ, box, iterations))
        assert np.array_equal(eroded, ndimage.binary_erosion(occ, cross, iterations, border_value=0))
        assert dilated.dtype == eroded.dtype == bool
        assert np.array_equal(occ, before)  # the input is not written
        g = Grid(np.zeros(occ.ndim), 1.0, occ)
        assert np.array_equal(g.boundary_cells(), occ & ~ndimage.binary_erosion(occ, cross))


class TestOccupiedBox:
    """grids.occupied_box against the box of np.argwhere's cells."""

    @staticmethod
    def reference(occ, margin):
        idx = np.argwhere(occ)
        if not idx.size:
            return (slice(0, 0),) * occ.ndim
        lo = np.maximum(idx.min(axis=0) - margin, 0)
        hi = np.minimum(idx.max(axis=0) + 1 + margin, occ.shape)
        return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("margin", [0, 1, 4])
    def test_equals_argwhere_box(self, rng, dim, margin):
        cases = [np.zeros((9,) * dim, bool), np.ones((3,) * dim, bool)]
        for _ in range(40):
            shape = tuple(rng.integers(1, 25, dim))
            cases.append(rng.random(shape) < rng.choice([0.02, 0.2, 0.9]))
        for corner in ((0,) * dim, (-1,) * dim, (0, -1)[:dim]):
            one = np.zeros((11,) * dim, bool)
            one[corner] = True  # a box that clips at the array's edges
            cases.append(one)
        for occ in cases:
            box = occupied_box(occ, margin)
            assert box == self.reference(occ, margin)
            assert occ[box].sum() == occ.sum()


def bits(a):
    a = np.ascontiguousarray(a, dtype=float)
    return a.shape, a.tobytes()


# origin and spacing chosen so that (idx + 0.5) * spacing rounds
ORIGINS = {1: np.array([-0.3712]), 2: np.array([-0.3712, 0.1137])}
SPACING = 3.0 / 7.0 * 2.0**-5


class TestCellPoints:
    """Grid.cell_points against the per-dimension forms it replaced."""

    def grid(self, rng, dim):
        shape = (37,) if dim == 1 else (23, 41)
        return Grid(ORIGINS[dim], SPACING, rng.random(shape) < 0.4)

    def test_1d_masked_matches_centers(self, rng):
        g = self.grid(rng, 1)
        ref = g.centers(0)[g.occupancy].reshape(-1, 1)
        assert bits(g.cell_points(g.occupancy)) == bits(ref)

    def test_2d_masked_matches_nonzero_columns(self, rng):
        g = self.grid(rng, 2)
        ii, jj = np.nonzero(g.occupancy)
        ref = np.column_stack([
            g.origin[0] + (ii + 0.5) * g.spacing,
            g.origin[1] + (jj + 0.5) * g.spacing,
        ])
        assert bits(g.cell_points(g.occupancy)) == bits(ref)

    def test_first_point_matches_single_cell_form(self, rng):
        g = self.grid(rng, 2)
        idx = np.argwhere(g.occupancy)[0]
        ref = [float(g.origin[ax] + (idx[ax] + 0.5) * g.spacing) for ax in range(2)]
        assert g.cell_points(g.occupancy)[0].tolist() == ref

    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_cells_match_meshgrid_order(self, rng, dim):
        g = self.grid(rng, dim)
        X = np.meshgrid(*(g.centers(ax) for ax in range(dim)), indexing="ij")
        ref = np.column_stack([x.ravel() for x in X])
        assert bits(g.cell_points()) == bits(ref)
        full = np.ones(g.extents, bool)
        assert bits(g.cell_points(full)) == bits(ref)

    @settings(max_examples=200, deadline=None)
    @given(occ=masks(), data=st.data())
    def test_cell_point_is_the_nth_cell_point(self, occ, data):
        if not occ.any():
            return
        g = Grid(ORIGINS[occ.ndim], SPACING, occ)
        n = data.draw(st.integers(0, int(occ.sum()) - 1))
        assert bits(g.cell_point(occ, n)) == bits(g.cell_points(occ)[n])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_mask(self, rng, dim):
        g = self.grid(rng, dim)
        pts = g.cell_points(np.zeros(g.extents, bool))
        assert pts.shape == (0, dim)

    def test_rasterize_matches_meshgrid_sampling(self):
        tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]))
        g = rasterize(tri, ([-0.05, -0.05], [1.05, 0.95]), 2.0**-6)
        X, Y = np.meshgrid(g.centers(0), g.centers(1), indexing="ij")
        ref = tri.contains(np.column_stack([X.ravel(), Y.ravel()])).reshape(g.extents)
        assert np.array_equal(g.occupancy, ref)


def reference_lookup(origin, spacing, cells, points, outside, dtype):
    """The per-class point->cell code that Raster.flat_cells and read_cells replaced."""
    p = np.asarray(points, dtype=float)
    if cells.ndim == 1 and p.ndim == 1:
        p = p[:, None]
    idx = np.floor((p - origin) / spacing).astype(np.int64)
    ok = np.ones(idx.shape[0], dtype=bool)
    for ax in range(cells.ndim):
        ok &= (idx[:, ax] >= 0) & (idx[:, ax] < cells.shape[ax])
    out = np.full(idx.shape[0], outside, dtype=dtype)
    out[ok] = cells[tuple(idx[ok, ax] for ax in range(cells.ndim))]
    return out


class TestPointLookup:
    """Grid.lookup, DistanceField.sample_at and the level-set mask filter
    share one point->cell rule: floor((p - origin) / spacing), in bounds."""

    def rasters(self, rng, dim):
        shape = (19,) if dim == 1 else (13, 17)
        occ = rng.random(shape) < 0.5
        vals = rng.random(shape).astype(np.float32)
        return Grid(ORIGINS[dim], SPACING, occ), DistanceField(ORIGINS[dim], SPACING, vals)

    def probe_points(self, g, rng):
        n = np.array(g.extents)
        k = np.stack([rng.integers(-2, n + 3) for _ in range(40)])
        edges = g.origin + k * g.spacing  # exact cell edges, some on the far border
        inside = g.origin + rng.random((40, g.dim)) * n * g.spacing
        outside = g.origin + np.array([[-1e-12] * g.dim, list(n * g.spacing)])
        return np.concatenate([edges, inside, outside])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_agrees_with_reference(self, rng, dim):
        g, f = self.rasters(rng, dim)
        pts = self.probe_points(g, rng)
        ref_occ = reference_lookup(g.origin, g.spacing, g.occupancy, pts, False, bool)
        ref_val = reference_lookup(f.origin, f.spacing, f.values, pts, np.inf, float)
        assert np.array_equal(g.lookup(pts), ref_occ)
        assert bits(f.sample_at(pts)) == bits(ref_val)
        assert np.isnan(f.sample_at(pts, outside=np.nan)).sum() == np.isinf(ref_val).sum()
        assert f.sample_at(pts).dtype == np.float64
        assert not ref_occ[-2:].any() and np.isinf(ref_val[-2:]).all()
        if dim == 2:
            assert np.array_equal(read_cells(g.occupancy, f.flat_cells(pts), False, bool), ref_occ)

    def test_1d_flat_points(self, rng):
        g, f = self.rasters(rng, 1)
        pts = self.probe_points(g, rng)
        assert np.array_equal(g.lookup(pts.ravel()), g.lookup(pts))
        assert bits(f.sample_at(pts.ravel())) == bits(f.sample_at(pts))
        assert np.array_equal(g.indices_of(pts.ravel()), g.indices_of(pts))


class TestCellReads:
    """DistanceField.sample_cells against sample_at at the grid's cell centers."""

    def field(self, rng, dim):
        shape = (41,) if dim == 1 else (29, 37)
        return DistanceField(ORIGINS[dim], SPACING, rng.random(shape).astype(np.float32))

    def grid_at(self, f, rng, offset, extents):
        occ = rng.random(extents) < 0.5
        return Grid(f.origin + np.asarray(offset, float) * f.spacing, f.spacing, occ)

    def assert_reads(self, f, g, mask, outside=np.inf):
        ref = f.sample_at(g.cell_points(mask), outside)
        got = f.sample_cells(g, mask, outside)
        assert got.dtype == ref.dtype == np.float64
        assert bits(got) == bits(ref)
        if outside is np.nan:
            assert np.array_equal(np.isnan(got), np.isnan(ref))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_on_lattice_inside_slices(self, rng, dim, monkeypatch):
        f = self.field(rng, dim)
        for offset, extents in (((0,) * dim, f.extents), ((3,) * dim, (7,) * dim)):
            g = self.grid_at(f, rng, offset, extents)
            assert f.lattice_slice(g) is not None
            self.assert_reads(f, g, g.occupancy)
            self.assert_reads(f, g, None)
        # the slice path builds no centers
        monkeypatch.setattr(Grid, "cell_points", lambda *a: pytest.fail("centers built"))
        f.sample_cells(g, g.occupancy)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_off_lattice_falls_back(self, rng, dim):
        f = self.field(rng, dim)
        cases = [
            ((0.3,) * dim, (7,) * dim, f.spacing),  # between lattice nodes
            ((-2,) * dim, (9,) * dim, f.spacing),  # partly outside the field
            ((f.extents[0] - 4,) + (0,) * (dim - 1), (9,) * dim, f.spacing),
            ((0,) * dim, (7,) * dim, 0.5 * f.spacing),  # another spacing
        ]
        for offset, extents, spacing in cases:
            occ = rng.random(extents) < 0.5
            g = Grid(f.origin + np.asarray(offset, float) * f.spacing, spacing, occ)
            assert f.lattice_slice(g) is None
            self.assert_reads(f, g, g.occupancy)
            self.assert_reads(f, g, g.occupancy, outside=np.nan)

    def test_relative_inradius_refuses_o_leaving_the_field(self, rng):
        from fractal_tiling_lab.tiling import relative_inradius

        f = self.field(rng, 2)
        inside = self.grid_at(f, rng, (2, 2), (5, 5))
        assert relative_inradius(f, inside) == float(f.sample_at(inside.cell_points(inside.occupancy)).max())
        leaving = Grid(f.origin - 2 * f.spacing, f.spacing, np.ones((5, 5), bool))
        with pytest.raises(ResolutionError, match="leaves the attractor's distance field"):
            relative_inradius(f, leaving)

    @pytest.mark.parametrize(
        "region,bbox",
        [
            (IntervalUnion(((0.1, 0.4), (0.55, 0.9))), ([0.0], [1.0])),
            (ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])), ([-0.05, -0.05], [1.05, 0.95])),
            (PolygonUnion((square(0.1, 0.5), square(0.4, 0.8))), ([0.0, 0.0], [1.0, 1.0])),
        ],
    )
    def test_rasterize_matches_contains_at_centers(self, region, bbox):
        g = rasterize(region, bbox, 2.0**-7)
        assert np.array_equal(g.occupancy, region.contains(g.cell_points()).reshape(g.extents))
