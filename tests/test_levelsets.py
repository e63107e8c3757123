import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from fractal_tiling_lab import conditions, curvature, grids, levelsets, pipeline, presets
from fractal_tiling_lab.errors import ResolutionError
from fractal_tiling_lab.grids import (
    ConvexPolygon,
    DistanceField,
    distance_transform,
    grid_from_bbox,
    inner_distance,
    rasterize,
)
from fractal_tiling_lab.levelsets import (
    LevelSetExtractor,
    contour_components,
    euler_and_turning,
    euler_characteristic,
)


def point_field(points, bbox, delta):
    g = grid_from_bbox(bbox, delta)
    occ = np.zeros(g.extents, bool)
    idx = g.indices_of(np.asarray(points, float))
    occ[idx[:, 0], idx[:, 1]] = True
    return distance_transform(g.with_occupancy(occ))


def boundary_length(f, eps, mask=None):
    """Length of the level set {f = eps}, restricted to mask cells when given."""
    return LevelSetExtractor(f).measure(eps, mask)[0]


class TestBoundaryLength:
    def test_circle(self):
        f = point_field([[0.0, 0.0]], ([-2.0, -2.0], [2.0, 2.0]), 2.0**-9)
        assert boundary_length(f, 1.0) == pytest.approx(2 * math.pi, rel=0.01)

    def test_inner_offset_square_perimeter(self):
        delta = 2.0**-10
        sq = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        g = rasterize(sq, ([-0.05, -0.05], [1.05, 1.05]), delta)
        f = inner_distance(g)
        # level set at inner offset 0.1 is the 0.8-square
        assert boundary_length(f, 0.1) == pytest.approx(3.2, rel=0.01)

    def test_two_disjoint_circles(self):
        f = point_field([[0.0, 0.0], [3.0, 0.0]], ([-2.0, -2.0], [5.0, 2.0]), 2.0**-9)
        assert boundary_length(f, 1.0) == pytest.approx(4 * math.pi, rel=0.01)

    def test_mask_restriction_halves_symmetric_circle(self):
        delta = 2.0**-9
        f = point_field([[0.0, 0.0]], ([-2.0, -2.0], [2.0, 2.0]), delta)
        mask = np.zeros(f.extents, bool)
        mask[: f.extents[0] // 2, :] = True  # left half-plane
        left = boundary_length(f, 1.0, mask)
        assert left == pytest.approx(math.pi, rel=0.03)

    def test_grid_contact_raises(self):
        f = point_field([[0.0, 0.0]], ([-1.2, -1.2], [1.2, 1.2]), 2.0**-7)
        for eps in (1.4, 2.0):  # the border partly, then wholly in {f <= eps}
            with pytest.raises(ResolutionError):
                boundary_length(f, eps)


class TestEulerAndTurning:
    def test_disk(self):
        f = point_field([[0.0, 0.0]], ([-2.0, -2.0], [2.0, 2.0]), 2.0**-8)
        chi, turning = euler_and_turning(f, 1.0)
        assert chi == 1
        assert turning == pytest.approx(1.0, abs=0.02)

    def test_annulus(self):
        delta = 2.0**-9
        g = grid_from_bbox(([-2.0, -2.0], [2.0, 2.0]), delta)
        X, Y = np.meshgrid(g.centers(0), g.centers(1), indexing="ij")
        r = np.hypot(X, Y)
        occ = (r > 0.5) & (r < 1.0)
        chi = euler_characteristic(occ)
        assert chi == 0

    def test_disjoint_disk_cluster(self):
        # 25 points on a grid, eps below half the spacing: chi = 25
        pts = [[i, j] for i in range(5) for j in range(5)]
        delta = 2.0**-6
        f = point_field(pts, ([-1.0, -1.0], [5.0, 5.0]), delta)
        chi, turning = euler_and_turning(f, 0.4)
        lab, ncomp = ndimage.label(f.values <= 0.4)
        assert ncomp == 25  # brute-force component count oracle
        assert chi == 25
        assert turning == pytest.approx(25.0, abs=0.05)

    def test_closure_on_noisy_blobs(self, rng):
        delta = 1.0 / 128
        pts = rng.random((40, 2)) * 2.0
        f = point_field(pts, ([-1.0, -1.0], [3.0, 3.0]), delta)
        for eps in (0.05, 0.11, 0.23, 0.41):
            chi, turning = euler_and_turning(f, eps)
            assert abs(turning - chi) <= 0.05

    def test_quad_count_chi_matches_label_oracle(self, rng):
        for _ in range(20):
            occ = rng.random((48, 48)) < 0.35
            chi = euler_characteristic(occ)
            _, ncomp = ndimage.label(occ)  # 4-connected components
            _, nbg = ndimage.label(~np.pad(occ, 1), structure=np.ones((3, 3), int))
            holes = nbg - 1  # 8-connected background minus the outside
            assert chi == ncomp - holes


class TestContourComponents:
    """contour_components calls scipy's compiled label kernel directly; it
    counts what ndimage.label counts with the 8-connected structure."""

    @settings(max_examples=300, deadline=None)
    @given(m=arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)), flip=st.booleans())
    @example(m=np.zeros((5, 7), bool), flip=False)
    @example(m=np.ones((5, 7), bool), flip=False)
    @example(m=np.array([[True, False, True, True, False, True]]), flip=False)
    @example(m=np.array([[True], [False], [True], [True]]), flip=False)
    @example(m=np.eye(6, dtype=bool), flip=True)
    def test_matches_ndimage_label(self, m, flip):
        m = m.T if flip else m  # a strided view, as the boundary-null check passes crops
        assert contour_components(m) == ndimage.label(m, structure=np.ones((3, 3), int))[1]


class TestLocality:
    def test_mask_partition_additivity(self):
        delta = 2.0**-9
        f = point_field([[0.0, 0.0], [1.4, 0.2]], ([-2.0, -2.0], [3.4, 2.2]), delta)
        ex = LevelSetExtractor(f)
        n = f.extents[0]
        masks = []
        for k in range(4):
            m = np.zeros(f.extents, bool)
            m[k * n // 4 : (k + 1) * n // 4, :] = True
            masks.append(m)
        eps = 0.8
        total_len, total_turn, _ = ex.measure(eps)
        part_len = sum(ex.measure(eps, m)[0] for m in masks)
        part_turn = sum(ex.measure(eps, m)[1] for m in masks)
        seam_len = 4 * 2 * 2 * delta  # 4 seams, up to 2 crossings, ~2 cells each
        assert abs(part_len - total_len) <= seam_len + 0.01 * total_len
        assert abs(part_turn - total_turn) <= 0.05 * 2 * math.pi

    def test_length_reads_midpoints_and_turning_reads_start_points(self):
        """A mask of the cells holding the segments' start points keeps every
        turning angle; one of the cells holding their midpoints keeps every
        length. measure_masks takes several masks in one call."""
        f = point_field([[0.0, 0.0], [1.4, 0.2]], ([-2.0, -2.0], [3.4, 2.2]), 2.0**-7)
        ex = LevelSetExtractor(f)
        ls = ex.extract(0.8)
        cells = []
        for pts in (ls.p_in, 0.5 * (ls.p_in + ls.p_out)):
            m = np.zeros(f.extents, bool)
            m[tuple(f.indices_of(pts).T)] = True
            cells.append(m)
        total = ex.measure(0.8)
        (len_s, turn_s, abs_s), (len_m, turn_m, abs_m) = ex.measure_masks(ls, cells)
        assert (turn_s, abs_s) == total[1:] and len_s < total[0]
        assert len_m == total[0] and abs_m < total[2]
        assert ex.measure_masks(ls, [None, cells[1]]) == [total, (len_m, turn_m, abs_m)]


class FullScanExtractor(LevelSetExtractor):
    """Reference: the band found by scanning every dual cell, as before the index."""

    def corner_extremes(self):
        """float32 (fmin, fmax) of every dual cell, from the whole field at once."""
        f = self.field.values
        c0, c1, c2, c3 = f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]
        return [op(op(c0, c1), op(c2, c3)).astype(np.float32) for op in (np.minimum, np.maximum)]

    def _band(self, eps):
        fmin, fmax = self.corner_extremes()
        return np.nonzero((fmin <= eps) & (fmax > eps))


class LoopExtractor(LevelSetExtractor):
    """Reference: the per-case loop that extracted before the case table."""

    def extract(self, eps):
        eps = self._nudge(eps)
        self._check_contact(eps)
        f = self.field.values
        ny = f.shape[1]
        ii, jj = self._band(eps)
        f00, f10, f11, f01 = f[ii, jj], f[ii + 1, jj], f[ii + 1, jj + 1], f[ii, jj + 1]
        case = ((f00 <= eps).astype(np.int8) + 2 * (f10 <= eps) + 4 * (f11 <= eps)
                + 8 * (f01 <= eps))

        def crossing(edge, i, j, a, b):
            t = np.clip((eps - a) / np.where(b == a, np.inf, b - a), 0.0, 1.0)
            if edge == 0:
                return np.column_stack([i + 0.5 + t, j + 0.5]), i * ny + j
            if edge == 2:
                return np.column_stack([i + 0.5 + t, j + 1.5]), i * ny + (j + 1)
            base = self._n_xedges
            if edge == 3:
                return np.column_stack([i + 0.5, j + 0.5 + t]), base + i * (ny - 1) + j
            return np.column_stack([i + 1.5, j + 0.5 + t]), base + (i + 1) * (ny - 1) + j

        corner_vals = {0: (f00, f10), 1: (f10, f11), 2: (f01, f11), 3: (f00, f01)}
        pins, pouts, eins, eouts, cells = [], [], [], [], []
        for code, segs in enumerate(levelsets._CASES):
            sel = case == code
            if not segs or not sel.any():
                continue
            i, j = ii[sel], jj[sel]
            for e_in, e_out in segs:
                p0, id0 = crossing(e_in, i, j, *(v[sel] for v in corner_vals[e_in]))
                p1, id1 = crossing(e_out, i, j, *(v[sel] for v in corner_vals[e_out]))
                pins.append(p0)
                pouts.append(p1)
                eins.append(id0)
                eouts.append(id1)
                cells.append(np.column_stack([i, j]))
        if not pins:
            empty = np.empty((0, 2))
            return levelsets.LevelSet(empty, empty, np.empty(0, np.int64), np.empty(0, np.int64),
                                      np.empty((0, 2), np.int64))
        origin, delta = self.field.origin, self.field.spacing
        return levelsets.LevelSet(
            np.concatenate(pins) * delta + origin, np.concatenate(pouts) * delta + origin,
            np.concatenate(eins).astype(np.int64), np.concatenate(eouts).astype(np.int64),
            np.concatenate(cells))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ResolutionError as exc:
        return ("raised", str(exc))


def assert_same_level_set(a, b):
    for name in ("p_in", "p_out", "ein", "eout", "cell_ij"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


COARSE = 2.0**-7


@pytest.fixture(scope="module", params=["carpet", "koch", "gasket"])
def coarse_bundle(request):
    scene = presets.get_preset(request.param).scene
    return pipeline.SceneBundle(replace(scene, delta=COARSE))


@st.composite
def fields(draw):
    """Small fields with ties, plateaus, clamped keys and no Lipschitz bound.

    The border ring is one constant, so no threshold touches the grid
    boundary and every level set closes.
    """
    nx, ny = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    spacing = draw(st.sampled_from([2.0**-7, 0.3, 1.0, 1e-3]))
    # few distinct levels give exact ties and plateaus; the large and the
    # negative ones put bin keys on both clamps; the spread breaks Lipschitz
    levels = draw(st.lists(
        st.one_of(st.integers(-3, 12), st.sampled_from([65534, 65535, 65536, 70000, 1e6])),
        min_size=1, max_size=6, unique=True))
    scale = draw(st.sampled_from([1.0, 0.5, 0.37, 7.0]))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=nx * ny, max_size=nx * ny))
    vals = np.array([levels[i] for i in picks], float).reshape(nx, ny) * scale * spacing
    border = draw(st.sampled_from(levels)) * scale * spacing
    vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = border
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return DistanceField(np.zeros(2), spacing, vals.astype(dtype))


# SHA-256 of measure_mask_profiles(field_small, grid_curv.eps, [G, O]) at 2^-7,
# as the bin-index extractor gave them
MASK_PROFILE_DIGESTS = {
    "carpet": "c36e64b47419dbbe95668a865dc916d8b957d75aa649383e6d43fe130d039058",
    "koch": "1bd92fc0cffbce1cce155285db5bab33988ecc784006ca094413feae4d6ed106",
    "gasket": "33b9e86440ca5bbecd299075fd905bc2c64a58b05eee57a61f715b6659e08467",
}


def assert_index_holds_each_cell_once(ex):
    levels, cells, count, starts, widest = ex._index
    assert np.unique(cells).size == cells.size
    assert starts[-1] == cells.size and count.size == cells.size
    assert cells.size == 0 or (count.min() >= 1 and count.max() == widest)


class TestBandIndex:
    """The swept extractor returns exactly what the full scan returned."""

    @pytest.mark.parametrize("chunk", [4099, 1 << 20])
    def test_preset_fields_bitwise(self, coarse_bundle, chunk):
        b = coarse_bundle
        field = b.field_small
        with mock.patch.object(levelsets, "_STRIP_CELLS", chunk):
            new = LevelSetExtractor(field)
            new.index(b.grid_curv.eps)
            ref = FullScanExtractor(field)
            mask = b.O.embed_into(field.origin, field.extents)
            # the indexed thresholds, then midpoints that each sweep on their own
            eps = b.grid_curv.eps
            for e in [*eps, *(0.5 * (eps[:-1] + eps[1:]))[::5]]:
                e = float(e)
                assert_same_level_set(new.extract(e), ref.extract(e))
                assert new.measure(e) == ref.measure(e)
                assert new.measure(e, mask) == ref.measure(e, mask)
        assert_index_holds_each_cell_once(new)
        # the tracer's _fmin, built on demand, is the true corner minima
        assert "_fmin" not in vars(new)
        assert new._fmin.tobytes() == ref.corner_extremes()[0].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(field=fields(), data=st.data())
    def test_random_fields_bitwise(self, field, data):
        chunk = data.draw(st.sampled_from([7, 64, 1 << 20]))
        vals = np.unique(field.values)
        lo, hi = float(vals[0]), float(vals[-1])
        near = [float(np.nextafter(np.float32(v), np.float32(-np.inf))) for v in vals[:3]]
        # below and above every value, exact ties, float32 neighbours, and
        # pairs that fall on one float32 after the nudge
        pool = [lo - 1.0, hi + 1.0, 0.5 * (lo + hi), *map(float, vals), *near]
        pool += [e * (1 + 1e-12) for e in pool[:4]]
        eps_list = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        with mock.patch.object(levelsets, "_STRIP_CELLS", chunk):
            new = LevelSetExtractor(field)
            new.index(np.array(eps_list))
            ref = FullScanExtractor(field)
            for e in eps_list + data.draw(st.lists(st.sampled_from(pool), max_size=3)):
                a, r = new._band(new._nudge(e)), ref._band(ref._nudge(e))
                assert all(x.tobytes() == y.tobytes() for x, y in zip(a, r))
                ls_new, ls_ref = outcome(new.extract, e), outcome(ref.extract, e)
                if isinstance(ls_ref, tuple):
                    assert ls_new == ls_ref
                    continue
                assert_same_level_set(ls_new, ls_ref)
                assert outcome(new.measure, e) == outcome(ref.measure, e)
        assert_index_holds_each_cell_once(new)

    def test_width_is_measured(self):
        # a non-Lipschitz field: one spike 40 cells high in a flat field; its
        # four dual cells cross every threshold and are kept once each
        vals = np.zeros((9, 9), np.float32)
        vals[4, 4] = 40.0
        field = DistanceField(np.zeros(2), 1.0, vals)
        ex = LevelSetExtractor(field)
        ex.index([0.5, 10.0, 39.0])
        assert ex._index[1].size == 4 and ex._index[4] == 3
        for e in (0.5, 10.0, 39.0):
            assert_same_level_set(ex.extract(e), FullScanExtractor(field).extract(e))
            assert ex.extract(e).ein.size == 4

    def test_unindexed_extractor_gives_the_bundles_profiles(self, coarse_bundle):
        b = coarse_bundle
        field, eps = b.field_small, b.grid_curv.eps
        mask = b.O.embed_into(field.origin, field.extents)
        for m in (None, mask):
            fresh = curvature.measure_profiles(field, eps, m, LevelSetExtractor(field))
            swept = curvature.measure_profiles(field, eps, m, b.field_extractor)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(fresh, swept))

    def test_mask_profiles_digest(self, coarse_bundle):
        b = coarse_bundle
        field = b.field_small
        masks = [getattr(b.tiling, r).embed_into(field.origin, field.extents) for r in ("G", "O")]
        out = curvature.measure_mask_profiles(field, b.grid_curv.eps, masks, LevelSetExtractor(field))
        digest = hashlib.sha256(np.asarray(out).tobytes()).hexdigest()
        assert digest == MASK_PROFILE_DIGESTS[b.scene.name]

    @pytest.mark.parametrize("preset", ["carpet", "gasket"])
    def test_boundary_null_unchanged(self, preset):
        b = pipeline.SceneBundle(replace(presets.get_preset(preset).scene, delta=COARSE))
        O, field, eps = b.O, b.field_small, b.eps_boundary_null
        ref = FullScanExtractor(field)
        # the check's collar, rebuilt as check_boundary_null builds it
        edge = O.boundary_cells() | (grids.morphology(O.occupancy) & ~O.occupancy)
        collar = O.with_occupancy(grids.morphology(edge, 2)).embed_into(
            field.origin, field.extents)
        for e in eps:
            ls = b.field_extractor.extract(float(e))
            assert b.field_extractor.measure_masks(ls, [collar])[0] == ref.measure(float(e), collar)
            cells = b.field_extractor.level_set_cells(ls, collar)
            assert np.array_equal(cells, ref.level_set_cells(ref.extract(float(e)), collar))
        for k in (0, 1):
            banded = conditions.check_boundary_null(O, field, k, eps, extractor=b.field_extractor)
            scanned = conditions.check_boundary_null(O, field, k, eps, extractor=ref)
            assert banded.to_dict() == scanned.to_dict()
        assert b.checks()["boundary_null"].to_dict() == conditions.check_boundary_null(
            O, field, 1, eps, extractor=ref).to_dict()

    def test_boundary_null_fail_report_unchanged(self):
        # bd F_eps runs along O's bottom edge at eps = h: a fail report with numbers
        delta, h = 2.0**-8, 12 * 2.0**-8
        g = grid_from_bbox(([-0.25, -0.25], [1.25, 0.5]), delta)
        occ = np.zeros(g.extents, bool)
        xs = g.centers(0)
        occ[(xs >= 0) & (xs <= 1), g.indices_of(np.zeros((1, 2)))[0, 1]] = True
        field = distance_transform(g.with_occupancy(occ))
        O = rasterize(ConvexPolygon(np.array([[0.0, h], [1.0, h], [1.0, 0.25], [0.0, 0.25]])),
                      ([0.0, 0.0], [1.0, 0.3125]), delta)
        eps = np.array([h / 2, h, 2 * h])
        ref = FullScanExtractor(field)
        for k in (0, 1):
            banded = conditions.check_boundary_null(O, field, k, eps, LevelSetExtractor(field))
            scanned = conditions.check_boundary_null(O, field, k, eps, extractor=ref)
            assert banded.to_dict() == scanned.to_dict()
        assert banded.verdict == "fail"


def corner_pattern_fields(dtype):
    """Fields whose dual cell (1, 1) carries each of the 16 corner patterns at eps = 0.5.

    Inside corners are 0 or an exact tie at the nudged eps; outside corners
    are 1 or share a value with a neighbour (flat edges). The ring is 1, so
    every level set closes.
    """
    probe = LevelSetExtractor(DistanceField(np.zeros(2), 0.25, np.ones((3, 3), dtype)))
    tie = probe._nudge(0.5)
    corners = [(1, 1), (2, 1), (2, 2), (1, 2)]  # corner bits 1, 2, 4, 8 of cell (1, 1)
    for code in range(16):
        for inside, outside in ((0.0, 1.0), (tie, 1.0), (0.0, 0.75)):
            vals = np.ones((4, 4))
            for bit, (ci, cj) in enumerate(corners):
                vals[ci, cj] = inside if code >> bit & 1 else outside
            yield code, DistanceField(np.zeros(2), 0.25, vals.astype(dtype))


class TestCaseTable:
    """The case-table extract returns exactly what the per-case loop returned."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_corner_patterns(self, dtype):
        for code, field in corner_pattern_fields(dtype):
            new, ref = LevelSetExtractor(field), LoopExtractor(field)
            for e in (0.5, 0.0, 0.75, 0.99):
                assert_same_level_set(new.extract(e), ref.extract(e))
                assert new.measure(e) == ref.measure(e)
            segs = new.extract(0.5).cell_ij
            at_cell = int(np.count_nonzero((segs[:, 0] == 1) & (segs[:, 1] == 1)))
            assert at_cell == len(levelsets._CASES[code])
            if dtype is np.float32:
                # fmin <= eps < fmax is "case code not 0 or 15" for float32 fields
                i, j = new._band(new._nudge(0.5))
                c = new._corners(i * (field.extents[1] - 1) + j) <= new._nudge(0.5)
                assert c.any(axis=0).all() and not c.all(axis=0).any()

    def test_saddles_emit_both_slots_in_table_order(self):
        # a checkerboard: every inner dual cell is a saddle (case 5 or 10)
        vals = np.ones((8, 8), np.float32)
        vals[1:-1, 1:-1] = (np.indices((6, 6)).sum(axis=0) % 2).astype(np.float32)
        field = DistanceField(np.zeros(2), 1.0, vals)
        ls = LevelSetExtractor(field).extract(0.5)
        assert_same_level_set(ls, LoopExtractor(field).extract(0.5))
        codes = np.packbits(
            LevelSetExtractor(field)._corners(ls.cell_ij[:, 0] * 7 + ls.cell_ij[:, 1]) <= 0.5,
            axis=0, bitorder="little")[0]
        assert np.all(np.diff(codes.astype(int)) >= 0)
        assert {5, 10} <= set(codes.tolist())

    @settings(max_examples=150, deadline=None)
    @given(field=fields(), data=st.data())
    def test_random_fields_bitwise(self, field, data):
        new, ref = LevelSetExtractor(field), LoopExtractor(field)
        vals = np.unique(field.values)
        eps_list = [float(vals[0]) - 1.0, float(vals[-1]), 0.5 * float(vals[0] + vals[-1])]
        eps_list += [float(v) for v in data.draw(st.lists(st.sampled_from(list(vals)), max_size=4))]
        for e in eps_list:
            ls_new, ls_ref = outcome(new.extract, e), outcome(ref.extract, e)
            if isinstance(ls_ref, tuple):
                assert ls_new == ls_ref
                continue
            assert_same_level_set(ls_new, ls_ref)
            assert outcome(new.measure, e) == outcome(ref.measure, e)

    def test_preset_fields_bitwise(self, coarse_bundle):
        b = coarse_bundle
        field = b.field_small
        new, ref = LevelSetExtractor(field), LoopExtractor(field)
        mask = b.O.embed_into(field.origin, field.extents)
        for e in b.grid_curv.eps:
            e = float(e)
            ls = new.extract(e)
            assert_same_level_set(ls, ref.extract(e))
            assert new.measure_masks(ls, [None, mask]) == [ref.measure(e), ref.measure(e, mask)]
