import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fractal_tiling_lab as ftl
from fractal_tiling_lab import pipeline, presets, tiling
from fractal_tiling_lab.errors import ConfigError, FtlError, ResolutionError
from fractal_tiling_lab.grids import (
    ConvexPolygon,
    IntervalUnion,
    distance_transform,
    grid_from_bbox,
    inner_parallel_volume,
    inradius,
    rasterize,
)
from fractal_tiling_lab.presets import (
    SQ3,
    cantor_ifs,
    carpet_ifs,
    gasket_ifs,
    koch_hull,
    koch_ifs,
    unit_square,
)
from fractal_tiling_lab.tiling import (
    attractor_raster,
    build_tiling,
    central_open_set,
    relative_inradius,
)


def cantor_distance(x):
    """Exact distance to the middle-thirds Cantor set via ternary digits."""
    out = np.empty_like(np.asarray(x, dtype=float))
    for i, v in enumerate(np.atleast_1d(x)):
        if v <= 0:
            out[i] = -v
            continue
        if v >= 1:
            out[i] = v - 1
            continue
        lo, hi = 0.0, 1.0
        d = 0.0
        for _ in range(60):
            third = (hi - lo) / 3
            if v <= lo + third:
                hi = lo + third
            elif v >= hi - third:
                lo = hi - third
            else:
                d = min(v - (lo + third), (hi - third) - v)
                break
        out[i] = d
    return out


class TestBuildTiling:
    def test_cantor_generator(self):
        delta = 2.0**-12
        td = build_tiling(cantor_ifs(), IntervalUnion(((0.0, 1.0),)), delta)
        xs = td.G.centers(0)[td.G.occupancy]
        assert xs.min() > 1 / 3 - 2 * delta and xs.max() < 2 / 3 + 2 * delta
        assert td.g == pytest.approx(1 / 6, abs=2 * delta)

    def test_carpet_generator_is_middle_square(self):
        delta = 2.0**-9
        td = build_tiling(carpet_ifs(), unit_square(), delta)
        ii, jj = np.nonzero(td.G.occupancy)
        xs = td.G.origin[0] + (ii + 0.5) * delta
        ys = td.G.origin[1] + (jj + 0.5) * delta
        assert xs.min() > 1 / 3 - 2 * delta and xs.max() < 2 / 3 + 2 * delta
        assert ys.min() > 1 / 3 - 2 * delta and ys.max() < 2 / 3 + 2 * delta
        assert td.g == pytest.approx(1 / 6, abs=2 * delta * math.sqrt(2))

    @pytest.mark.parametrize("preset", ["cantor", "cantor_pair", "carpet", "koch", "gasket"])
    def test_g_is_the_inradius_of_G_inner(self, preset):
        # G's one inner field, on G cropped to its cells plus 4: its maximum is
        # the inradius of G cropped by 1 and of G on O's grid, to the bit
        b = pipeline.SceneBundle(replace(presets.get_preset(preset).scene, delta=2.0**-8))
        td = b.tiling
        assert td.G_inner.extents == td.G.cropped(4).extents
        assert td.g == float(td.G_inner.values.max()) == inradius(td.G.cropped(1)) == inradius(td.G)

    def test_koch_generator_is_equilateral_middle_triangle(self):
        delta = 2.0**-10
        td = build_tiling(koch_ifs(), koch_hull(), delta)
        # area of the equilateral side-1/3 triangle, allowing the one-cell
        # closure bias along its perimeter
        area = td.G.area()
        assert area == pytest.approx(SQ3 / 36, abs=3 * delta * 1.0)
        ii, jj = np.nonzero(td.G.occupancy)
        ys = td.G.origin[1] + (jj + 0.5) * delta
        assert ys.max() == pytest.approx(SQ3 / 6, abs=6 * delta)

    def test_gamma_identity(self):
        # lambda(Gamma) = (1 - sum r_i^d) * lambda(O)
        for ifs, region, delta, scale in (
            (cantor_ifs(), IntervalUnion(((0.0, 1.0),)), 2.0**-12, 1.0),
            (carpet_ifs(), unit_square(), 2.0**-9, 1.0),
            (koch_ifs(), koch_hull(), 2.0**-10, SQ3 / 12),
        ):
            td = build_tiling(ifs, region, delta)
            d = ifs.ambient_dim
            expected = (1 - float(np.sum(ifs.ratios**d))) * td.O.area()
            tol = 3 * delta * (td.Gamma.boundary_cells().sum() * delta ** (d - 1) + 1)
            assert abs(td.Gamma.area() - expected) <= tol

    def test_tiles_union_in_O_and_disjoint_from_residual(self):
        td = build_tiling(carpet_ifs(), unit_square(), 2.0**-9)
        assert not (td.tile_union.occupancy & td.residual.occupancy).any()
        assert (td.tile_union.occupancy | td.residual.occupancy).sum() == td.O.count()

    def test_G_inside_Gamma_inside_O(self):
        td = build_tiling(carpet_ifs(), unit_square(), 2.0**-9)
        assert not (td.G.occupancy & ~td.Gamma.occupancy).any()
        assert not (td.Gamma.occupancy & ~td.O.occupancy).any()

    def test_residual_cells_hug_the_attractor(self):
        # every O-cell outside the resolved tiles sits inside a sub-cell
        # cylinder, hence within a few cells of the attractor
        delta = 2.0**-9
        td = build_tiling(carpet_ifs(), unit_square(), delta)
        F = attractor_raster(carpet_ifs(), ([0.0, 0.0], [1.0, 1.0]), delta)
        field = distance_transform(F)
        ii, jj = np.nonzero(td.residual.occupancy)
        pts = np.column_stack([
            td.residual.origin[0] + (ii + 0.5) * delta,
            td.residual.origin[1] + (jj + 0.5) * delta,
        ])
        dmax = float(field.sample_at(pts).max())
        assert dmax <= 8 * delta

    def test_manifest_roundtrip(self):
        import json

        td = build_tiling(cantor_ifs(), IntervalUnion(((0.0, 1.0),)), 2.0**-12)
        doc = json.loads(json.dumps(td.manifest()))
        assert doc["g"] == pytest.approx(1 / 6, abs=2 * td.delta)
        assert doc["lambda_G"] == pytest.approx(1 / 3, abs=0.01)
        assert doc["words"][0]["word"] == "<empty>"
        assert all(0 < w["ratio"] <= 1 for w in doc["words"])

    def test_full_dimensional_rejected(self):
        ifs = ftl.IFS(
            (
                ftl.Similarity(0.5, np.eye(1), np.array([0.0])),
                ftl.Similarity(0.5, np.eye(1), np.array([0.5])),
            ),
            1,
        )
        with pytest.raises(FtlError):
            build_tiling(ifs, IntervalUnion(((0.0, 1.0),)), 2.0**-10)

    @pytest.mark.parametrize("r, why", [
        (0.5, "the attractor is full-dimensional (sum r_i^d = 1)"),
        (0.6, "the maps overlap, so the open set condition fails (sum r_i^d = 1.2)"),
    ])
    def test_empty_generator_reports_the_sum(self, r, why):
        ifs = ftl.IFS(
            (
                ftl.Similarity(r, np.eye(1), np.array([0.0])),
                ftl.Similarity(r, np.eye(1), np.array([1.0 - r])),
            ),
            1,
        )
        with pytest.raises(ConfigError, match=f"^empty generator: {re.escape(why)}, no tiling exists$"):
            build_tiling(ifs, IntervalUnion(((0.0, 1.0),)), 2.0**-10)

    def test_images_covering_o_at_this_resolution(self):
        # sum r_i = 0.9, but the gap (0.45, 0.55) holds no cell centre at 1/8
        ifs = ftl.IFS(
            (
                ftl.Similarity(0.45, np.eye(1), np.array([0.0])),
                ftl.Similarity(0.45, np.eye(1), np.array([0.55])),
            ),
            1,
        )
        why = "the images S_i(O) cover O at this resolution (sum r_i^d = 0.9)"
        with pytest.raises(ResolutionError, match=f"^empty generator: {re.escape(why)}, no tiling exists$"):
            build_tiling(ifs, IntervalUnion(((0.0, 1.0),)), 2.0**-3)
        assert build_tiling(ifs, IntervalUnion(((0.0, 1.0),)), 2.0**-6).G.count() > 0

    def test_tile_scaling_identity(self):
        # V(S_i T, eps) = r^d V(T, eps/r) checked on the generator square
        delta = 2.0**-11
        sq = ConvexPolygon(np.array([[1 / 3, 1 / 3], [2 / 3, 1 / 3], [2 / 3, 2 / 3], [1 / 3, 2 / 3]]))
        small = ConvexPolygon(np.array([[1 / 9, 1 / 9], [2 / 9, 1 / 9], [2 / 9, 2 / 9], [1 / 9, 2 / 9]]))
        G = rasterize(sq, ([0.3, 0.3], [0.7, 0.7]), delta)
        SG = rasterize(small, ([0.1, 0.1], [0.25, 0.25]), delta)
        for eps in (0.01, 0.02, 0.04):
            lhs = inner_parallel_volume(SG, eps)
            rhs = (1 / 9) * inner_parallel_volume(G, 3 * eps)
            assert lhs == pytest.approx(rhs, abs=6 * delta * (4 / 9))


class TestAttractorRaster:
    def test_cantor_misses_middle(self):
        delta = 2.0**-12
        F = attractor_raster(cantor_ifs(), ([0.0], [1.0]), delta)
        idx = F.indices_of(np.array([0.5]))[0, 0]
        assert not F.occupancy[idx]
        assert F.occupancy[F.indices_of(np.array([0.0 + delta / 2]))[0, 0]]

    def test_cantor_hausdorff_against_digit_oracle(self, rng):
        delta = 2.0**-12
        F = attractor_raster(cantor_ifs(), ([0.0], [1.0]), delta)
        field = distance_transform(F)
        x = rng.random(400)
        exact = cantor_distance(x)
        approx = field.sample_at(x.reshape(-1, 1))
        assert np.max(np.abs(approx - exact)) <= 2.5 * delta

    def test_carpet_box_count_rate(self):
        # lambda(F_delta raster) ~ delta^(2-D)
        D = math.log(8) / math.log(3)
        areas = {}
        for delta in (2.0**-8, 2.0**-9):
            F = attractor_raster(carpet_ifs(), ([0.0, 0.0], [1.0, 1.0]), delta)
            areas[delta] = F.area()
        rate = math.log(areas[2.0**-8] / areas[2.0**-9]) / math.log(2.0)
        assert rate == pytest.approx(2 - D, abs=0.08)

    def test_non_containing_bbox_rejected(self):
        with pytest.raises(ResolutionError):
            attractor_raster(cantor_ifs(), ([0.0], [0.5]), 2.0**-10)

    def test_reflected_maps_with_tight_bbox(self):
        F = attractor_raster(koch_ifs(), ([0.0, 0.0], [1.0, SQ3 / 6]), 2.0**-9)
        assert F.count() > 0
        ii, jj = np.nonzero(F.occupancy)
        ys = F.origin[1] + (jj + 0.5) * F.spacing
        assert ys.max() <= SQ3 / 6 + F.spacing


class TestRelativeInradius:
    def test_cantor_deepest_point(self):
        delta = 2.0**-14
        F = attractor_raster(cantor_ifs(), ([0.0], [1.0]), delta)
        field = distance_transform(F)
        O = rasterize(IntervalUnion(((0.0, 1.0),)), ([-0.01], [1.01]), delta)
        assert relative_inradius(field, O) == pytest.approx(1 / 6, abs=3 * delta)

    def test_carpet_center_distance_brute_force(self):
        delta = 2.0**-8
        F = attractor_raster(carpet_ifs(), ([0.0, 0.0], [1.0, 1.0]), delta)
        field = distance_transform(F)
        O = rasterize(unit_square(), ([-0.01, -0.01], [1.01, 1.01]), delta)
        gt = relative_inradius(field, O)
        # brute-force oracle: max over O cells of min distance to F cells
        ii, jj = np.nonzero(F.occupancy)
        fpts = np.column_stack([F.origin[0] + (ii + 0.5) * delta, F.origin[1] + (jj + 0.5) * delta])
        oi, oj = np.nonzero(O.occupancy)
        opts = np.column_stack([O.origin[0] + (oi + 0.5) * delta, O.origin[1] + (oj + 0.5) * delta])
        sub = opts[:: max(1, len(opts) // 4000)]
        dmin = np.sqrt(((sub[:, None, :] - fpts[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert gt >= dmin.max() - 1e-12
        assert gt == pytest.approx(1 / 6, abs=3 * delta)

    def test_dense_attractor_gives_vanishing_depth(self):
        # interval attractor: F = [0,1], every point of O is on F
        ifs = ftl.IFS(
            (
                ftl.Similarity(0.5, np.eye(1), np.array([0.0])),
                ftl.Similarity(0.5, np.eye(1), np.array([0.5])),
            ),
            1,
        )
        delta = 2.0**-12
        F = attractor_raster(ifs, ([0.0], [1.0]), delta)
        field = distance_transform(F)
        O = rasterize(IntervalUnion(((0.0, 1.0),)), ([-0.01], [1.01]), delta)
        assert relative_inradius(field, O) <= 2 * delta

    def test_bundle_keeps_only_the_field_of_the_chosen_pad(self):
        # g~ = 0.3 is too deep for the first pad, 0.25, so the search builds a second field
        ifs = ftl.IFS(
            (
                ftl.Similarity(0.2, np.eye(1), np.array([0.0])),
                ftl.Similarity(0.2, np.eye(1), np.array([0.8])),
            ),
            1,
        )
        b = ftl.SceneBundle(ftl.Scene(ifs, IntervalUnion(((0.0, 1.0),)), 2.0**-12, ([0.0], [1.0])))
        field = b.field_small
        fields = [v for v in b._cache.values() if isinstance(v, ftl.DistanceField)]
        fields += [x for v in b._cache.values() if isinstance(v, tuple) for x in v
                   if isinstance(x, ftl.DistanceField)]
        assert len(fields) == 1 and fields[0] is field
        assert b.g_tilde == relative_inradius(field, b.O)
        assert 1.3 * b.g_tilde + 8 * b.delta > 0.25  # the first pad was rejected


def reference_central_open_set(ifs, bbox, delta, word_len):
    """central_open_set as a loop over Similarity pairs: each pair of one
    length is extended letter by letter with Similarity.compose, pruned and
    keyed one at a time, and the neighbors are sampled one at a time."""
    F = attractor_raster(ifs, bbox, delta)
    F_field = distance_transform(F)
    g = grid_from_bbox(bbox, delta)
    lo, hi = g.origin, g.origin + np.array(g.extents) * g.spacing
    idx = np.argwhere(F.occupancy)
    f_lo, f_hi = F.origin + idx.min(axis=0) * F.spacing, F.origin + (idx.max(axis=0) + 1) * F.spacing
    corners = tiling._box_corners(f_lo, f_hi)
    pad = 0.5 * float(np.linalg.norm(f_hi - f_lo))
    neighbors, seen = [], set()
    level = [(ifs.maps[i], ifs.maps[j]) for i in range(ifs.n) for j in range(ifs.n) if i != j]
    for length in range(1, word_len + 1):
        keep = []
        for s_sig, s_om in level:
            inv = s_sig.inverse()
            img = inv(s_om(corners))
            if (img.max(axis=0) < lo - pad).any() or (img.min(axis=0) > hi + pad).any():
                continue
            key = (tuple(np.round(inv.matrix @ (s_om.ratio * s_om.orthogonal_part), 9).ravel()),
                   tuple(np.atleast_1d(np.round(inv(s_om.translation), 9))))
            if key not in seen:
                seen.add(key)
                neighbors.append((s_sig, s_om))
            keep.append((s_sig, s_om))
        if length < word_len:
            level = [(s.compose(a), w.compose(b)) for s, w in keep for a in ifs.maps for b in ifs.maps]
    centers = g.cell_points()
    d_h = np.full(centers.shape[0], np.inf)
    for s_sig, s_om in neighbors:
        pre = s_om.inverse()(s_sig(centers))
        val = F_field.sample_at(pre, outside=np.nan)
        nan = np.isnan(val)
        box = np.zeros(int(nan.sum()))
        for a in range(g.dim):
            box += np.maximum(np.maximum(f_lo[a] - pre[nan, a], pre[nan, a] - f_hi[a]), 0.0) ** 2
        val[nan] = np.sqrt(box)
        d_h = np.minimum(d_h, s_om.ratio / s_sig.ratio * val)
    occ = (F_field.sample_cells(g) < d_h - delta).reshape(g.extents)
    return occ, len(neighbors)


class TestCentralOpenSet:
    @pytest.mark.parametrize("name, bbox, delta", [
        ("cantor", ([-0.7], [1.7]), 2.0**-10),
        ("cantor_pair", ([-0.5], [1.5]), 2.0**-10),
        ("koch", ([-0.32, -0.32], [1.32, 0.62]), 2.0**-7),
        ("gasket", ([-0.3, -0.3], [1.3, SQ3 / 2 + 0.3]), 2.0**-7),
    ])
    def test_stacked_maps_equal_the_pair_loop(self, name, bbox, delta):
        ifs = presets.get_preset(name).scene.ifs
        vc = central_open_set(ifs, bbox, delta)
        occ, count = reference_central_open_set(ifs, bbox, delta, tiling.NEIGHBOR_WORD_LEN)
        assert vc.neighbor_count == count > 0
        assert np.array_equal(vc.grid.occupancy, occ)

    def test_cantor_vc_extent_and_strongness(self):
        delta = 2.0**-12
        vc = central_open_set(cantor_ifs(), ([-0.7], [1.7]), delta)
        assert vc.neighbor_count >= 2
        xs = vc.grid.centers(0)[vc.grid.occupancy]
        # brute-force oracle: V_c = (-1/2, 3/2) for the middle-thirds system
        assert xs.min() == pytest.approx(-0.5, abs=4 * delta)
        assert xs.max() == pytest.approx(1.5, abs=4 * delta)
        m = 2 * delta
        centers = vc.grid.centers(0)
        middle = (centers > 1 / 3 + m) & (centers < 2 / 3 - m)
        assert vc.grid.occupancy[middle].all()
        F = attractor_raster(cantor_ifs(), ([-0.01], [1.01]), delta)
        field = distance_transform(F)
        assert (field.sample_at(xs.reshape(-1, 1)) <= delta).any()

    def test_cantor_vc_matches_distance_comparison_oracle(self):
        delta = 2.0**-10
        vc = central_open_set(cantor_ifs(), ([-0.7], [1.7]), delta)
        xs = vc.grid.centers(0)
        d_f = cantor_distance(xs)
        d_h = np.minimum(cantor_distance(xs - 2), cantor_distance(xs + 2))
        expected = d_f < d_h - delta
        # agree away from the watershed by more than a couple of cells
        fuzzy = np.abs(d_f - d_h) <= 3 * delta
        assert np.array_equal(vc.grid.occupancy[~fuzzy], expected[~fuzzy])

    def test_carpet_vc_passes_projection(self):
        from fractal_tiling_lab.conditions import check_projection
        from fractal_tiling_lab.tiling import map_images

        delta = 2.0**-9
        ifs = carpet_ifs()
        vc = central_open_set(ifs, ([-0.4, -0.4], [1.4, 1.4]), delta)
        assert vc.neighbor_count > 0
        F = attractor_raster(ifs, ([-0.4, -0.4], [1.4, 1.4]), delta)
        field = distance_transform(F)
        gt = relative_inradius(field, vc.grid)
        images = map_images(ifs, vc.grid)
        assert check_projection(ifs, vc.grid, images, field, gt).verdict == "pass"

    def test_vc_meets_F_for_gasket(self):
        delta = 2.0**-9
        ifs = gasket_ifs()
        vc = central_open_set(ifs, ([-0.3, -0.3], [1.3, SQ3 / 2 + 0.3]), delta)
        F = attractor_raster(ifs, ([0.0, 0.0], [1.0, SQ3 / 2]), delta)
        field = distance_transform(F)
        ii, jj = np.nonzero(vc.grid.occupancy)
        pts = np.column_stack([
            vc.grid.origin[0] + (ii + 0.5) * delta,
            vc.grid.origin[1] + (jj + 0.5) * delta,
        ])
        assert (field.sample_at(pts) <= delta).any()

    def test_no_neighbor_leaves_the_whole_box(self):
        # S_1^{-1} S_2 = x + 99 sends F's box far outside the working box
        ifs = ftl.IFS((ftl.Similarity(0.01, np.eye(1), np.array([0.0])),
                       ftl.Similarity(0.01, np.eye(1), np.array([0.99]))), 1)
        vc = central_open_set(ifs, ([-0.2], [1.2]), 2.0**-8)
        assert vc.neighbor_count == 0 and vc.grid.occupancy.all()
