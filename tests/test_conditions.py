import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fractal_tiling_lab as ftl
from fractal_tiling_lab import conditions, pipeline, presets, tiling
from fractal_tiling_lab.conditions import (
    check_boundary_null,
    check_compatibility,
    check_osc,
    check_projection,
    check_strong,
)
from fractal_tiling_lab.grids import (
    ConvexPolygon,
    IntervalUnion,
    distance_transform,
    grid_from_bbox,
    rasterize,
)
from fractal_tiling_lab.ifs import words_up_to_ratio
from fractal_tiling_lab.levelsets import LevelSetExtractor
from fractal_tiling_lab.presets import cantor_ifs, carpet_ifs, unit_square
from fractal_tiling_lab.tiling import attractor_raster, rasterize_tiles, relative_inradius


def axis_square(lo, hi):
    return ConvexPolygon(np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]], float))


@pytest.fixture(scope="module")
def carpet_field():
    delta = 2.0**-9
    F = attractor_raster(carpet_ifs(), ([0.0, 0.0], [1.0, 1.0]), delta)
    return delta, distance_transform(F)


@pytest.fixture(scope="module")
def cantor_field():
    delta = 2.0**-14
    F = attractor_raster(cantor_ifs(), ([-0.8], [1.2]), delta)
    return delta, distance_transform(F)


class TestOsc:
    def test_cantor_unit_interval(self, cantor_field):
        delta, field = cantor_field
        O = rasterize(IntervalUnion(((0.0, 1.0),)), ([-2 * delta], [1 + 2 * delta]), delta)
        assert check_osc(cantor_ifs(), O, conditions.map_images(cantor_ifs(), O)).verdict == "pass"

    def test_carpet_unit_square(self, carpet_field):
        delta, _ = carpet_field
        O = rasterize(unit_square(), ([-2 * delta, -2 * delta], [1 + 2 * delta, 1 + 2 * delta]), delta)
        assert check_osc(carpet_ifs(), O, conditions.map_images(carpet_ifs(), O)).verdict == "pass"

    def test_small_square_fails_with_witness(self, carpet_field):
        delta, _ = carpet_field
        O = rasterize(axis_square(0.0, 0.9), ([-0.01, -0.01], [0.95, 0.95]), delta)
        rep = check_osc(carpet_ifs(), O, conditions.map_images(carpet_ifs(), O))
        assert rep.verdict == "fail"
        assert rep.witness is not None and "cell" in rep.witness

    def test_gasket_seam_leakage_is_not_a_fail(self):
        # the gasket's images leave O only within one cell of it (8-neighbourhood)
        b = pipeline.SceneBundle(replace(presets.get_preset("gasket").scene, delta=2.0**-8))
        O, images = b.tiling.O, b.tiling.map_images
        assert any((img & ~O.occupancy).any() for img in images)
        rep = check_osc(b.ifs, O, images)
        assert rep.verdict == "inconclusive"
        assert rep.details["note"] == "S_i O leaves O in the seam layer only"

    def test_overlapping_maps_fail(self, cantor_field):
        delta, _ = cantor_field
        ifs = ftl.IFS(
            (
                ftl.Similarity(0.6, np.eye(1), np.array([0.0])),
                ftl.Similarity(0.6, np.eye(1), np.array([0.4])),
            ),
            1,
        )
        O = rasterize(IntervalUnion(((0.0, 1.0),)), ([-2 * delta], [1 + 2 * delta]), delta)
        rep = check_osc(ifs, O, conditions.map_images(ifs, O))
        assert rep.verdict == "fail"


class TestStrong:
    def test_carpet_unit_square(self, carpet_field):
        delta, field = carpet_field
        O = rasterize(unit_square(), ([-2 * delta, -2 * delta], [1 + 2 * delta, 1 + 2 * delta]), delta)
        assert check_strong(O, field).verdict == "pass"

    def test_cantor_interval(self, cantor_field):
        delta, field = cantor_field
        O = rasterize(IntervalUnion(((0.0, 1.0),)), ([-2 * delta], [1 + 2 * delta]), delta)
        assert check_strong(O, field).verdict == "pass"

    def test_example_tile_union_fails(self, carpet_field):
        # O' built from the shifted generator G' = S_1(G) misses the carpet
        delta, field = carpet_field
        ifs = carpet_ifs()
        Gp = rasterize(axis_square(1 / 9, 2 / 9), ([0.0, 0.0], [1.0, 1.0]), delta)
        occ = rasterize_tiles(ifs, words_up_to_ratio(ifs, 4 * delta / math.sqrt(2)), Gp, Gp)
        Oprime = Gp.with_occupancy(occ)
        rep = check_strong(Oprime, field)
        assert rep.verdict == "fail"
        assert rep.witness is not None


class TestCompatibility:
    def test_carpet_middle_square(self, carpet_field, carpet_bundle):
        delta, field = carpet_field
        G = rasterize(axis_square(1 / 3, 2 / 3), ([0.30, 0.30], [0.70, 0.70]), delta)
        assert check_compatibility(G, field).verdict == "pass"

    def test_cantor_generator(self, cantor_field):
        delta, field = cantor_field
        G = rasterize(IntervalUnion(((1 / 3, 2 / 3),)), ([0.30], [0.70]), delta)
        assert check_compatibility(G, field).verdict == "pass"

    def test_koch_hull_generator_fails(self, koch_bundle):
        rep = koch_bundle.checks()["compatible"]
        assert rep.verdict == "fail"
        assert rep.witness["max_boundary_distance"] > 10 * koch_bundle.delta


class TestProjection:
    def test_carpet_unit_square(self, carpet_bundle):
        assert carpet_bundle.checks()["projection"].verdict == "pass"

    def test_koch_hull(self, koch_bundle):
        assert koch_bundle.checks()["projection"].verdict == "pass"

    def test_skewed_interval_passes(self, cantor_field):
        # the skewed interval (0.1, 1.0): every S_i O lies in its own piece's
        # nearest-point basin, so the defect vanishes; brute-force oracle in
        # test_no_defect_oracle below confirms
        delta, field = cantor_field
        O = rasterize(IntervalUnion(((0.1, 1.0),)), ([0.1 - 2 * delta], [1 + 2 * delta]), delta)
        gt = relative_inradius(field, O)
        images = conditions.map_images(cantor_ifs(), O)
        assert check_projection(cantor_ifs(), O, images, field, gt).verdict == "pass"

    def test_no_defect_oracle_for_skewed_interval(self):
        # analytic check: for x in S_1(0.1,1) = (1/30,1/3) the distance to
        # F - S_1 F = F ^ [2/3,1] exceeds the distance to S_1 F everywhere,
        # and symmetrically for S_2; so lambda(F_eps \ (S_i F)_eps ^ S_i O) = 0
        xs = np.linspace(1 / 30 + 1e-6, 1 / 3 - 1e-6, 2001)
        d_other = 2 / 3 - xs  # distance to the nearest point of the right piece
        # inside [0,1/3] the distance to S_1 F is at most the largest half-gap 1/18
        assert np.all(d_other > 1 / 18)

    def test_overhanging_interval_fails_with_witness(self, cantor_field):
        delta, field = cantor_field
        O = rasterize(IntervalUnion(((-0.6, 1.0),)), ([-0.6 - 2 * delta], [1 + 2 * delta]), delta)
        gt = relative_inradius(field, O)
        rep = check_projection(cantor_ifs(), O, conditions.map_images(cantor_ifs(), O), field, gt)
        assert rep.verdict == "fail"
        lo, hi = rep.witness["eps_interval"]
        # the analytic defect interval is [~0.1467, ~0.1867)
        assert 0.12 <= lo <= 0.20 and rep.witness["max_defect"] > 0

    def test_defect_shrinks_with_resolution(self):
        # for a passing configuration the measured defects decrease ~linearly
        ifs = cantor_ifs()
        defects = {}
        for delta in (2.0**-12, 2.0**-13):
            F = attractor_raster(ifs, ([-0.1], [1.1]), delta)
            field = distance_transform(F)
            O = rasterize(IntervalUnion(((0.0, 1.0),)), ([-2 * delta], [1 + 2 * delta]), delta)
            pts = O.centers(0)[O.occupancy].reshape(-1, 1)
            m = ifs.maps[0]
            img = O.lookup(m.inverse()(pts.ravel()).reshape(-1, 1))
            sel = pts[O.lookup(pts)]  # all O points; restrict to S_1 O via map
            x = pts.ravel()
            in_s1 = (x > 0) & (x < 1 / 3)
            d_F = field.sample_at(pts[in_s1])
            d_SF = m.ratio * field.sample_at(m.inverse()(pts[in_s1].ravel()).reshape(-1, 1))
            eps = 0.05
            defects[delta] = float(np.count_nonzero((d_F <= eps) & (d_SF > eps))) * delta
        assert defects[2.0**-13] <= defects[2.0**-12] * 0.75 + 4 * 2.0**-13


def check_projection_loop(ifs, O, F_field, g_tilde, seam_factor=4.0, images=None):
    """Reference: check_projection with one full pass over the cells per eps."""
    delta, d = O.spacing, O.dim
    images = conditions.map_images(ifs, O) if images is None else images
    worst = None
    for i, (m, img) in enumerate(zip(ifs.maps, images)):
        if not img.any():
            continue
        pts = O.cell_points(img)
        d_F = F_field.sample_at(pts)
        d_SiF = m.ratio * F_field.sample_at(m.inverse()(pts))
        top = m.ratio * g_tilde
        if top <= 4 * delta * 1.05:
            continue
        eps_i = np.geomspace(4 * delta, top, 24)
        fail_eps = []
        for e in eps_i:
            defect = float(np.count_nonzero((d_F <= e) & (d_SiF > e))) * delta**d
            interface = int(np.count_nonzero(np.abs(d_F - e) <= delta * math.sqrt(d)))
            tol = seam_factor * delta * max(interface, 4) * delta ** (d - 1)
            if defect > tol:
                fail_eps.append((float(e), defect, tol))
        if fail_eps:
            peak = max(f[1] for f in fail_eps)
            cand = {"map": i, "eps_interval": [fail_eps[0][0], fail_eps[-1][0]],
                    "max_defect": peak, "tolerance": max(f[2] for f in fail_eps)}
            if worst is None or peak > worst["max_defect"]:
                worst = cand
    if worst is not None:
        return conditions.CheckReport("projection", "fail", delta, worst)
    return conditions.CheckReport("projection", "pass", delta)


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPreimageReads:
    """check_projection's d(S_i^{-1} x, F) reads equal sample_at at the mapped centers."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_match_point_lookup_inside_and_outside_the_field(self, dim):
        from fractal_tiling_lab.grids import DistanceField
        from fractal_tiling_lab.ifs import Similarity
        from fractal_tiling_lab.presets import koch_ifs

        delta = 2.0**-7
        rng = np.random.default_rng(11)
        pad = [-2 * delta] * dim, [1 + 2 * delta] * dim
        if dim == 1:
            O = rasterize(IntervalUnion(((0.0, 1.0),)), pad, delta)
            maps = [*cantor_ifs().maps, Similarity(0.4, -np.eye(1), np.array([0.7]))]
        else:
            O = rasterize(unit_square(), pad, delta)
            maps = [*carpet_ifs().maps, *koch_ifs().maps,
                    Similarity(0.5, np.diag([-1.0, 1.0]), np.array([0.6, 0.2]))]
        # a field off O's lattice that holds only part of the preimages
        shape = (70,) * dim
        field = DistanceField(np.full(dim, 0.13), delta, rng.random(shape).astype(np.float32))
        outside = 0
        for m in maps:
            img = tiling._map_cells(m, O, O)
            ref = field.sample_at(m.inverse()(O.cell_points(img)))
            got = conditions._sample_preimages(m, O, img, field)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            outside += int(np.isinf(ref).sum())
        assert outside > 0


class TestProjectionBySorting:
    """Sorted counts give the reports of the per-eps passes, to the bit."""

    @staticmethod
    def assert_same_reports(b):
        images = b.tiling.map_images
        new = check_projection(b.ifs, b.tiling.O, images, b.field_small, b.g_tilde)
        ref = check_projection_loop(b.ifs, b.tiling.O, b.field_small, b.g_tilde, images=images)
        assert new.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("preset,delta", [
        ("cantor", 2.0**-12), ("cantor_pair", 2.0**-12), ("carpet", 2.0**-7),
        ("koch", 2.0**-7), ("gasket", 2.0**-7)])
    def test_presets(self, preset, delta):
        b = pipeline.SceneBundle(replace(presets.get_preset(preset).scene, delta=delta))
        self.assert_same_reports(b)

    def test_rand1d_draws(self):
        wl = load_bench_workloads()
        for slot in range(0, 100, 9):
            scene = wl.rand1d_scene(wl.rand1d_draw(slot, slot % 3))
            self.assert_same_reports(pipeline.SceneBundle(replace(scene, delta=2.0**-11)))

    def test_failing_report(self, cantor_field):
        delta, field = cantor_field
        O = rasterize(IntervalUnion(((-0.6, 1.0),)), ([-0.6 - 2 * delta], [1 + 2 * delta]), delta)
        gt = relative_inradius(field, O)
        images = conditions.map_images(cantor_ifs(), O)
        rep = check_projection(cantor_ifs(), O, images, field, gt)
        assert rep.verdict == "fail"
        assert rep.to_dict() == check_projection_loop(cantor_ifs(), O, field, gt).to_dict()

    def test_run_ends_walk_over_ties(self, rng):
        s = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, np.inf])
        eps = np.array([-1.0, 0.5, 1.0, 1.5, 2.0, 2.9999999999999996, 3.0, 10.0])
        for near in (0.0, 0.5, 1.0, 1.0000000000000002):
            assert conditions._count_near(s, eps, near) == [
                int(np.count_nonzero(np.abs(s - e) <= near)) for e in eps]
        # values within a few ulps of e -/+ near, where the rounded e + near
        # and the rounded s - e disagree, in runs of ties
        for e, near in zip(rng.random(300), rng.random(300)):
            ends = np.array([e - near, e + near])
            s = np.sort(np.repeat(np.concatenate(
                [np.nextafter(ends, ends + k) if k else ends for k in (-2, -1, 0, 1, 2)]), 2))
            count = int(np.count_nonzero(np.abs(s - e) <= near))
            assert conditions._count_near(s, np.array([e]), near) == [count]


class TestBoundaryNull:
    def test_carpet_k1_passes(self, carpet_bundle):
        assert carpet_bundle.checks()["boundary_null"].verdict == "pass"

    def test_d1_trivial_pass(self, cantor_bundle):
        assert cantor_bundle.checks()["boundary_null"].verdict == "pass"

    def test_tangent_edge_fails(self):
        # F = segment on the x-axis; O's bottom edge runs parallel at
        # distance h, so bd F_eps lies along it exactly at eps = h
        delta = 2.0**-9
        h = 24 * delta
        g = grid_from_bbox(([-0.25, -0.25], [1.25, 0.5]), delta)
        xs = g.centers(0)
        occ = np.zeros(g.extents, bool)
        j0 = g.indices_of(np.array([[0.0, 0.0]]))[0, 1]
        occ[(xs >= 0) & (xs <= 1), j0] = True
        field = distance_transform(g.with_occupancy(occ))
        O = rasterize(
            ConvexPolygon(np.array([[0.0, h], [1.0, h], [1.0, 0.25], [0.0, 0.25]])),
            ([0.0, 0.0], [1.0, 0.3125]),  # lattice-aligned with the field
            delta,
        )
        rep = check_boundary_null(O, field, 1, np.array([h / 2, h, 2 * h]), LevelSetExtractor(field))
        assert rep.verdict == "fail"
        assert rep.witness["eps"] == pytest.approx(h, abs=delta)


class TestMapImages:
    @pytest.mark.parametrize("preset, delta", [("carpet", 2.0**-7), ("cantor", 2.0**-10)])
    def test_bundle_samples_each_image_once(self, preset, delta, monkeypatch):
        # the tiling's images serve Phi(O) and both checks: one sampling per map in all
        b = pipeline.SceneBundle(replace(presets.get_preset(preset).scene, delta=delta))
        calls = []
        sample = tiling._map_cells
        for module in (tiling, conditions):
            monkeypatch.setattr(module, "_map_cells", lambda *a: calls.append(a) or sample(*a))
        reports = b.checks()
        assert len(calls) == b.ifs.n
        fresh = conditions.map_images(b.ifs, b.O)
        assert len(b.tiling.map_images) == len(fresh) == b.ifs.n
        assert all(np.array_equal(a, c) for a, c in zip(b.tiling.map_images, fresh))
        assert reports["osc"].to_dict() == check_osc(b.ifs, b.O, fresh).to_dict()
        assert reports["projection"].to_dict() == check_projection(
            b.ifs, b.O, fresh, b.field_small, b.g_tilde).to_dict()


class TestVerdictStability:
    def test_carpet_pass_verdicts_stable_under_halving(self, carpet_bundle, carpet_coarse_bundle):
        fine = {k: v.verdict for k, v in carpet_bundle.checks().items()}
        coarse = {k: v.verdict for k, v in carpet_coarse_bundle.checks().items()}
        for name, verdict in fine.items():
            if verdict == "pass":
                assert coarse[name] == "pass", f"{name} flipped under delta-halving"

    def test_fail_verdict_requires_witness(self):
        from fractal_tiling_lab.conditions import CheckReport
        from fractal_tiling_lab.errors import ConfigError

        with pytest.raises(ConfigError):
            CheckReport("osc", "fail", 0.01, None)
