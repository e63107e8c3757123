"""Bounded-memory attractor raster and EDT against the algorithms they replaced.

`attractor_raster` carries each breadth-first generation as the keys of
its active cells and keeps finished cells in a `done` raster, which they
never leave. It reads axis-aligned maps' child keys from per-axis image
tables and keeps the first candidate per cell outside `done`, with one
stable sort for a small generation and through a per-cell array of first
positions, chunk by chunk, for a large one. `distance_transform` and
`inner_distance` turn the feature transform of scipy's compiled kernel
(`_nd_image.euclidean_feature_transform`, called without the
`scipy.ndimage` package) into distances one strip of rows at a time. Both
must reproduce, bit for bit, what the whole-generation float orbit and
`scipy.ndimage.distance_transform_edt`'s whole-array EDT gave, and both
must stay below a fixed peak of traced allocations (numpy reports its
buffers to tracemalloc), as must a field read at a region's cells and the
level-set extractor's index.
"""

import functools
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from fractal_tiling_lab import grids, tiling
from fractal_tiling_lab.errors import ResolutionError
from fractal_tiling_lab.grids import DistanceField, Grid, distance_transform, grid_from_bbox, inner_distance
from fractal_tiling_lab.ifs import IFS, Similarity, rotation
from fractal_tiling_lab.levelsets import LevelSetExtractor
from fractal_tiling_lab.presets import carpet_ifs, get_preset
from fractal_tiling_lab.tiling import attractor_raster
from fractal_tiling_lab.volumes import make_eps_grid, sample_restricted_volume

COARSE_DELTA = {
    "cantor": 2.0**-12,
    "cantor_pair": 2.0**-12,
    "carpet": 2.0**-8,
    "koch": 2.0**-9,
    "gasket": 2.0**-8,
}
CHUNKS = (7, 64, 509, tiling.ATTRACTOR_CHUNK)


def reference_attractor_raster(ifs, bbox, delta, stop_cells=0.5):
    """Whole-generation version: concatenate all N children of every active
    point, then keep the first point per cell by a stable argsort of keys."""
    g = grid_from_bbox(bbox, delta)
    lo = g.origin
    hi = g.origin + np.array(g.extents) * g.spacing
    corners = tiling._box_corners(lo, hi)
    invariant = True
    for m in ifs.maps:
        img = np.atleast_2d(m(corners) if g.dim > 1 else m(corners).reshape(-1, 1))
        if (img < lo - 1e-9).any() or (img > hi + 1e-9).any():
            invariant = False
    thresh = stop_cells * delta / float(np.linalg.norm(hi - lo))
    pts = np.atleast_2d(np.asarray(ifs.maps[0].fixed_point(), dtype=float).reshape(1, -1))
    rs = np.ones(1)

    def snap_dedupe(p, r):
        if not invariant:
            if (p < lo - 0.25 * delta).any() or (p > hi + 0.25 * delta).any():
                raise ResolutionError("bbox does not contain the attractor (orbit point escaped)")
        idx = g.indices_of(p)
        for ax in range(g.dim):
            np.clip(idx[:, ax], 0, g.extents[ax] - 1, out=idx[:, ax])
        key = idx[:, 0] if g.dim == 1 else idx[:, 0] * g.extents[1] + idx[:, 1]
        order = np.argsort(key, kind="stable")
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[order][1:] != key[order][:-1]
        keep = order[first]
        return lo + (idx[keep] + 0.5) * delta, r[keep]

    while True:
        active = rs > thresh
        if not active.any():
            break
        stacks_p, stacks_r = [pts[~active]], [rs[~active]]
        for m in ifs.maps:
            img = m(pts[active]) if g.dim > 1 else m(pts[active].ravel()).reshape(-1, 1)
            stacks_p.append(np.atleast_2d(img))
            stacks_r.append(m.ratio * rs[active])
        pts, rs = snap_dedupe(np.concatenate(stacks_p, axis=0), np.concatenate(stacks_r))

    occ = np.zeros(g.extents, dtype=bool)
    occ[tuple(g.indices_of(pts).T)] = True
    return g.with_occupancy(occ)


def outcome(fn, *args):
    """The occupancy fn returns, or the message of the ResolutionError it raises."""
    try:
        return fn(*args).occupancy
    except ResolutionError as exc:
        return str(exc)


def assert_same(got, ref):
    if isinstance(ref, str):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and got.shape == ref.shape
        assert np.array_equal(got, ref)


@functools.lru_cache(maxsize=None)
def preset_reference(name):
    scene = get_preset(name).scene
    return reference_attractor_raster(scene.ifs, scene.f_bbox, COARSE_DELTA[name])


def assert_same_for_every_chunk(ifs, bbox, delta):
    """attractor_raster gives the reference's occupancy (or refusal) at every chunk size."""
    ref = outcome(reference_attractor_raster, ifs, bbox, delta)
    for chunk in CHUNKS:
        tiling.ATTRACTOR_CHUNK, saved = chunk, tiling.ATTRACTOR_CHUNK
        try:
            got = outcome(attractor_raster, ifs, bbox, delta)
        finally:
            tiling.ATTRACTOR_CHUNK = saved
        assert_same(got, ref)
    return ref


def rand1d_draws():
    """The benchmark's random 1-d catalogue (bench/workloads.py), loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "rand1d_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, [mod.rand1d_draw(slot, slot % mod.RAND1D_VARIANTS) for slot in range(0, 100, 9)]


def orbit_tables(ifs, g):
    hi = g.origin + np.array(g.extents) * g.spacing
    return tiling._orbit_tables(ifs, g, g.origin - 0.25 * g.spacing, hi + 0.25 * g.spacing)


def aligned_map(r, signs, t):
    """x -> r * diag(signs) x + t: a diagonal linear part, so the orbit reads its image tables."""
    return Similarity(r, np.diag(np.asarray(signs, float)), np.asarray(t, float))


class TestAttractorParity:
    @pytest.mark.parametrize("name", sorted(COARSE_DELTA))
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_presets_bitwise(self, name, chunk, monkeypatch):
        monkeypatch.setattr(tiling, "ATTRACTOR_CHUNK", chunk)
        scene = get_preset(name).scene
        ref = preset_reference(name)
        got = attractor_raster(scene.ifs, scene.f_bbox, COARSE_DELTA[name])
        assert ref.count() > 0
        assert np.array_equal(got.occupancy, ref.occupancy)
        assert np.array_equal(got.origin, ref.origin) and got.spacing == ref.spacing

    def test_rand1d_draws_bitwise(self):
        mod, draws = rand1d_draws()
        for draw in draws:
            scene = mod.rand1d_scene(draw)
            lo, hi = np.asarray(scene.f_bbox[0]), np.asarray(scene.f_bbox[1])
            pad = 2 * scene.delta
            ref = assert_same_for_every_chunk(scene.ifs, (lo - pad, hi + pad), scene.delta)
            assert isinstance(ref, np.ndarray) and ref.any()

    def test_1d_reflection_bitwise(self):
        # q = -1 on the first map: the box [0, 2] is not invariant (S_0(2) < 0),
        # so every orbit point is checked, and none escapes
        ifs = IFS((aligned_map(0.4, [-1.0], [0.4]), aligned_map(0.35, [1.0], [0.65])), 1)
        for bbox in (([0.0], [1.0]), ([0.0], [2.0])):
            ref = assert_same_for_every_chunk(ifs, bbox, 2.0**-11)
            assert isinstance(ref, np.ndarray) and ref.any()

    def test_non_invariant_box_holding_the_attractor(self):
        # axis-aligned maps with a reflection: the attractor lies in the unit
        # square, but S_0 sends the box's far corner to x = -1; the tables of
        # the cells past x = 1 mark escapes that the orbit never reads
        ifs = IFS((
            aligned_map(0.5, [-1.0, 1.0], [0.5, 0.0]),
            aligned_map(0.5, [1.0, 1.0], [0.5, 0.0]),
            aligned_map(0.5, [1.0, -1.0], [0.0, 1.0]),
        ), 2)
        bbox = ([0.0, 0.0], [3.0, 1.0])
        g = grid_from_bbox(bbox, 2.0**-6)
        tables = orbit_tables(ifs, g)
        assert all(t is not None for t in tables) and tables[0][0][1].any()
        ref = assert_same_for_every_chunk(ifs, bbox, 2.0**-6)
        assert isinstance(ref, np.ndarray) and ref.any() and not ref[g.centers(0) > 1.0].any()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 5), data=st.data())
    def test_random_axis_aligned_ifs(self, n, data):
        # reflections about either axis keep the linear part diagonal, so
        # every map past the first generation takes the table path
        maps = []
        for _ in range(n):
            r = data.draw(st.floats(0.2, 0.5))
            q = np.array([data.draw(st.sampled_from([1.0, -1.0])) for _ in range(2)])
            t = np.array([data.draw(st.floats(0.5 * r, 1 - 0.5 * r)) for _ in range(2)])
            maps.append(aligned_map(r, q, t - r * q * 0.5))
        bbox = (np.zeros(2), np.array([1.0, data.draw(st.sampled_from([1.0, 0.8]))]))
        assert_same_for_every_chunk(IFS(tuple(maps), 2), bbox, 2.0**-6)

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        n=st.integers(2, 4),
        data=st.data(),
    )
    def test_random_ifs(self, dim, n, data):
        # maps x -> r Q (x - c) + t_i about the box centre c; with reflections
        # and rotations the box corners can leave the box, which sends the
        # raster down its escape-checking path (and sometimes into a refusal)
        maps = []
        for _ in range(n):
            r = data.draw(st.floats(0.2, 0.5))
            if dim == 1:
                q = np.array([[data.draw(st.sampled_from([1.0, -1.0]))]])
            else:
                q = rotation(data.draw(st.floats(0.0, 360.0)))
                if data.draw(st.booleans()):
                    q = q @ np.diag([1.0, -1.0])
            t = np.array([data.draw(st.floats(0.5 * r, 1 - 0.5 * r)) for _ in range(dim)])
            maps.append(Similarity(r, q, t - r * q @ np.full(dim, 0.5)))
        ifs = IFS(tuple(maps), dim)
        bbox = (np.zeros(dim), np.ones(dim))
        assert_same_for_every_chunk(ifs, bbox, 2.0**-9 if dim == 1 else 2.0**-6)

    def test_escape_in_a_later_chunk_is_refused(self, monkeypatch):
        # right-angle gasket with vertices (0,0), (1,0), (0,1) in a box cut at
        # y = 0.75: the first orbit point above the cut is S_2 S_2 S_2 (0) =
        # (0, 0.875), a child under the last map in the third generation, so
        # at 7 candidates per chunk it turns up after the first chunks
        ifs = IFS(
            tuple(Similarity(0.5, np.eye(2), np.array(t)) for t in ((0, 0), (0.5, 0), (0, 0.5))),
            2,
        )
        bbox = ([0.0, 0.0], [1.0, 0.75])
        monkeypatch.setattr(tiling, "ATTRACTOR_CHUNK", 7)
        with pytest.raises(ResolutionError, match="bbox does not contain the attractor"):
            reference_attractor_raster(ifs, bbox, 2.0**-6)
        with pytest.raises(ResolutionError, match="bbox does not contain the attractor"):
            attractor_raster(ifs, bbox, 2.0**-6)
        # the maps are axis-aligned: the escape is read from the image tables
        g = grid_from_bbox(bbox, 2.0**-6)
        assert all(t is not None for t in orbit_tables(ifs, g))
        assert isinstance(assert_same_for_every_chunk(ifs, bbox, 2.0**-6), str)


def reference_edt(occ, spacing, inner=False):
    if inner:
        vals = ndimage.distance_transform_edt(np.pad(occ, 1)) * spacing
        return vals[tuple(slice(1, -1) for _ in range(occ.ndim))].astype(np.float32)
    return (ndimage.distance_transform_edt(~occ) * spacing).astype(np.float32)


EDT_SHAPES = [(1,), (2,), (257,), (1, 97), (97, 1), (1, 1), (13, 7), (31, 64), (200, 3), (3, 200)]


class TestEdtParity:
    @pytest.mark.parametrize("strip", (1, 7, grids.EDT_STRIP_CELLS))
    @pytest.mark.parametrize("shape", EDT_SHAPES, ids=str)
    def test_bitwise(self, shape, strip, monkeypatch):
        monkeypatch.setattr(grids, "EDT_STRIP_CELLS", strip)
        rng = np.random.default_rng(sum(shape) * 31 + strip % 97)
        for p in (0.03, 0.5, 0.97):
            occ = rng.random(shape) < p
            occ.flat[rng.integers(occ.size)] = True
            g = Grid(np.full(len(shape), -0.3), 0.0137, occ)
            got = distance_transform(g).values
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), reference_edt(occ, g.spacing).view(np.uint32))
            got = inner_distance(g).values
            assert got.dtype == np.float32
            assert np.array_equal(
                got.view(np.uint32), reference_edt(occ, g.spacing, inner=True).view(np.uint32)
            )


    @pytest.mark.parametrize("pad", (0, 1))
    @pytest.mark.parametrize("spacing", (1 / 3, 0.0137))
    @pytest.mark.parametrize("shape", ((20000, 3), (3, 20000)), ids=str)
    def test_long_thin_grid(self, shape, spacing, pad):
        # 0 cells only at the two ends of a long strip: offsets in the middle
        # reach about 10**4, past 2**13, in strips of one row or of many
        background = np.ones(shape, bool)
        background.flat[[0, -1, -2]] = False
        whole = ndimage.distance_transform_edt(background)
        assert whole.max() > 2**13
        crop = tuple(slice(pad, n - pad) for n in shape)
        want = (whole * spacing).astype(np.float32)[crop]
        got = grids._edt(background, spacing, pad)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 400), fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           pad=st.sampled_from([0, 1]), spacing=st.sampled_from([1.0, 0.0137, 2.0**-14, 1 / 3]))
    def test_1d_numpy_branch_matches_the_feature_transform(self, n, fill, seed, pad, spacing):
        # the 1-d branch of _edt takes no kernel; it must give the distances
        # that scipy's feature transform gives, taken as scipy takes them
        rng = np.random.default_rng(seed)
        background = rng.random(n) < fill
        background[rng.integers(n)] = False  # at least one 0 cell
        if pad:
            background = np.pad(background, 1)
        ft = np.zeros((1,) + background.shape, dtype=np.int32)
        grids._load_ndimage_kernel("_nd_image").euclidean_feature_transform(background.view(np.int8), None, ft)
        dx = (ft[0] - np.arange(background.size)).astype(float)
        want = (np.sqrt(dx * dx) * spacing).astype(np.float32)[pad : background.size - pad]
        got = grids._edt(background, spacing, pad)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def traced_peak(fn, *args) -> int:
    """Peak bytes of traced allocations while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    def test_distance_transform_bytes_per_cell(self):
        # whole-array distances peaked at 33 B per cell (int32 feature
        # transform, np.indices, the int32 difference and float64 copies);
        # strips leave the feature transform of _nd_image's kernel, the
        # boolean background it reads as int8 (no copy) and the output
        n = 1024
        occ = np.zeros((n, n), dtype=bool)
        occ[::37, ::41] = True
        g = Grid(np.zeros(2), 1.0 / n, occ)
        per_cell = traced_peak(distance_transform, g) / occ.size
        assert per_cell <= 20

    def test_restricted_volume_builds_no_cell_points(self):
        # reading the field at centers built per cell peaked at 65 B per cell
        # (float64 centers, their int64 indices, the values); on a shared
        # lattice the field is sliced, which leaves the float32 read, its
        # float64 copy and one sorted strip
        n = 1024
        rng = np.random.default_rng(5)
        f = DistanceField(np.zeros(2), 1.0 / n, rng.random((n, n)).astype(np.float32))
        occ = np.zeros((n - 24, n - 24), dtype=bool)
        occ[50:-50, 50:-50] = True
        A = Grid(f.origin + 12 * f.spacing, f.spacing, occ)
        eps = make_eps_grid(f.spacing, 0.5, 16)
        per_cell = traced_peak(sample_restricted_volume, f, A, eps) / occ.sum()
        assert per_cell <= 20

    def test_carpet_attractor_raster_peak(self):
        # the whole-generation dedupe peaked at 117 MB here, 14.3 MB with
        # each generation's index pair and survivor bookkeeping built whole,
        # and 8.75 MB while finished cells were folded again every generation
        peak = traced_peak(attractor_raster, carpet_ifs(), ([0.0, 0.0], [1.0, 1.0]), 2.0**-9)
        assert peak <= 8e6

    def test_cell_point_indexes_one_row(self):
        # an index of every set cell peaked at 8 B per cell (33.6 MB here);
        # per-row counts and one row's index are 16 KB each
        n = 2048
        full = np.ones((n, n), dtype=bool)
        g = Grid(np.zeros(2), 1.0 / n, full)
        assert traced_peak(g.cell_point, full, full.size - 1) <= 1e6

    def test_extractor_init_bytes_per_dual_cell(self):
        # the bin index (16-bit keys, an int32 cell order and a sort chunk)
        # peaked at 13.5 B per dual cell, and the corner minima kept for the
        # sweep at 5 B; the constructor now reads only the border ring
        # (0.019 B per dual cell here) and keeps nothing per cell
        n = 1024
        rng = np.random.default_rng(5)
        f = DistanceField(np.zeros(2), 1.0 / n, rng.random((n, n)).astype(np.float32))
        per_cell = traced_peak(LevelSetExtractor, f) / (n - 1) ** 2
        assert per_cell <= 0.05

    @pytest.mark.parametrize("field, bound", [("points", 0.4), ("random", 3.8)])
    def test_swept_index_holds_each_cell_once(self, field, bound):
        # after index() of 64 thresholds the extractor keeps, per band cell,
        # one int32 cell and one uint8 crossing count, and nothing per dual
        # cell (the corner minima are taken strip by strip in the sweep):
        # three points' distance field puts 7% of the dual cells in a band
        # (0.361 B per dual cell), the random field (no Lipschitz bound)
        # nearly 70% (3.418 B), most of them crossing many thresholds, which
        # a (cell, threshold) list would repeat
        n = 1024
        if field == "points":
            occ = np.zeros((n, n), dtype=bool)
            occ[[100, 512, 900], [900, 512, 100]] = True
            f = distance_transform(Grid(np.zeros(2), 1.0 / n, occ))
        else:
            rng = np.random.default_rng(5)
            f = DistanceField(np.zeros(2), 1.0 / n, rng.random((n, n)).astype(np.float32))
        eps = np.geomspace(4.0 / n, 0.25, 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ex = LevelSetExtractor(f)
            ex.index(eps)
            resident = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        levels, cells, count, starts, widest = ex._index
        assert np.unique(cells).size == cells.size
        assert resident <= 5 * cells.size + (1 << 14)  # + object headers
        assert resident / (n - 1) ** 2 <= bound
