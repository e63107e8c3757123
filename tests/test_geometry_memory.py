"""Bounded-memory attractor raster and EDT against the algorithms they replaced.

`attractor_raster` deduplicates each breadth-first generation chunk by chunk
through a bitmap of claimed cells; `distance_transform` and `inner_distance`
turn scipy's feature transform into distances one strip of rows at a time.
Both must reproduce, bit for bit, what the whole-array versions gave, and
both must stay below a fixed peak of traced allocations (numpy reports its
buffers to tracemalloc).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from fractal_tiling_lab import grids, tiling
from fractal_tiling_lab.errors import ResolutionError
from fractal_tiling_lab.grids import Grid, distance_transform, grid_from_bbox, inner_distance
from fractal_tiling_lab.ifs import IFS, Similarity, rotation
from fractal_tiling_lab.presets import carpet_ifs, get_preset
from fractal_tiling_lab.tiling import attractor_raster

COARSE_DELTA = {
    "cantor": 2.0**-12,
    "cantor_pair": 2.0**-12,
    "carpet": 2.0**-8,
    "koch": 2.0**-9,
    "gasket": 2.0**-8,
}
CHUNKS = (7, 64, tiling.ATTRACTOR_CHUNK)


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


class TestAttractorParity:
    @pytest.mark.parametrize("name", sorted(COARSE_DELTA))
    @pytest.mark.parametrize("chunk", (509, tiling.ATTRACTOR_CHUNK))
    def test_presets_bitwise(self, name, chunk, monkeypatch):
        monkeypatch.setattr(tiling, "ATTRACTOR_CHUNK", chunk)
        scene = get_preset(name).scene
        delta = COARSE_DELTA[name]
        ref = reference_attractor_raster(scene.ifs, scene.f_bbox, delta)
        got = attractor_raster(scene.ifs, scene.f_bbox, delta)
        assert ref.count() > 0
        assert np.array_equal(got.occupancy, ref.occupancy)
        assert np.array_equal(got.origin, ref.origin) and got.spacing == ref.spacing

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
        delta = 2.0**-9 if dim == 1 else 2.0**-6
        ref = outcome(reference_attractor_raster, ifs, bbox, delta)
        for chunk in CHUNKS:
            tiling.ATTRACTOR_CHUNK, saved = chunk, tiling.ATTRACTOR_CHUNK
            try:
                got = outcome(attractor_raster, ifs, bbox, delta)
            finally:
                tiling.ATTRACTOR_CHUNK = saved
            assert_same(got, ref)

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
        # strips leave the feature transform, scipy's input and the output
        n = 1024
        occ = np.zeros((n, n), dtype=bool)
        occ[::37, ::41] = True
        g = Grid(np.zeros(2), 1.0 / n, occ)
        per_cell = traced_peak(distance_transform, g) / occ.size
        assert per_cell <= 20

    def test_carpet_attractor_raster_peak(self):
        # the whole-generation dedupe peaked at 117 MB here
        peak = traced_peak(attractor_raster, carpet_ifs(), ([0.0, 0.0], [1.0, 1.0]), 2.0**-9)
        assert peak <= 40e6
