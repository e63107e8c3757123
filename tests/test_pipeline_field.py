"""field_small is sized by its readers: one EDT at the start pad, a crop of any larger field.

SceneBundle.field_small takes the pad max(1.3 g^, window top) + 8 delta,
where g^ (SceneBundle._g_tilde_bound, one EDT at 4 delta) bounds the relative
inradius g~ from above, so the pad covers 1.3 g~ + 8 delta and one fine field
is built. Every F_tight cell lies in the box the pad grows, so the field's
values at a cell do not depend on the pad: the field is the matching crop of
one built at a larger pad, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractal_tiling_lab import pipeline
from fractal_tiling_lab.grids import ConvexPolygon, IntervalUnion, distance_transform, grid_from_bbox
from fractal_tiling_lab.ifs import IFS, Similarity, rotation
from fractal_tiling_lab.pipeline import SceneBundle, get_bundle
from fractal_tiling_lab.presets import PRESETS, Scene, get_preset
from fractal_tiling_lab.tiling import relative_inradius

COARSE_DELTA = {
    "cantor": 2.0**-12,
    "cantor_pair": 2.0**-12,
    "carpet": 2.0**-10,
    "koch": 2.0**-9,
    "gasket": 2.0**-9,
}


def preset_scene(name: str, delta: float) -> Scene:
    s = get_preset(name).scene
    return Scene(s.ifs, s.region, delta, s.f_bbox, s.eps_per_decade, s.name)


def fine_edts(bundle: SceneBundle) -> list:
    """Builds bundle.field_small; returns the extents of every EDT it took at delta."""
    calls = []
    real = pipeline.distance_transform

    def counting(grid):
        if grid.spacing == bundle.delta:
            calls.append(grid.extents)
        return real(grid)

    with mock.patch.object(pipeline, "distance_transform", counting):
        bundle.field_small
    return calls


def assert_one_field(bundle: SceneBundle):
    calls = fine_edts(bundle)
    assert calls == [bundle.field_small.extents]
    assert bundle._g_tilde_bound() >= bundle.g_tilde


def field_at_wide_pad(b: SceneBundle):
    """field_small as built with the start pad max(0.25 |f_bbox|, window top + 8 delta)."""
    lo, hi = (np.asarray(c, float) for c in b.scene.f_bbox)
    pad = max(0.25 * float(np.linalg.norm(hi - lo)), b._window_without_g()[1] + 8 * b.delta)
    box_lo, box_hi = b._box()
    while True:
        margin = (math.ceil(pad / b.delta) + 1) * b.delta
        grid = grid_from_bbox((box_lo - margin, box_hi + margin), b.delta)
        field = distance_transform(grid.with_occupancy(b.F_tight.embed_into(grid.origin, grid.extents)))
        if 1.3 * relative_inradius(field, b.O) + 8 * b.delta <= pad:
            return field
        pad *= 1.6


class TestStartPad:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_bound_holds_at_default_delta(self, name):
        b = get_bundle(name)
        g_hat = b._g_tilde_bound()
        # and within 6 sqrt(d) delta of it: each of O's blocks holds a cell of O
        assert b.g_tilde <= g_hat <= b.g_tilde + 6.01 * math.sqrt(b.d) * b.delta
        # the pad covers 1.3 g~ + 8 delta, and the field is built at that pad
        pad = max(b._window_without_g()[1], 1.3 * g_hat) + 8 * b.delta
        assert 1.3 * b.g_tilde + 8 * b.delta <= pad
        margin = math.ceil(pad / b.delta) + 1
        box = grid_from_bbox(b._box(), b.delta)
        assert b.field_small.extents == tuple(n + 2 * margin for n in box.extents)

    @pytest.mark.parametrize("name", sorted(COARSE_DELTA))
    def test_presets_build_one_field(self, name):
        assert_one_field(SceneBundle(preset_scene(name, COARSE_DELTA[name])))

    @settings(max_examples=10, deadline=None)
    @given(m=st.sampled_from([2, 3]), data=st.data())
    def test_random_2d_ifs_builds_one_field(self, m, data):
        # maps of the unit square into distinct cells of an m x m grid, each
        # rotated (and maybe reflected) about its cell's centre; r sqrt(2) < 1/m
        # keeps every image inside its cell, so the square is a feasible open set
        cells = data.draw(st.lists(st.integers(0, m * m - 1), min_size=2, max_size=m * m, unique=True))
        maps = []
        for c in cells:
            r = data.draw(st.floats(0.5 / m, 0.6 / m))
            q = rotation(data.draw(st.floats(0.0, 360.0)))
            if data.draw(st.booleans()):
                q = q @ np.diag([1.0, -1.0])
            centre = (np.array(divmod(c, m)) + 0.5) / m
            maps.append(Similarity(r, q, centre - r * q @ np.full(2, 0.5)))
        square = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        scene = Scene(IFS(tuple(maps), 2), square, 2.0**-7, ([0.0, 0.0], [1.0, 1.0]))
        assert_one_field(SceneBundle(scene))

    @settings(max_examples=10, deadline=None)
    @given(m=st.integers(2, 5), data=st.data())
    def test_random_1d_ifs_builds_one_field(self, m, data):
        cells = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m, unique=True))
        maps = []
        for c in cells:
            r = data.draw(st.floats(0.3 / m, 0.8 / m))
            q = data.draw(st.sampled_from([1.0, -1.0]))
            maps.append(Similarity(r, np.array([[q]]), np.array([(c + 0.5) / m - 0.5 * r * q])))
        scene = Scene(IFS(tuple(maps), 1), IntervalUnion(((0.0, 1.0),)), 2.0**-10, ([0.0], [1.0]))
        assert_one_field(SceneBundle(scene))


class TestCrop:
    @pytest.mark.parametrize("name", sorted(COARSE_DELTA))
    def test_field_is_a_crop_of_the_wide_field(self, name):
        b = SceneBundle(preset_scene(name, COARSE_DELTA[name]))
        wide, field = field_at_wide_pad(b), b.field_small
        sel = wide.lattice_slice(field)
        assert sel is not None
        assert field.values.dtype == wide.values.dtype == np.float32
        assert np.array_equal(field.values.view(np.uint32), wide.values[sel].view(np.uint32))
        assert relative_inradius(wide, b.O) == b.g_tilde
