import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import fractal_tiling_lab as ftl
from fractal_tiling_lab import curvature, grids, ifs, levelsets, pipeline, tiling, volumes
from fractal_tiling_lab.contents import gatzouras_content
from fractal_tiling_lab.errors import ConfigError
from fractal_tiling_lab.grids import ConvexPolygon, IntervalUnion, distance_transform, grid_from_bbox, inner_distance, rasterize
from fractal_tiling_lab.ifs import IFS, Similarity
from fractal_tiling_lab.presets import Scene, carpet_ifs, get_preset, translation_map
from fractal_tiling_lab.tiling import attractor_raster
from fractal_tiling_lab.volumes import (
    EpsGrid,
    gatzouras_rd,
    make_eps_grid,
    phi_function,
    sample_inner_volume,
    sample_parallel_volume,
    sample_restricted_volume,
    VolumeSamples,
)


class TestEpsGrid:
    def test_lattice_alignment_gives_exact_shifts(self):
        grid = make_eps_grid(2.0**-12, 1 / 6, 64, math.log(3))
        shift = grid.shift_for_ratio(1 / 3)
        assert shift is not None
        i = len(grid.eps) - 1 - shift
        assert grid.eps[i] * 3 == pytest.approx(grid.eps[-1], rel=1e-12)

    def test_unaligned_ratio_has_no_shift(self):
        grid = make_eps_grid(2.0**-12, 1 / 6, 64, None)
        assert grid.shift_for_ratio(1 / 3) is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            make_eps_grid(0.25, 0.5, 64)


class TestInnerVolumeSamples:
    def test_square_sample(self):
        delta = 2.0**-10
        sq = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        G = rasterize(sq, ([-0.05, -0.05], [1.05, 1.05]), delta)
        grid = make_eps_grid(delta, 0.5, 64)
        vs = sample_inner_volume(inner_distance(G), grid)
        assert vs.values[np.argmin(np.abs(vs.eps - 0.1))] == pytest.approx(0.36, abs=16 * delta)
        assert np.all(np.diff(vs.values) >= 0)
        assert vs.values[-1] == pytest.approx(1.0, abs=16 * delta)

    def test_polygon_tube_exponent_is_d_minus_1(self):
        delta = 2.0**-11
        tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.9]]))
        G = rasterize(tri, ([-0.05, -0.05], [1.05, 1.05]), delta)
        from fractal_tiling_lab.grids import inradius
        from fractal_tiling_lab.contents import power_fit

        grid = make_eps_grid(delta, inradius(G), 64)
        vs = sample_inner_volume(inner_distance(G), grid)
        _, slope = power_fit(vs.eps, vs.values, decades=1.0)
        assert abs(slope - 1.0) <= 0.05


def full_sort_samples(vals, eps, delta, dim, cell_volume):
    """Reference: values and tolerance from one sorted copy of all values."""
    s = np.sort(vals, axis=None)
    w = 0.75 * delta * math.sqrt(dim)
    near = np.searchsorted(s, eps + w, side="right") - np.searchsorted(s, eps - w, side="left")
    return np.searchsorted(s, eps, side="right") * cell_volume, near * delta**dim


class TestCountsInStrips:
    """Counts summed over sorted strips equal the counts of one full sort."""

    @pytest.fixture(scope="class")
    def carpet_setup(self):
        delta = 2.0**-7
        field = distance_transform(attractor_raster(carpet_ifs(), ([-0.3, -0.3], [1.3, 1.3]), delta))
        sq = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        G = rasterize(sq, ([-0.05, -0.05], [1.05, 1.05]), delta)
        vals = np.unique(field.values).astype(float)
        # eps on a geometric grid, on the field's own values, and where
        # eps -/+ w (the tolerance bounds) land exactly on field values
        w = 0.75 * delta * math.sqrt(2)
        at_bounds = np.concatenate([e[(e + sign * w) == vals] for sign, e in ((-1, vals + w), (1, vals - w))])
        grids = [make_eps_grid(delta, 0.25, 64)] + [
            EpsGrid(np.unique(e[(e > 0) & (e < 0.25)]), 0.0) for e in (vals, at_bounds)]
        assert grids[-1].eps.size > 10
        return field, G, grids

    @staticmethod
    def assert_same(samples, ref):
        assert samples.values.tobytes() == ref[0].tobytes()
        assert samples.tolerance.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("strip", [7, 64, 1 << 20])
    def test_samplers_bitwise(self, carpet_setup, strip):
        field, G, grids = carpet_setup
        d, delta = field.dim, field.spacing
        with mock.patch.object(volumes, "_COUNT_STRIP", strip):
            for grid in grids:
                self.assert_same(sample_parallel_volume(field, grid), full_sort_samples(
                    field.values, grid.eps, delta, d, delta**d))
                vals = field.sample_at(G.cell_points(G.occupancy))
                self.assert_same(sample_restricted_volume(field, G, grid), full_sort_samples(
                    vals, grid.eps, delta, d, G.cell_volume))
                inner = inner_distance(G).values[G.occupancy]
                ref = full_sort_samples(inner, grid.eps, delta, d, G.cell_volume)
                self.assert_same(sample_inner_volume(inner_distance(G), grid, extra_area=0.125),
                                 (ref[0] + 0.125, ref[1]))


class TestRestrictedVolume(object):
    def test_cantor_gamma_values(self, cantor_bundle):
        b = cantor_bundle
        fog = b.F_on_Gamma
        delta = b.delta
        # at eps = g~ the collar covers Gamma exactly: lambda = 1/3
        assert fog.values[np.argmin(np.abs(fog.eps - 1 / 6))] == pytest.approx(1 / 3, abs=8 * delta)
        # below 1/6 the collar grows from the endpoints 1/3, 2/3: lambda = 2 eps
        # (evaluated at the nearest grid node, since the log grid snaps)
        i = int(np.argmin(np.abs(fog.eps - 1 / 12)))
        assert fog.values[i] == pytest.approx(2 * fog.eps[i], abs=8 * delta)

    def test_saturation_at_g_tilde(self, cantor_bundle):
        b = cantor_bundle
        foo = b.F_on_O
        assert foo.values[-1] == pytest.approx(b.O.area(), abs=8 * b.delta)

    def test_monotone(self, cantor_bundle):
        assert np.all(np.diff(cantor_bundle.F_on_O.values) >= 0)


class TestHFunction:
    def test_h_equals_generator_volume_below_rg(self, cantor_bundle):
        b = cantor_bundle
        h, vg = b.h, b.V_G
        sel = (h.eps <= b.g / 3 * 0.999) & (h.eps >= 8 * b.delta)
        resid = np.abs(h.values[sel] - vg.values[sel])
        assert np.all(resid <= 3 * np.maximum(h.tolerance[sel], 2 * b.delta))

    def test_h_constant_above_g(self, cantor_bundle):
        b = cantor_bundle
        h = b.h
        top = h.eps > b.g * 1.001
        if top.any():
            assert np.allclose(h.values[top], h.values[-1], atol=4 * b.delta)

    def test_cantor_h_small_eps_values(self, cantor_bundle):
        # below min r_i g = 1/18 the difference reduces to V(G, eps) = 2 eps;
        # above it (e.g. at 1/12) the subtraction gates are off and h equals
        # V(T, eps), which is 5/6 exactly at eps = 1/12
        b = cantor_bundle
        h = b.h
        i = int(np.argmin(np.abs(h.eps - 1 / 24)))
        assert h.values[i] == pytest.approx(2 * h.eps[i], abs=12 * b.delta)
        j = int(np.argmin(np.abs(h.eps - 1 / 12)))
        expected_vt = sum(2**n * min(2 * h.eps[j], 3.0 ** -(n + 1)) for n in range(40))
        assert h.values[j] == pytest.approx(expected_vt, abs=0.02)

    def test_h_bounded_by_total_mass(self, cantor_bundle):
        b = cantor_bundle
        bound = (b.ifs.n + 1) * b.O.area()
        assert np.max(np.abs(b.h.values)) <= bound

    def test_carpet_h_residual(self, carpet_bundle):
        b = carpet_bundle
        h, vg = b.h, b.V_G
        sel = (h.eps <= b.g / 3 * 0.999) & (h.eps >= 8 * b.delta)
        resid = np.abs(h.values[sel] - vg.values[sel])
        assert np.all(resid <= 3 * np.maximum(h.tolerance[sel], 4 * b.delta**2))

    def test_renewal_residual_zero_by_construction(self, cantor_bundle):
        # h is defined through the scaling identity, so recomputing the
        # difference must reproduce it exactly
        b = cantor_bundle
        vt, h, grid = b.V_T, b.h, b.grid_G
        rebuilt = vt.values.copy()
        for m in b.ifs.maps:
            shift = grid.shift_for_ratio(m.ratio)
            idx = np.minimum(np.arange(len(grid.eps)) + shift, len(grid.eps) - 1)
            gate = grid.eps <= m.ratio * b.g + 1e-12
            rebuilt = rebuilt - gate * m.ratio ** b.d * vt.values[idx]
        sel = grid.eps <= b.g / 3
        assert np.allclose(rebuilt[sel], h.values[sel], atol=1e-12)


def phi_of(b):
    """The renewal difference of lambda(F_eps ^ O) on the bundle's relative grid."""
    return phi_function(b.F_on_O, b.ifs, b.g_tilde, b.grid_rel)


class TestPhiFunction:
    def test_phi_saturates_to_lambda_O(self, cantor_bundle):
        # above all gates phi(eps) = lambda(F_eps ^ O) with no subtraction,
        # which saturates at lambda(O)
        b = cantor_bundle
        phi = phi_of(b)
        top = phi.eps > b.g_tilde * 0.999
        assert phi.values[top][-1] == pytest.approx(b.O.area(), abs=8 * b.delta)

    def test_phi_equals_gamma_volume_at_small_eps(self, cantor_bundle):
        b = cantor_bundle
        phi, fog = phi_of(b), b.F_on_Gamma
        rmin = float(b.ifs.ratios.min())
        sel = (phi.eps <= rmin * b.g_tilde * 0.999) & (phi.eps >= 8 * b.delta)
        resid = np.abs(phi.values[sel] - fog.values[sel])
        assert np.all(resid <= 3 * np.maximum(phi.tolerance[sel], 2 * b.delta))

    def test_projection_decomposition(self, cantor_bundle):
        # under the projection condition:
        # phi = lambda(F_eps ^ Gamma) + lambda(O) sum r^d 1_(r g~, g~]
        b = cantor_bundle
        phi, fog = phi_of(b), b.F_on_Gamma
        extra = np.zeros_like(phi.values)
        for m in b.ifs.maps:
            gate = (phi.eps > m.ratio * b.g_tilde) & (phi.eps <= b.g_tilde * (1 + 1e-12))
            extra = extra + gate * m.ratio**b.d * b.O.area()
        sel = phi.eps <= b.g_tilde
        resid = np.abs(phi.values[sel] - (fog.values[sel] + extra[sel]))
        assert np.max(resid) <= 3 * np.maximum(phi.tolerance[sel], 4 * b.delta).max()


def renewal_difference_per_map(samples, ifs, cutoff, grid, weight_exponent):
    """Reference: (values, tolerance) with two interpolants (values, tolerance) per off-grid map."""
    n = samples.eps.size
    values, tol = samples.values.copy(), samples.tolerance.copy()
    for m in ifs.maps:
        shift = grid.shift_for_ratio(m.ratio)
        if shift is None:
            target = np.minimum(samples.eps / m.ratio, samples.eps[-1])
            scaled = PchipInterpolator(samples.eps, samples.values, extrapolate=False)(target)
            scaled_tol = PchipInterpolator(samples.eps, samples.tolerance, extrapolate=False)(target)
        else:
            idx = np.minimum(np.arange(n) + shift, n - 1)
            scaled, scaled_tol = samples.values[idx], samples.tolerance[idx]
        gate = grid.eps <= m.ratio * cutoff + 1e-12 * cutoff
        w = m.ratio**weight_exponent
        values = values - gate * w * scaled
        tol = tol + gate * w * scaled_tol
    return values, tol


class TestSharedInterpolant:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ratios=st.lists(st.floats(0.05, 0.7), min_size=2, max_size=4),
        on_grid=st.lists(st.integers(1, 40), max_size=2),
        dim=st.sampled_from([1, 2]),
    )
    def test_bitwise_equal_to_two_interpolants_per_map(self, seed, ratios, on_grid, dim):
        """Off-grid ratios (and a few on-grid ones) against the per-map form, to the bit."""
        grid = make_eps_grid(2.0**-12, 0.3, 64, None)
        ratios = ratios + [math.exp(-k * grid.log_step) for k in on_grid]
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.random(grid.eps.size)) * rng.uniform(1e-4, 10.0)
        tolerance = rng.random(grid.eps.size) * rng.uniform(1e-6, 1.0)
        samples = VolumeSamples(grid.eps, values, 2.0**-12, tolerance)
        maps = tuple(Similarity(r, np.eye(dim), np.zeros(dim)) for r in ratios)
        cutoff = float(rng.uniform(0.05, 0.5))
        got = volumes.renewal_difference(samples, IFS(maps, dim), cutoff, grid, dim)
        ref_values, ref_tol = renewal_difference_per_map(samples, IFS(maps, dim), cutoff, grid, dim)
        assert np.array_equal(got.values, ref_values)
        assert np.array_equal(got.tolerance, ref_tol)
        assert got.interpolated == any(grid.shift_for_ratio(r) is None for r in ratios)


class TestPchipPort:
    """volumes._pchip against scipy's PchipInterpolator(extrapolate=False), byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.just(2), st.integers(3, 40)),
        columns=st.sampled_from([1, 2]),
        shape=st.sampled_from(["random", "monotone", "steps", "geometric"]),
    )
    def test_same_bytes_as_scipy(self, seed, n, columns, shape):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, n)) * rng.uniform(1e-3, 10.0) + rng.uniform(-1.0, 1.0)
        if shape == "random":
            y = rng.normal(size=(n, columns)) * rng.uniform(1e-3, 1e3)
        elif shape == "monotone":
            y = np.cumsum(rng.random((n, columns)), axis=0)
        elif shape == "steps":  # flat runs, zero and sign-changing secants
            y = rng.integers(-2, 3, size=(n, columns)).astype(float)
        else:
            x = 2.0**-12 * np.exp(0.036 * np.arange(n))
            y = np.cumsum(rng.random((n, columns)), axis=0) * x[:, None]
        span = x[-1] - x[0]
        t = np.concatenate([
            x, x[-1:], rng.uniform(x[0], x[-1], 25),
            x[0] - span * rng.random(3) - 1e-12, x[-1] + span * rng.random(3) + 1e-12,
        ])
        got = volumes._pchip(x, y, t)
        ref = PchipInterpolator(x, y, extrapolate=False)(t)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert np.isnan(got[-6:]).all() and not np.isnan(got[:-6]).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, bad):
        x = np.array([1.0, 2.0, 3.0])
        y = np.ones((3, 2))
        y[1, 0] = bad
        with pytest.raises(ConfigError, match="finite"):
            volumes._pchip(x, y, x)
        x[2] = bad
        with pytest.raises(ConfigError, match="finite"):
            volumes._pchip(x, np.ones((3, 2)), x[:2])


def gatzouras_at_cutoff_1(b):
    """The Gatzouras row with cutoff a = 1, from a field of F padded past eps = 1.05."""
    o, f, delta = b.O, b.F_tight, b.delta
    margin = (math.ceil(1.05 / delta) + 1) * delta
    lo = np.minimum(o.origin, f.origin) - margin
    hi = np.maximum(o.origin + np.array(o.extents) * delta, f.origin + np.array(f.extents) * delta) + margin
    grid = grid_from_bbox((lo, hi), delta)
    field = distance_transform(grid.with_occupancy(f.embed_into(grid.origin, grid.extents)))
    eps_grid = make_eps_grid(delta, 1.0, b.scene.eps_per_decade, b.lattice_base)
    rd = gatzouras_rd(sample_parallel_volume(field, eps_grid), b.ifs, eps_grid)
    return gatzouras_content(rd, b.dim_data.D, b.dim_data.eta, b.d)


def interval_bundle(ratios, translations, delta=2.0**-14):
    maps = tuple(translation_map(r, [t]) for r, t in zip(ratios, translations))
    scene = Scene(IFS(maps, 1), IntervalUnion(((0.0, 1.0),)), delta, ([0.0], [1.0]))
    return pipeline.SceneBundle(scene)


class TestGatzourasDifference:
    def test_indicators_vanish_above_rmax(self, cantor_bundle):
        b = cantor_bundle
        rd, fv = b.R_d, b.F_volumes
        a = rd.eps[-1]
        rmax = float(b.ifs.ratios.max())
        sel = rd.eps > rmax * a * 1.0001
        assert sel.any()
        assert np.array_equal(rd.values[sel], fv.values[sel])

    @pytest.mark.parametrize("name", ["cantor", "cantor_pair"])
    def test_lattice_cutoff_matches_cutoff_1(self, name):
        """Any grid node is a valid cutoff: on a lattice grid a = 1 gives the same row to rounding."""
        b = pipeline.get_bundle(name)
        row = b.content("gatzouras")
        ref = gatzouras_at_cutoff_1(b)
        assert row.extra["normalization"] == b.grid_F.eps[-1] < 1.0
        assert row.value == pytest.approx(ref.value, rel=1e-12)

    @pytest.mark.parametrize("ratios,translations", [
        ((0.3, 0.45), (0.0, 0.55)),
        ((0.2, 0.35, 0.25), (0.0, 0.3, 0.75)),
    ])
    def test_nonlattice_cutoff_within_own_error(self, ratios, translations):
        b = interval_bundle(ratios, translations)
        assert b.lattice_base is None
        row = b.content("gatzouras")
        ref = gatzouras_at_cutoff_1(b)
        assert abs(row.value - ref.value) <= row.error_estimate

    def test_cantor_rd_vanishes_below_separation(self, cantor_bundle):
        # the two pieces' parallel sets are disjoint until eps = 1/6, so the
        # difference is exactly zero there while both pieces are subtracted
        # (eps <= a / 3)
        b = cantor_bundle
        rd = b.R_d
        sel = (rd.eps >= 64 * b.delta) & (rd.eps <= min(1 / 6, rd.eps[-1] / 3) * 0.99)
        assert np.max(np.abs(rd.values[sel])) <= 3 * np.maximum(rd.tolerance[sel], 2 * b.delta).max()

    def test_full_dimensional_rejected(self):
        ifs = ftl.IFS(
            (
                ftl.Similarity(0.5, np.eye(1), np.array([0.0])),
                ftl.Similarity(0.5, np.eye(1), np.array([0.5])),
            ),
            1,
        )
        grid = make_eps_grid(2.0**-10, 1.0, 32)
        fake = ftl.VolumeSamples(grid.eps, np.ones_like(grid.eps), 2.0**-10)
        with pytest.raises(ConfigError):
            gatzouras_rd(fake, ifs, grid)


class TestOneAttractorField:
    @pytest.mark.parametrize("name,delta", [("cantor", 2.0**-10), ("carpet", 2.0**-9)])
    def test_one_distance_transform_per_bundle(self, name, delta, monkeypatch):
        """Contents, checks and every curvature order read the one field_small;
        the only other attractor EDT is the coarse one (4 delta) of its pad's bound."""
        calls = []

        def counting(grid):
            calls.append(grid.spacing)
            return distance_transform(grid)

        monkeypatch.setattr(pipeline, "distance_transform", counting)
        b = pipeline.SceneBundle(replace(get_preset(name).scene, delta=delta))
        rows = b.content_table()
        # carpet's direct window (capped at g~) spans under 1.5 decades at
        # 2^-9: both direct rows are refused by name, every other row is built
        for m, row in rows.items():
            refused = name == "carpet" and m.startswith("direct")
            assert ("refused" in row) == refused, m
            if refused:
                assert "decades, under 1.5" in row["refused"]
        b.checks()
        for k in range(b.d):
            b.relative_curvature(k)
            b.relative_curvature(k, "O")
            b.generator_curvature_samples(k)
        assert sorted(calls) == [delta, 4 * delta]


class TestBuiltOnce:
    def test_carpet_words_tiles_and_level_sets_built_once(self, monkeypatch):
        """The word tree is grown once, G's one inner field (on G cropped to its
        cells) gives g, and each field_small threshold is extracted once for G
        and O together, and never for boundary_null."""
        counts = {"words": 0}
        extracted, inner = [], []

        def counting_words(*args):
            counts["words"] += 1
            return ifs.words_up_to_ratio(*args)

        def recording_extract(self, eps):
            extracted.append(self.field)
            return extract(self, eps)

        def recording_inner(grid):
            inner.append(grid)
            return inner_distance(grid)

        extract = levelsets.LevelSetExtractor.extract
        monkeypatch.setattr(tiling, "words_up_to_ratio", counting_words)
        monkeypatch.setattr(levelsets.LevelSetExtractor, "extract", recording_extract)
        for module in (grids, tiling, pipeline, curvature):
            monkeypatch.setattr(module, "inner_distance", recording_inner)

        b = pipeline.SceneBundle(replace(get_preset("carpet").scene, delta=2.0**-8))
        b.content_table()
        b.checks()
        for region in ("G", "O"):
            for k in (0, 1):
                b.relative_curvature(k, region)
        assert counts["words"] == 1
        # the curvature grid's thresholds only: carpet's boundary collar lies
        # inside every F_eps, so boundary_null passes by containment, unextracted
        assert sum(f is b.field_small for f in extracted) == len(b.grid_curv.eps)
        assert b.checks()["boundary_null"].passed
        t = b.tiling
        G_box = t.G.cropped(4)
        assert [g.extents for g in inner if g.extents == G_box.extents] == [t.G_inner.extents]
        assert t.g == float(t.G_inner.values.max())
        # G is O's middle ninth: its field (84 + 2 * 4 cells a side at 2^-8) is not on O's grid
        assert np.prod(G_box.extents) < np.prod(t.O.extents) / 7
        # the one inner field on O's full grid is the tile union's, for V_T
        full = [g for g in inner if g.extents == t.O.extents]
        assert len(full) == 1 and full[0] is t.tile_union
