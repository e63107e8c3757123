import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractal_tiling_lab import curvature, grids, levelsets, pipeline, presets
from fractal_tiling_lab.curvature import (
    CurvatureSamples,
    direct_fractal_curvature,
    generator_curvature,
    inner_curvature_samples,
    relative_generator_curvature,
    sample_curvature,
)
from fractal_tiling_lab.contents import GAMMA_MIN
from fractal_tiling_lab.errors import ConfigError, PreconditionError
from fractal_tiling_lab.grids import (
    ConvexPolygon,
    PolygonUnion,
    distance_transform,
    grid_from_bbox,
    inradius,
    rasterize,
)
from fractal_tiling_lab.ifs import IFS
from fractal_tiling_lab.levelsets import euler_and_turning
from fractal_tiling_lab.presets import D_KOCH, translation_map
from fractal_tiling_lab.volumes import VolumeSamples, make_eps_grid, renewal_difference


def disk_field(delta=2.0**-9, bbox=([-2.0, -2.0], [2.0, 2.0])):
    g = grid_from_bbox(bbox, delta)
    occ = np.zeros(g.extents, bool)
    idx = g.indices_of(np.array([[0.0, 0.0]]))
    occ[idx[0, 0], idx[0, 1]] = True
    return distance_transform(g.with_occupancy(occ))


def axis_square(lo, hi):
    return ConvexPolygon(np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]], float))


class TestSampleCurvature:
    def test_disk_orders(self):
        f = disk_field()
        grid = make_eps_grid(2.0**-9, 1.0, 16)
        c0 = sample_curvature(f, 0, grid)
        c1 = sample_curvature(f, 1, grid)
        sel = grid.eps > 0.05
        assert np.allclose(c0.values[sel], 1.0, atol=0.02)
        # C_1 = half the boundary length = pi (r + eps-term); the obstacle is
        # one cell, so the disk radius is eps itself
        assert np.allclose(c1.values[sel], math.pi * grid.eps[sel], rtol=0.02)
        assert np.all(c1.values >= 0)
        assert np.all(c0.variation_values + 1e-12 >= np.abs(c0.values))

    def test_d1_endpoint_counting(self, cantor_bundle):
        b = cantor_bundle
        # C_0(F_eps) in d=1 counts components: at eps just below 1/6 the
        # parallel set is two intervals, above it one
        f = b.field_small
        grid = make_eps_grid(b.delta, 0.2, 16)
        c0 = sample_curvature(f, 0, grid)
        i_lo = int(np.argmin(np.abs(grid.eps - 0.12)))
        i_hi = int(np.argmin(np.abs(grid.eps - 0.19)))
        assert c0.values[i_lo] == 2.0
        assert c0.values[i_hi] == 1.0

    def test_gasket_gauss_bonnet_closure(self, gasket_bundle):
        b = gasket_bundle
        # the whole field's turning: the bundle's extractor sees only O's window
        ex = levelsets.LevelSetExtractor(b.field_small)
        for e in b.grid_curv.eps[::3]:
            chi, turning = euler_and_turning(b.field_small, float(e), extractor=ex)
            assert abs(turning - chi) <= 0.05


class TestGeneratorCurvature:
    def test_square_k0_exact_value(self):
        # eroded square keeps one core until eps = g; with the parallel-set
        # orientation each core counts -1, so the quadrature equals
        # -(1/eta) g^D / D up to the quadrature tolerance
        delta = 2.0**-11
        D, eta = math.log(8) / math.log(3), math.log(3)
        G = rasterize(axis_square(1 / 3, 2 / 3), ([0.30, 0.30], [0.70, 0.70]), delta)
        g = inradius(G)
        grid = make_eps_grid(delta, g * (1 - 1e-6), 64, math.log(3))
        c0 = inner_curvature_samples(G, 0, grid)
        assert np.allclose(c0.values, -1.0, atol=0.02)
        res = generator_curvature(c0, D, eta, 0, 2, g)
        exact = -(1 / eta) * g**D / D
        assert res.value == pytest.approx(exact, rel=1e-3)

    def test_square_k1_matches_offset_perimeter(self):
        delta = 2.0**-11
        D, eta = math.log(8) / math.log(3), math.log(3)
        G = rasterize(axis_square(1 / 3, 2 / 3), ([0.30, 0.30], [0.70, 0.70]), delta)
        g = inradius(G)
        grid = make_eps_grid(delta, g * (1 - 1e-6), 64, math.log(3))
        c1 = inner_curvature_samples(G, 1, grid)
        # C_1(G_-eps) = half the offset-square perimeter = 2(s - 2 eps)
        sel = grid.eps < 0.9 * g
        expected = 2 * (1 / 3 - 2 * grid.eps[sel])
        assert np.allclose(c1.values[sel], expected, atol=0.02)
        res = generator_curvature(c1, D, eta, 1, 2, g)
        # exact antiderivative of (1/eta) eps^(D-2) * 2(s - 2 eps)
        s = 1 / 3
        exact = (2 * s * g ** (D - 1) / (D - 1) - 4 * g**D / D) / eta
        assert res.value == pytest.approx(exact, rel=0.02)

    def test_empty_mask_is_zero(self, carpet_bundle):
        b = carpet_bundle
        mask = np.zeros(b.field_small.extents, bool)
        from fractal_tiling_lab.curvature import measure_profiles

        lengths, turns, _ = measure_profiles(b.field_small, b.grid_curv.eps[:4], mask, b.field_extractor)
        assert np.all(lengths == 0) and np.all(turns == 0)


class TestCompatibleCarpet:
    def test_generator_vs_relative_each_k(self, carpet_bundle):
        b = carpet_bundle
        dd = b.dim_data
        ch = b.checks()
        for k in (0, 1):
            gen = generator_curvature(
                b.generator_curvature_samples(k), dd.D, dd.eta, k, 2, b.g
            )
            rel = relative_generator_curvature(
                b.relative_curvature(k), dd.D, dd.eta, k, 2, b.g_tilde,
                checks=[ch["projection"], ch["boundary_null"]],
            )
            assert abs(rel.value - gen.value) / abs(gen.value) <= 0.05

    def test_k1_consistent_with_s_content(self, carpet_bundle):
        b = carpet_bundle
        dd = b.dim_data
        rel = relative_generator_curvature(b.relative_curvature(1), dd.D, dd.eta, 1, 2, b.g_tilde)
        sc = b.content("s_content")
        assert 2 * rel.value / (2 - dd.D) == pytest.approx(sc.value, rel=1e-9)
        assert sc.value == pytest.approx(b.content("generator_integral").value, rel=0.05)

    def test_direct_average_k1_approaches_renewal_value(self, carpet_bundle):
        # The O-localized scaled boundary measure converges to the renewal
        # value from below with an eps^(d-D) transient whose constant is
        # large; the Cesaro window mean therefore sits persistently below the
        # renewal value at raster resolutions. Assert the bracketing and the
        # transient decay rather than an unattainable 5% match.
        b = carpet_bundle
        dd = b.dim_data
        rel = relative_generator_curvature(b.relative_curvature(1), dd.D, dd.eta, 1, 2, b.g_tilde)
        samples = b.relative_curvature(1, region="O")
        _, avg_wide = direct_fractal_curvature(
            samples, dd.D, 1, window=(8 * b.delta, b.g_tilde / 3), lattice_base=b.lattice_base,
        )
        _, avg_low = direct_fractal_curvature(
            samples, dd.D, 1, window=(8 * b.delta, b.g_tilde / 9), lattice_base=b.lattice_base,
        )
        assert 0.6 * rel.value <= avg_wide.value <= 1.05 * rel.value
        # shrinking the window top must shrink the deficit
        assert abs(avg_low.value - rel.value) < abs(avg_wide.value - rel.value)

    def test_k0_stable_under_delta_halving(self, carpet_bundle, carpet_coarse_bundle):
        vals = []
        for b in (carpet_coarse_bundle, carpet_bundle):
            dd = b.dim_data
            vals.append(
                relative_generator_curvature(
                    b.relative_curvature(0), dd.D, dd.eta, 0, 2, b.g_tilde
                )
            )
        diff = abs(vals[0].value - vals[1].value)
        assert diff <= vals[0].error_estimate + vals[1].error_estimate

    def test_renewal_residual(self, carpet_bundle):
        b = carpet_bundle
        crit = np.array([b.g * (1 / 3) ** j for j in range(12)])
        for k, tol in ((1, 0.05), (0, 0.05)):
            Ts = tile_union_samples(b, k)
            Gs = b.generator_curvature_samples(k)
            resid = renewal_residual(Ts, b.ifs, b.grid_curv_G)
            eps = resid.eps
            regular = (
                (np.min(np.abs(eps[:, None] - crit[None, :]), axis=1) >= 6 * b.delta)
                & (eps >= 24 * b.delta)
                & (eps <= b.g)
            )
            num = np.abs(resid.values[regular] - Gs.values[regular])
            den = np.abs(Gs.values[regular])
            assert np.median(num / den) <= tol

    def test_scaling_identity_on_cores(self):
        # C_1((S_i G)_-eps) = r C_1(G_-eps/r) for the middle-square tile
        delta = 2.0**-11
        G = rasterize(axis_square(1 / 3, 2 / 3), ([0.30, 0.30], [0.70, 0.70]), delta)
        SG = rasterize(axis_square(1 / 9, 2 / 9), ([0.10, 0.10], [0.24, 0.24]), delta)
        grid_small = make_eps_grid(delta, inradius(SG), 24, math.log(3))
        c1_small = inner_curvature_samples(SG, 1, grid_small)
        for i in range(0, len(grid_small.eps), 5):
            eps = grid_small.eps[i]
            if 3 * eps >= inradius(G):
                continue
            big = rasterize(axis_square(1 / 3, 2 / 3), ([0.30, 0.30], [0.70, 0.70]), delta)
            from fractal_tiling_lab.grids import inner_distance

            big_len = levelsets.LevelSetExtractor(inner_distance(big)).measure(3 * eps)[0]
            assert c1_small.values[i] == pytest.approx((1 / 3) * 0.5 * big_len, rel=0.03, abs=0.01)


class TestKochCurvature:
    def test_k0_finite_and_convergent(self, koch_bundle):
        b = koch_bundle
        dd = b.dim_data
        ch = b.checks()
        res = relative_generator_curvature(
            b.relative_curvature(0), dd.D, dd.eta, 0, 2, b.g_tilde,
            checks=[ch["projection"], ch["boundary_null"]],
        )
        assert math.isfinite(res.value)
        assert res.error_estimate < max(1.0, abs(res.value))
        # sign is recorded, not asserted: signed curvatures may take either
        assert "k" in res.extra

    def test_k1_relates_to_relative_content(self, koch_bundle):
        b = koch_bundle
        dd = b.dim_data
        rel1 = relative_generator_curvature(b.relative_curvature(1), dd.D, dd.eta, 1, 2, b.g_tilde)
        content = b.content("relative_generator")
        assert 2 * rel1.value / (2 - dd.D) == pytest.approx(content.value, rel=0.05)


class TestDirectCurvature:
    def test_disk_k0_limit_is_one(self):
        f = disk_field()
        grid = make_eps_grid(2.0**-9, 1.0, 32)
        c0 = sample_curvature(f, 0, grid)
        limit, avg = direct_fractal_curvature(c0, 0.0, 0, window=(0.02, 0.9))
        assert limit.value == pytest.approx(1.0, abs=0.02)
        assert limit.error_estimate <= 0.02


class TestCbc:
    """The renewal hypothesis on the curvature variation: _variation_exponent_gate
    returns the fitted exponent when it passes and refuses otherwise."""

    def test_carpet_k1_passes(self, carpet_bundle):
        b = carpet_bundle
        slope = curvature._variation_exponent_gate(b.relative_curvature(1), b.dim_data.D, 1)
        assert slope >= 1 - b.dim_data.D + GAMMA_MIN

    def test_disk_passes(self):
        f = disk_field()
        grid = make_eps_grid(2.0**-9, 1.0, 32)
        for k in (0, 1):
            samples = sample_curvature(f, k, grid)
            assert curvature._variation_exponent_gate(samples, 1.0, k) >= k - 1.0 + GAMMA_MIN

    def test_fattened_comb_fails_volume_exponent(self):
        # square minus Cantor teeth: boundary dimension 1 + ln2/ln3 > D_koch
        from fractal_tiling_lab.contents import generator_content
        from fractal_tiling_lab.volumes import sample_inner_volume

        delta = 2.0**-10
        ivs = [(0.0, 1.0)]
        for _ in range(5):
            ivs = [seg for a, b in ivs for seg in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
        teeth = PolygonUnion(tuple(
            ConvexPolygon(np.array([[a, 0.0], [b, 0.0], [b, 0.55], [a, 0.55]])) for a, b in ivs
        ))
        sq = rasterize(axis_square(0.0, 1.0), ([-0.01, -0.01], [1.01, 1.01]), delta)
        tth = rasterize(teeth, ([-0.01, -0.01], [1.01, 1.01]), delta)
        comb = sq.with_occupancy(sq.occupancy & ~tth.occupancy)
        grid = make_eps_grid(delta, inradius(comb), 64)
        vg = sample_inner_volume(grids.inner_distance(comb), grid)
        with pytest.raises(PreconditionError):
            generator_content(vg, D_KOCH, math.log(3) / 2, 2, inradius(comb))

    def test_zero_variation_passes_with_sentinel(self, cantor_bundle):
        from fractal_tiling_lab.curvature import CurvatureSamples

        b = cantor_bundle
        samples = CurvatureSamples(
            b.grid_curv.eps, 0, np.zeros_like(b.grid_curv.eps),
            np.zeros_like(b.grid_curv.eps), b.delta,
        )
        assert curvature._variation_exponent_gate(samples, b.dim_data.D, 0) == math.inf


def fresh_bundle(name, delta):
    """A bundle of its own (not shared through get_bundle), so nothing is prebuilt."""
    return pipeline.SceneBundle(replace(presets.get_preset(name).scene, delta=delta))


def tile_union_samples(b, k):
    """C_k of the tile union's cores on grid_curv_G, which the renewal identity compares with G's."""
    return inner_curvature_samples(b.tiling.tile_union, k, b.grid_curv_G, "T_core")


def renewal_residual(samples, ifs, grid):
    """f(eps) - sum_i r_i^k f(eps / r_i) of C_k samples: volumes.renewal_difference at
    weight k, the variations as tolerances, cut off at the grid's top node (every core
    is gone past g, where the samples stop)."""
    as_volume = VolumeSamples(samples.eps, samples.values, samples.delta, tolerance=samples.variation_values)
    return renewal_difference(as_volume, ifs, float(grid.eps[-1]), grid, samples.k)


def assert_same_samples(a, b):
    assert (a.k, a.region_tag, a.delta) == (b.k, b.region_tag, b.delta)
    for name in ("eps", "values", "variation_values"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestProfilePath:
    """Every bundle C_k sample comes from one memoized profile per field and mask."""

    def test_each_order_pair_builds_field_extractor_and_profile_once(self, monkeypatch):
        b = fresh_bundle("carpet", 2.0**-7)
        b.grid_curv_G  # the tiling, which holds G's inner field, and the eps grid are not counted
        counts = {"inner_distance": 0, "extractor": 0, "profiles": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module in (pipeline, curvature):
            monkeypatch.setattr(module, "inner_distance", counting("inner_distance", grids.inner_distance))
        monkeypatch.setattr(
            levelsets.LevelSetExtractor, "__init__",
            counting("extractor", levelsets.LevelSetExtractor.__init__),
        )
        monkeypatch.setattr(curvature, "measure_profiles", counting("profiles", curvature.measure_profiles))
        b.generator_curvature_samples(0)
        b.generator_curvature_samples(1)
        # the cores read the tiling's G_inner: the pair builds no inner field of its own
        assert counts == {"inner_distance": 0, "extractor": 1, "profiles": 1}

    @pytest.mark.parametrize("name", ["carpet", "koch", "gasket"])
    def test_bundle_samples_equal_direct_samplers(self, name):
        b = fresh_bundle(name, 2.0**-7)
        field = b.field_small
        for k in (0, 1):
            for region, mask_grid in (("G", b.tiling.G), ("O", b.tiling.O)):
                mask = mask_grid.embed_into(field.origin, field.extents)
                assert_same_samples(
                    b.relative_curvature(k, region),
                    sample_curvature(field, k, b.grid_curv, mask, region),
                )
            assert_same_samples(
                b.generator_curvature_samples(k),
                inner_curvature_samples(b.tiling.G.cropped(4), k, b.grid_curv_G, "G_core"),
            )

    @pytest.mark.parametrize("name", ["carpet", "gasket"])
    def test_shared_pass_equals_one_pass_per_mask(self, name):
        """One extraction per threshold for G and O gives, to the bit, the
        profiles of one measure_profiles call per mask."""
        b = fresh_bundle(name, 2.0**-8)
        field, eps = b.field_small, b.grid_curv.eps
        masks = [m.embed_into(field.origin, field.extents) for m in (b.tiling.G, b.tiling.O)]
        shared = curvature.measure_mask_profiles(field, eps, masks, b.field_extractor)
        for mask, got in zip(masks, shared, strict=True):
            want = curvature.measure_profiles(field, eps, mask)
            for a, w in zip(got, want, strict=True):
                assert a.tobytes() == w.tobytes()
        for region, got in zip(("G", "O"), shared):
            assert b.relative_curvature(1, region).values.tobytes() == (0.5 * got[0]).tobytes()

    def test_unknown_region_refused(self):
        b = fresh_bundle("carpet", 2.0**-7)
        with pytest.raises(ConfigError, match="curvature region must be G or O"):
            b.relative_curvature(0, "Gamma")

    def test_out_of_range_order_refused_before_any_build(self):
        b = fresh_bundle("carpet", 2.0**-7)
        entries = (
            lambda k: b.relative_curvature(k),
            lambda k: b.relative_curvature(k, "O"),
            b.generator_curvature_samples,
        )
        for k in (-1, 2):
            for entry in entries:
                with pytest.raises(ConfigError, match=rf"^curvature order k={k} out of range for d=2$"):
                    entry(k)
        assert b._cache == {}

    def test_d1_out_of_range_order_refused(self, cantor_bundle):
        b = cantor_bundle
        for entry in (b.relative_curvature, b.generator_curvature_samples):
            with pytest.raises(ConfigError, match=r"^curvature order k=1 out of range for d=1$"):
                entry(1)

    def test_d1_relative_samples_read_the_memoized_profile(self):
        b = fresh_bundle("cantor", 2.0**-10)
        field = b.field_small
        for region, mask_grid in (("G", b.tiling.G), ("O", b.tiling.O)):
            mask = mask_grid.embed_into(field.origin, field.extents)
            assert_same_samples(
                b.relative_curvature(0, region),
                sample_curvature(field, 0, b.grid_curv, mask, region),
            )
            assert ("profile", region) in b._cache

    def test_d1_parallel_set_touching_the_field_border_refused(self):
        b = fresh_bundle("cantor", 2.0**-10)
        field, g_tilde = b._small_field
        # a field cropped to F_tight's box: the top eps reaches its border
        sel = b.field_small.lattice_slice(b.F_tight)
        cropped = grids.DistanceField(b.F_tight.origin, field.spacing, field.values[sel])
        b._cache["_small_field"] = (cropped, g_tilde)
        with pytest.raises(ConfigError, match="1d parallel set touches the grid boundary"):
            b.relative_curvature(0)


def reference_renewal_difference(samples, ifs, grid):
    """(values, tolerance) of the residual by one index shift per map; lookups past the last sample read 0."""
    n = samples.eps.size
    values = samples.values.copy()
    var = samples.variation_values.copy()
    vals0 = np.append(samples.values, 0.0)
    var0 = np.append(samples.variation_values, 0.0)
    for m in ifs.maps:
        shift = grid.shift_for_ratio(m.ratio)
        assert shift is not None
        idx = np.minimum(np.arange(n) + shift, n)
        w = m.ratio**samples.k
        values = values - w * vals0[idx]
        var = var + w * var0[idx]
    return values, var


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestRenewalDifference:
    """Lookups f(eps / r_i) past the last sample read 0: every core is gone past g."""

    def test_cantor_residual_is_the_generator_at_regular_eps(self):
        b = fresh_bundle("cantor", 2.0**-12)
        resid = renewal_residual(tile_union_samples(b, 0), b.ifs, b.grid_curv_G)
        Gs = b.generator_curvature_samples(0)
        crit = np.array([b.g * 3.0**-j for j in range(14)])
        eps = resid.eps
        regular = (np.min(np.abs(eps[:, None] - crit[None, :]), axis=1) >= 6 * b.delta) & (
            eps >= 24 * b.delta
        )
        assert regular[eps > b.g / 3].any()
        assert np.array_equal(resid.values[regular], Gs.values[regular])

    def test_carpet_k0_residual_is_minus_one_in_the_top_third(self):
        b = pipeline.get_bundle("carpet", delta=2.0**-9)
        resid = renewal_residual(tile_union_samples(b, 0), b.ifs, b.grid_curv_G)
        top = (resid.eps > b.g / 3) & (resid.eps <= b.g)
        assert top.sum() >= 8
        assert np.all(resid.values[top] == -1.0)

    # volumes.renewal_difference at weight k, cut off at the top node: the
    # index-shift loop's values and tolerances, bit for bit
    @pytest.mark.parametrize("name,delta,k", [
        ("cantor", 2.0**-12, 0),
        ("cantor_pair", None, 0),
        ("carpet", 2.0**-9, 0),
        ("carpet", 2.0**-9, 1),
        ("gasket", None, 0),
        ("gasket", None, 1),
    ])
    def test_presets(self, name, delta, k):
        b = pipeline.get_bundle(name, delta=delta)
        Ts = tile_union_samples(b, k)
        resid = renewal_residual(Ts, b.ifs, b.grid_curv_G)
        values, var = reference_renewal_difference(Ts, b.ifs, b.grid_curv_G)
        assert not resid.interpolated
        assert_bit_equal(resid.values, values)
        assert_bit_equal(resid.tolerance, var)
        assert_bit_equal(resid.eps, b.grid_curv_G.eps)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(0.1, 2.5),
        powers=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        per_decade=st.integers(8, 64),
        top=st.floats(0.05, 2.0),
        k=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_lattice_grids(self, base, powers, per_decade, top, k, seed):
        grid = make_eps_grid(top * 1e-3, top, per_decade, lattice_base=base)
        ifs = IFS(tuple(translation_map(math.exp(-j * base), [0.0]) for j in powers), 1)
        rng = np.random.default_rng(seed)
        n = grid.eps.size
        values = rng.normal(size=n) * rng.integers(0, 2, n)
        values[rng.random(n) < 0.2] = -0.0
        variation = np.abs(values) + rng.exponential(size=n) * rng.integers(0, 2, n)
        samples = CurvatureSamples(grid.eps, k, values, variation, 1e-3 * top)
        resid = renewal_residual(samples, ifs, grid)
        ref_values, ref_var = reference_renewal_difference(samples, ifs, grid)
        assert not resid.interpolated
        assert_bit_equal(resid.values, ref_values)
        assert_bit_equal(resid.tolerance, ref_var)

    def test_off_lattice_grid_interpolated(self):
        # the ratio 1/2 is off the log(3) lattice: f(eps / r) is interpolated, not read at a node
        grid = make_eps_grid(1e-3, 0.5, 32, lattice_base=math.log(3))
        ifs = IFS((translation_map(1 / 3, [0.0]), translation_map(0.5, [0.5])), 1)
        samples = CurvatureSamples(grid.eps, 0, np.ones(grid.eps.size), np.ones(grid.eps.size), 1e-3)
        assert renewal_residual(samples, ifs, grid).interpolated
