import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fractal_tiling_lab as ftl
from fractal_tiling_lab.contents import (
    MonophaseData,
    PluriphaseData,
    direct_content,
    generator_content,
    monophase_content,
    pluriphase_content,
    power_head,
    relative_generator_content,
)
from fractal_tiling_lab.errors import ConfigError, PreconditionError
from fractal_tiling_lab.grids import ConvexPolygon, PolygonUnion, distance_transform, grid_from_bbox, inner_distance, inradius, rasterize
from fractal_tiling_lab.presets import (
    CANTOR_CONTENT_CLOSED_FORM,
    D_CARPET,
)
from fractal_tiling_lab.curvature import CurvatureSamples, direct_fractal_curvature
from fractal_tiling_lab.volumes import (
    VolumeSamples, make_eps_grid, sample_inner_volume, sample_parallel_volume,
)
from fractal_tiling_lab.conditions import CheckReport


def axis_square(lo, hi):
    return ConvexPolygon(np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]], float))


def region_generator_content(region, delta, D, eta, d, lattice_base, bbox):
    G = rasterize(region, bbox, delta)
    g = inradius(G)
    grid = make_eps_grid(delta, g, 64, lattice_base)
    vg = sample_inner_volume(inner_distance(G), grid)
    return generator_content(vg, D, eta, d, g)


LN3 = math.log(3)


class TestCantorClosedForm:
    def test_generator_quadrature_vs_antiderivative(self, cantor_bundle):
        res = cantor_bundle.content("generator_integral")
        assert res.value == pytest.approx(CANTOR_CONTENT_CLOSED_FORM, rel=0.005)

    def test_h_route_agrees(self, cantor_bundle):
        gen = cantor_bundle.content("generator_integral")
        via_h = cantor_bundle.content("tiling_via_h")
        assert via_h.value == pytest.approx(gen.value, rel=0.01)

    def test_relative_generator_agrees(self, cantor_bundle):
        rel = cantor_bundle.content("relative_generator")
        assert rel.value == pytest.approx(CANTOR_CONTENT_CLOSED_FORM, rel=0.01)

    def test_gatzouras_vs_direct_average(self, cantor_bundle):
        gz = cantor_bundle.content("gatzouras")
        da = cantor_bundle.content("direct_average")
        assert gz.value == pytest.approx(da.value, rel=0.03)

    def test_lattice_band_reported(self, cantor_bundle):
        dl = cantor_bundle.content("direct_limit")
        band = dl.extra["band"]
        assert band[1] > band[0] > 0
        assert "lattice" in dl.extra["note"]
        # true scaled volume oscillates within ~[2.49, 2.58]
        assert band[0] == pytest.approx(2.49, abs=0.05)
        assert band[1] == pytest.approx(2.58, abs=0.05)


class TestMonophase:
    def test_carpet_middle_square_consistency(self, carpet_bundle):
        b = carpet_bundle
        dd = b.dim_data
        mono = monophase_content(MonophaseData((-4.0, 4 / 3), 1 / 6), dd.D, dd.eta, 2)
        quad = region_generator_content(
            axis_square(1 / 3, 2 / 3), b.delta, dd.D, dd.eta, 2, dd.lattice_base,
            ([1 / 3 - 0.01, 1 / 3 - 0.01], [2 / 3 + 0.01, 2 / 3 + 0.01]),
        )
        assert abs(quad.value - mono.value) / mono.value <= 1e-3

    def test_d1_interval_reduces_to_cantor_closed_form(self):
        # G = interval of length 1/3: kappa_0 = 2, g = 1/6
        D = math.log(2) / math.log(3)
        mono = monophase_content(MonophaseData((2.0,), 1 / 6), D, LN3, 1)
        assert mono.value == pytest.approx(CANTOR_CONTENT_CLOSED_FORM, rel=1e-12)

    def test_requires_D_in_band(self):
        with pytest.raises(PreconditionError):
            monophase_content(MonophaseData((-4.0, 4 / 3), 1 / 6), 0.9, LN3, 2)

    def test_leading_coefficient_positive(self):
        with pytest.raises(ConfigError):
            monophase_content(MonophaseData((4.0, -1.0), 1 / 6), D_CARPET, LN3, 2)


class TestPluriphase:
    def test_m1_reduces_to_monophase_exactly(self):
        mono = monophase_content(MonophaseData((-4.0, 4 / 3), 1 / 6), D_CARPET, LN3, 2)
        pluri = pluriphase_content(
            PluriphaseData((1 / 6,), np.array([[-4.0, 4 / 3, 0.0]])), D_CARPET, LN3, 2
        )
        assert pluri.value == pytest.approx(mono.value, rel=1e-12)

    def test_two_disjoint_squares_vs_quadrature_and_sum(self, carpet_bundle):
        b = carpet_bundle
        dd = b.dim_data
        a_side, b_side = 1 / 3, 1 / 6
        # V = 4(a+b)eps - 8 eps^2 until b/2, then b^2 + 4a eps - 4 eps^2
        data = PluriphaseData(
            (b_side / 2, a_side / 2),
            np.array([
                [-8.0, 4 * (a_side + b_side), 0.0],
                [-4.0, 4 * a_side, b_side**2],
            ]),
        )
        pluri = pluriphase_content(data, dd.D, dd.eta, 2)
        # independent oracle: contents add over disjoint components
        mono_sum = (
            monophase_content(MonophaseData((-4.0, 4 * a_side), a_side / 2), dd.D, dd.eta, 2).value
            + monophase_content(MonophaseData((-4.0, 4 * b_side), b_side / 2), dd.D, dd.eta, 2).value
        )
        assert pluri.value == pytest.approx(mono_sum, rel=1e-12)
        region = PolygonUnion((axis_square(0.0, a_side), axis_square(0.5, 0.5 + b_side)))
        quad = region_generator_content(
            region, 2.0**-11, dd.D, dd.eta, 2, dd.lattice_base,
            ([-0.01, -0.01], [0.75, 0.75]),
        )
        assert abs(quad.value - pluri.value) / pluri.value <= 2e-3

    def test_zero_coefficients_give_zero(self):
        data = PluriphaseData((0.1, 0.2), np.zeros((2, 3)))
        assert pluriphase_content(data, D_CARPET, LN3, 2).value == 0.0

    def test_breakpoint_order_enforced(self):
        with pytest.raises(ConfigError):
            PluriphaseData((0.2, 0.1), np.zeros((2, 3))).validate(2)

    def test_continuity_enforced(self):
        data = PluriphaseData(
            (0.1, 0.2),
            np.array([[1.0, 1.0, 0.0], [5.0, 1.0, 0.0]]),
        )
        with pytest.raises(ConfigError):
            data.validate(2)


class TestCarpetCrossMethods:
    def test_four_way_agreement(self, carpet_bundle):
        b = carpet_bundle
        vals = [
            b.content("generator_integral").value,
            b.content("gatzouras").value,
            b.content("relative_generator").value,
            b.content("direct_average").value,
        ]
        hi, lo = max(vals), min(vals)
        assert 2 * (hi - lo) / (hi + lo) <= 0.03

    def test_positivity(self, carpet_bundle, cantor_bundle, koch_bundle):
        for bundle, method in (
            (carpet_bundle, "generator_integral"),
            (carpet_bundle, "gatzouras"),
            (cantor_bundle, "relative_generator"),
            (koch_bundle, "relative_generator"),
        ):
            assert bundle.content(method).value > 0

    def test_quadrature_convergence_within_error(self, carpet_bundle):
        b = carpet_bundle
        dd = b.dim_data
        res = b.content("generator_integral")
        # re-run the quadrature at doubled sample density
        g = inradius(b.tiling.G)
        grid2 = make_eps_grid(b.delta, g, 128, dd.lattice_base)
        vg2 = sample_inner_volume(inner_distance(b.tiling.G), grid2)
        res2 = generator_content(vg2, dd.D, dd.eta, 2, g)
        assert abs(res2.value - res.value) <= max(res.error_estimate, 1e-6)


class TestExampleScRatio:
    def test_ratio_is_one_eighth(self, carpet_bundle):
        # the smaller tiling's generator is a 1/3-scale copy, so the content
        # ratio is (1/3)^D = 1/8 by D-homogeneity of the generator integral
        b = carpet_bundle
        dd = b.dim_data
        big = region_generator_content(
            axis_square(1 / 3, 2 / 3), b.delta, dd.D, dd.eta, 2, dd.lattice_base,
            ([1 / 3 - 0.01, 1 / 3 - 0.01], [2 / 3 + 0.01, 2 / 3 + 0.01]),
        )
        small = region_generator_content(
            axis_square(1 / 9, 2 / 9), b.delta, dd.D, dd.eta, 2, dd.lattice_base,
            ([1 / 9 - 0.01, 1 / 9 - 0.01], [2 / 9 + 0.01, 2 / 9 + 0.01]),
        )
        assert small.value / big.value == pytest.approx((1 / 3) ** dd.D, rel=0.01)
        assert (1 / 3) ** dd.D == pytest.approx(1 / 8, rel=1e-12)

    def test_scaling_covariance_at_2(self, cantor_bundle):
        # scaling the whole configuration by c multiplies contents by c^D
        b = cantor_bundle
        dd = b.dim_data
        delta = 2.0**-14
        base = region_generator_content(
            ftl.IntervalUnion(((1 / 3, 2 / 3),)), delta, dd.D, dd.eta, 1, dd.lattice_base,
            ([1 / 3 - 0.01], [2 / 3 + 0.01]),
        )
        doubled = region_generator_content(
            ftl.IntervalUnion(((2 / 3, 4 / 3),)), 2 * delta, dd.D, dd.eta, 1, dd.lattice_base,
            ([2 / 3 - 0.02], [4 / 3 + 0.02]),
        )
        assert doubled.value / base.value == pytest.approx(2.0**dd.D, rel=0.01)


class TestKoch:
    def test_relative_vs_direct_average(self, koch_bundle):
        rel = koch_bundle.content("relative_generator")
        da = koch_bundle.content("direct_average")
        assert abs(rel.value - da.value) / da.value <= 0.05

    def test_gatzouras_agrees(self, koch_bundle):
        gz = koch_bundle.content("gatzouras")
        rel = koch_bundle.content("relative_generator")
        assert abs(gz.value - rel.value) / rel.value <= 0.05

    def test_s_content_agrees(self, koch_bundle):
        sc = koch_bundle.content("s_content")
        rel = koch_bundle.content("relative_generator")
        assert abs(sc.value - rel.value) / rel.value <= 0.05


class TestRefusals:
    def test_relative_refuses_on_failed_check(self, cantor_bundle):
        b = cantor_bundle
        bad = CheckReport("strong", "fail", b.delta, {"reason": "fixture"})
        with pytest.raises(PreconditionError):
            relative_generator_content(
                b.F_on_Gamma, b.dim_data.D, b.dim_data.eta, 1, b.g_tilde,
                b.tiling.Gamma.area(), checks=[bad],
            )

    def test_generator_content_rejects_full_dimension(self, cantor_bundle):
        b = cantor_bundle
        with pytest.raises(PreconditionError):
            generator_content(b.V_G, 1.0, LN3, 1, b.g)


class TestPowerHead:
    """power_head integrates eps^p times the power fit of vals from 0 to eps[0]."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(1e-2, 1e2),
        b=st.floats(-0.9, 3.0),
        p=st.floats(-3.0, 0.5),
        eps0=st.floats(1e-5, 1e-2),
        decades=st.sampled_from([1.0, 1.5]),
    )
    def test_exact_power_law(self, a, b, p, eps0, decades):
        q = p + b + 1.0
        assume(q > 0.01)
        eps = eps0 * np.logspace(0, 2, 129)
        head = power_head(eps, a * eps**b, p, decades)
        assert head == pytest.approx(a * eps0**q / q, rel=1e-12)

    @pytest.mark.parametrize("b,p", [(0.5, -2.0), (0.2, -1.5), (-0.5, -0.6), (1.0, -3.0)])
    def test_divergent_head_is_zero(self, b, p):
        eps = 1e-3 * np.logspace(0, 2, 129)
        assert power_head(eps, 2.0 * eps**b, p) == 0.0

    @pytest.mark.parametrize("positive", [0, 1, 3])
    def test_fewer_than_four_positive_points_is_zero(self, positive):
        eps = 1e-3 * np.logspace(0, 2, 129)
        vals = np.zeros_like(eps)
        vals[1 : 1 + positive] = 1.0
        vals[eps > 1e-2] = 1.0  # above the fitted decade: not counted
        assert power_head(eps, vals, -0.5) == 0.0


class TestDirectContent:
    def test_smooth_segment_limit(self):
        # unit segment in the plane: lambda(A_eps) ~ 2 eps L, limit = 2 L
        delta = 2.0**-11
        g = grid_from_bbox(([-0.2, -0.2], [1.2, 0.2]), delta)
        xs = g.centers(0)
        occ = np.zeros(g.extents, bool)
        j0 = g.indices_of(np.array([[0.0, 0.0]]))[0, 1]
        occ[(xs >= 0) & (xs <= 1), j0] = True
        f = distance_transform(g.with_occupancy(occ))
        grid = make_eps_grid(delta, 0.15, 64)
        samples = sample_parallel_volume(f, grid)
        limit, average = direct_content(samples, 1.0, 2, window=(4 * delta, 0.0625))
        assert limit.value == pytest.approx(2.0, rel=0.05)
        assert average.value == pytest.approx(2.0, rel=0.05)

    def test_window_must_span_decades(self, cantor_bundle):
        with pytest.raises(PreconditionError, match="under 1.5"):
            direct_content(cantor_bundle.F_on_O, cantor_bundle.dim_data.D, 1, window=(0.01, 0.05))

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(0.05, 3.0),
        ppd=st.integers(4, 128),
        lo_frac=st.floats(0.0, 1.0),
        decades=st.floats(1.5, 4.0),
    )
    def test_whole_period_cut_spans_an_e_fold(self, base, ppd, lo_frac, decades):
        # A window of >= 1.5 decades holding >= 16 nodes spans over 3 e-folds
        # of nodes, so its whole-period cut (or, below 16 cut nodes, the
        # uncut window) always spans at least one e-fold.
        grid = make_eps_grid(2.0**-12, 1.0, ppd, base)
        top = math.log10(grid.eps[-1] / grid.eps[0])
        assume(top >= decades)
        lo = grid.eps[0] * 10.0 ** (lo_frac * (top - decades))
        hi = lo * 10.0**decades * (1 + 1e-12)
        nodes = grid.eps[(grid.eps >= lo) & (grid.eps <= hi)]
        assume(nodes.size >= 16)
        samples = VolumeSamples(grid.eps, np.ones_like(grid.eps), 2.0**-12)
        _, average = direct_content(samples, 0.5, 1, window=(lo, hi), lattice_base=base)
        used = average.extra["window"]
        span = math.log(used[1] / used[0])
        assert span >= 1.0 - 1e-9
        if used != (nodes[0], nodes[-1]):
            assert span / base == pytest.approx(round(span / base), abs=1e-6)

    def test_whole_period_cut_keeps_an_exact_multiple(self):
        # nodes 7 .. 31 of this grid span exactly 3 periods (24 steps of
        # base / 8), but the float quotient of their log span by the base
        # is just under 3; the cut must keep all three periods
        base = 1.9656
        grid = make_eps_grid(2.0**-20, 1.0, 9, base)
        assert round(base / grid.log_step) == 8
        lo, hi = grid.eps[7], grid.eps[31]
        assert math.log(hi / lo) / base < 3
        samples = VolumeSamples(grid.eps, np.ones_like(grid.eps), 2.0**-20)
        _, average = direct_content(samples, 0.5, 1, window=(lo, hi), lattice_base=base)
        assert average.extra["window"] == (lo, hi)

    @pytest.mark.parametrize("base", [None, math.log(3)])
    def test_curvature_estimator_is_the_content_estimator(self, base):
        # the content is the order-d scaled limit: with zero tolerance the
        # curvature estimator at k = d returns the same rows
        grid = make_eps_grid(2.0**-10, 0.5, 32, base)
        eps, D = grid.eps, 1.6
        vals = eps ** (2 - D) * (1.0 + 0.2 * np.sin(2 * math.pi * np.log(eps) / math.log(3)))
        volume = VolumeSamples(eps, vals, 2.0**-10)
        curv = CurvatureSamples(eps, 2, vals, vals, 2.0**-10)
        window = (8 * 2.0**-10, 0.4)
        rows_c = direct_content(volume, D, 2, window, lattice_base=base)
        rows_k = direct_fractal_curvature(curv, D, 2, window, lattice_base=base)
        for c, k in zip(rows_c, rows_k):
            assert (c.value, c.error_estimate, c.method) == (k.value, k.error_estimate, k.method)
            assert c.extra["window"] == k.extra["window"]
            assert c.extra.get("band") == k.extra.get("band")
