"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 asserts the stated 3/8 ratio verbatim and fails: the value is
arithmetically inconsistent (the worked example it quotes drops a Jacobian
factor; the correct ratio is (1/3)^D = 1/8, confirmed by three independent
derivations and pinned by the companion test). See the decisions ledger.
"""

import math
import time

import numpy as np
from scipy import ndimage

import fractal_tiling_lab as ftl
from fractal_tiling_lab.contents import MonophaseData, PluriphaseData, monophase_content, pluriphase_content, generator_content
from fractal_tiling_lab.curvature import inner_curvature_samples, relative_generator_curvature
from fractal_tiling_lab.errors import PreconditionError
from fractal_tiling_lab.grids import (
    ConvexPolygon,
    PolygonUnion,
    distance_transform,
    grid_from_bbox,
    inner_distance,
    inradius,
    parallel_volume,
    rasterize,
)
from fractal_tiling_lab.ifs import words_up_to_ratio
from fractal_tiling_lab.levelsets import LevelSetExtractor, euler_and_turning
from fractal_tiling_lab.presets import CANTOR_CONTENT_CLOSED_FORM, D_KOCH, carpet_ifs
from fractal_tiling_lab.tiling import attractor_raster, rasterize_tiles
from fractal_tiling_lab.volumes import VolumeSamples, make_eps_grid, renewal_difference, sample_inner_volume
from fractal_tiling_lab.conditions import check_strong

RESULTS = []


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print("\n" + line)
    return ok


def axis_square(lo, hi):
    return ConvexPolygon(np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]], float))


def region_content(bundle, lo, hi):
    dd = bundle.dim_data
    pad = 0.01
    G = rasterize(axis_square(lo, hi), ([lo - pad, lo - pad], [hi + pad, hi + pad]), bundle.delta)
    g = inradius(G)
    grid = make_eps_grid(bundle.delta, g, 64, dd.lattice_base)
    vg = sample_inner_volume(inner_distance(G), grid)
    return generator_content(vg, dd.D, dd.eta, 2, g)


def test_criterion_01_dimension_solver():
    ifs_carpet = carpet_ifs()
    from fractal_tiling_lab.presets import cantor_ifs

    ifs_cantor = cantor_ifs()
    ftl.similarity_dimension(ifs_carpet)  # warm up
    t0 = time.perf_counter()
    d_carpet = ftl.similarity_dimension(ifs_carpet)
    dt1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    d_cantor = ftl.similarity_dimension(ifs_cantor)
    dt2 = time.perf_counter() - t0
    err = max(
        abs(d_carpet - math.log(8) / math.log(3)),
        abs(d_cantor - math.log(2) / math.log(3)),
        abs(ftl.eta(ifs_carpet, d_carpet) - math.log(3)),
        abs(ftl.eta(ifs_cantor, d_cantor) - math.log(3)),
    )
    ok = err <= 1e-10 and max(dt1, dt2) < 1e-3
    assert report(1, ok, f"dimension/eta max error {err:.2e}, solve time {max(dt1, dt2) * 1e6:.0f} us")


def test_criterion_02_example_ratio_as_stated(carpet_bundle):
    # stated value 3/8: inconsistent with the quoted example's own formulas
    # (Jacobian slip); the honest computation gives (1/3)^D = 1/8. This test
    # implements the criterion verbatim and is expected to fail; see the
    # companion test and the decisions ledger.
    t0 = time.perf_counter()
    big = region_content(carpet_bundle, 1 / 3, 2 / 3)
    small = region_content(carpet_bundle, 1 / 9, 2 / 9)
    elapsed = time.perf_counter() - t0
    ratio = small.value / big.value
    ok = abs(ratio - 3 / 8) / (3 / 8) <= 0.01 and elapsed < 120
    report(2, ok, f"tiling content ratio {ratio:.5f} vs stated 3/8 (true value is (1/3)^D = 1/8); {elapsed:.0f}s")
    assert ok, (
        f"ratio {ratio:.5f} != 3/8: the stated constant contradicts the quoted "
        "derivation (dropped Jacobian); correct value (1/3)^D = 1/8 is pinned "
        "by the companion test"
    )


def test_criterion_02_companion_corrected_ratio(carpet_bundle):
    big = region_content(carpet_bundle, 1 / 3, 2 / 3)
    small = region_content(carpet_bundle, 1 / 9, 2 / 9)
    ratio = small.value / big.value
    expected = (1 / 3) ** carpet_bundle.dim_data.D
    ok = abs(ratio - expected) / expected <= 0.01
    assert report("2c", ok, f"corrected ratio {ratio:.5f} vs (1/3)^D = {expected:.5f}")


def test_criterion_03_monophase_consistency(carpet_bundle):
    dd = carpet_bundle.dim_data
    mono = monophase_content(MonophaseData((-4.0, 4 / 3), 1 / 6), dd.D, dd.eta, 2)
    quad = region_content(carpet_bundle, 1 / 3, 2 / 3)
    rel = abs(quad.value - mono.value) / mono.value
    pluri = pluriphase_content(
        PluriphaseData((1 / 6,), np.array([[-4.0, 4 / 3, 0.0]])), dd.D, dd.eta, 2
    )
    alg = abs(pluri.value - mono.value) / mono.value
    ok = rel <= 1e-3 and alg <= 1e-12
    assert report(3, ok, f"monophase vs quadrature rel {rel:.2e}; pluriphase m=1 identity {alg:.2e}")


def test_criterion_04_compatible_agreement(carpet_bundle):
    b = carpet_bundle
    vals = {
        "direct_average": b.content("direct_average").value,
        "gatzouras": b.content("gatzouras").value,
        "generator_integral": b.content("generator_integral").value,
        "relative_generator": b.content("relative_generator").value,
    }
    hi, lo = max(vals.values()), min(vals.values())
    spread = 2 * (hi - lo) / (hi + lo)
    ok = spread <= 0.03
    assert report(4, ok, f"carpet 4-way values {vals}; max pairwise rel {spread:.4f}")


def test_criterion_05_koch_non_compatible(koch_bundle):
    b = koch_bundle
    checks = b.checks()
    rel = b.content("relative_generator")
    da = b.content("direct_average")
    agree = abs(rel.value - da.value) / da.value
    ok = (
        checks["projection"].verdict == "pass"
        and checks["compatible"].verdict == "fail"
        and agree <= 0.05
    )
    assert report(
        5,
        ok,
        f"koch PC={checks['projection'].verdict}, compatible={checks['compatible'].verdict} "
        f"(must fail), relative {rel.value:.4f} vs direct {da.value:.4f} (rel {agree:.4f})",
    )


def test_criterion_06_cantor_closed_form(cantor_bundle):
    b = cantor_bundle
    gen = b.content("generator_integral")
    rel_err = abs(gen.value - CANTOR_CONTENT_CLOSED_FORM) / CANTOR_CONTENT_CLOSED_FORM
    dl = b.content("direct_limit")
    band = dl.extra["band"]
    width = band[1] - band[0]
    qerr = gen.extra["quadrature_error"]
    ok = rel_err <= 0.005 and width > 3 * qerr
    assert report(
        6, ok,
        f"generator {gen.value:.5f} vs closed form {CANTOR_CONTENT_CLOSED_FORM:.5f} "
        f"(rel {rel_err:.2e}); oscillation band width {width:.4f} > 3x quadrature error {3 * qerr:.2e}",
    )


def test_criterion_07_renewal_residuals(cantor_bundle, carpet_bundle, koch_bundle, gasket_bundle):
    worst = 0.0
    for b in (cantor_bundle, carpet_bundle, koch_bundle, gasket_bundle):
        h, vg = b.h, b.V_G
        rmin = float(b.ifs.ratios.min())
        sel = (h.eps <= rmin * b.g * 0.999) & (h.eps >= 8 * b.delta)
        if not sel.any():
            continue
        resid = np.abs(h.values[sel] - vg.values[sel])
        tol = 3 * np.maximum(h.tolerance[sel], 4 * b.delta**b.d)
        worst = max(worst, float(np.max(resid / tol)))
    vol_ok = worst <= 1.0

    b = carpet_bundle
    crit = np.array([b.g * (1 / 3) ** j for j in range(12)])
    medians = {}
    for k in (0, 1):
        Ts = inner_curvature_samples(b.tiling.tile_union, k, b.grid_curv_G, "T_core")
        Gs = b.generator_curvature_samples(k)
        # f(eps) - sum_i r_i^k f(eps / r_i), the variations as tolerances, cut off at the top node
        as_volume = VolumeSamples(Ts.eps, Ts.values, Ts.delta, tolerance=Ts.variation_values)
        resid = renewal_difference(as_volume, b.ifs, float(b.grid_curv_G.eps[-1]), b.grid_curv_G, k)
        eps = resid.eps
        regular = (
            (np.min(np.abs(eps[:, None] - crit[None, :]), axis=1) >= 6 * b.delta)
            & (eps >= 24 * b.delta)
            & (eps <= b.g)
        )
        num = np.abs(resid.values[regular] - Gs.values[regular])
        den = np.abs(Gs.values[regular])
        medians[k] = float(np.median(num / den))
    curv_ok = medians[1] <= 0.05 and medians[0] <= 0.05
    ok = vol_ok and curv_ok
    assert report(
        7, ok,
        f"tube renewal residual max {worst:.2f}x of 3x tolerance (<=1 required); "
        f"carpet curvature renewal median rel residual k=1 {medians[1]:.4f}, k=0 {medians[0]:.4f}",
    )


def test_criterion_08_curvature_pipeline(gasket_bundle, carpet_bundle, carpet_coarse_bundle):
    g = gasket_bundle
    # the whole field's turning: the bundle's extractor sees only O's window
    whole = LevelSetExtractor(g.field_small)
    whole.index(g.grid_curv.eps)
    worst = 0.0
    for e in g.grid_curv.eps:
        chi, turning = euler_and_turning(g.field_small, float(e), extractor=whole)
        worst = max(worst, abs(turning - chi))
    closure_ok = worst <= 0.05

    b = carpet_bundle
    dd = b.dim_data
    rel1 = relative_generator_curvature(b.relative_curvature(1), dd.D, dd.eta, 1, 2, b.g_tilde)
    sc = b.content("s_content")
    s_rel = abs(2 * rel1.value / (2 - dd.D) - sc.value) / sc.value
    s_ok = s_rel <= 0.05

    vals = []
    for bb in (carpet_coarse_bundle, carpet_bundle):
        dd2 = bb.dim_data
        vals.append(relative_generator_curvature(bb.relative_curvature(0), dd2.D, dd2.eta, 0, 2, bb.g_tilde))
    diff = abs(vals[0].value - vals[1].value)
    stab_ok = diff <= vals[0].error_estimate + vals[1].error_estimate
    ok = closure_ok and s_ok and stab_ok
    assert report(
        8, ok,
        f"gasket Gauss-Bonnet worst |turning-chi| {worst:.2e} (<=0.05); carpet k=1 vs "
        f"s-content rel {s_rel:.4f} (<=0.05); carpet k=0 halving diff {diff:.2e} within "
        f"bars {vals[0].error_estimate + vals[1].error_estimate:.2e}",
    )


def test_criterion_09_condition_checks(carpet_bundle):
    b = carpet_bundle
    checks = b.checks()
    carpet_ok = all(checks[n].verdict == "pass" for n in ("osc", "strong", "compatible", "projection"))

    # O' from the shifted generator misses the attractor: strong must fail
    delta = 2.0**-10
    ifs = carpet_ifs()
    Gp = rasterize(axis_square(1 / 9, 2 / 9), ([0.0, 0.0], [1.0, 1.0]), delta)
    occ = rasterize_tiles(ifs, words_up_to_ratio(ifs, 4 * delta / math.sqrt(2)), Gp, Gp)
    Oprime = Gp.with_occupancy(occ)
    F = attractor_raster(ifs, ([0.0, 0.0], [1.0, 1.0]), delta)
    strong_fail = check_strong(Oprime, distance_transform(F)).verdict == "fail"

    # fattened-boundary generator: the tube-volume exponent check must refuse
    ivs = [(0.0, 1.0)]
    for _ in range(5):
        ivs = [seg for a, b_ in ivs for seg in ((a, a + (b_ - a) / 3), (b_ - (b_ - a) / 3, b_))]
    teeth = PolygonUnion(tuple(
        ConvexPolygon(np.array([[a, 0.0], [b_, 0.0], [b_, 0.55], [a, 0.55]])) for a, b_ in ivs
    ))
    sq = rasterize(axis_square(0.0, 1.0), ([-0.01, -0.01], [1.01, 1.01]), delta)
    tth = rasterize(teeth, ([-0.01, -0.01], [1.01, 1.01]), delta)
    comb = sq.with_occupancy(sq.occupancy & ~tth.occupancy)
    grid = make_eps_grid(delta, inradius(comb), 64)
    vg = sample_inner_volume(inner_distance(comb), grid)
    try:
        generator_content(vg, D_KOCH, math.log(3) / 2, 2, inradius(comb))
        refusal = False
        diag = "no refusal"
    except PreconditionError as exc:
        refusal = True
        diag = str(exc)[:60]
    ok = carpet_ok and strong_fail and refusal
    assert report(
        9, ok,
        f"carpet checks pass={carpet_ok}; O' strong fail={strong_fail}; fattened-generator refusal={refusal} ({diag})",
    )


def test_criterion_10_oracle_suites(rng):
    bad = 0
    for _ in range(200):
        shape = tuple(rng.integers(4, 65, size=2))
        occ = rng.random(shape) < float(rng.uniform(0.02, 0.4))
        if not occ.any():
            occ[0, 0] = True
        edt2 = np.round(ndimage.distance_transform_edt(~occ) ** 2).astype(np.int64)
        pts = np.argwhere(occ)
        idx = np.indices(shape).reshape(2, -1).T
        brute = ((idx[:, None, :] - pts[None, :, :]) ** 2).sum(2).min(1).reshape(shape)
        if not np.array_equal(edt2, brute):
            bad += 1
    edt_ok = bad == 0

    # stadium and disk parallel volumes within 4 delta * perimeter
    delta = 2.0**-10
    g = grid_from_bbox(([-0.4, -0.4], [1.4, 0.4]), delta)
    xs = g.centers(0)
    occ = np.zeros(g.extents, bool)
    j0 = g.indices_of(np.array([[0.0, 0.0]]))[0, 1]
    occ[(xs >= 0) & (xs <= 1), j0] = True
    f = distance_transform(g.with_occupancy(occ))
    stadium_ok = True
    for eps in (0.05, 0.1, 0.2):
        expected = 2 * eps + math.pi * eps**2
        per = 2 + 2 * math.pi * eps
        stadium_ok &= abs(parallel_volume(f, eps) - expected) <= 4 * delta * per
    g2 = grid_from_bbox(([-0.6, -0.6], [0.6, 0.6]), delta)
    occ2 = np.zeros(g2.extents, bool)
    idx = g2.indices_of(np.array([[0.0, 0.0]]))
    occ2[idx[0, 0], idx[0, 1]] = True
    f2 = distance_transform(g2.with_occupancy(occ2))
    disk_ok = True
    for eps in (0.1, 0.25, 0.4):
        expected = math.pi * eps**2
        disk_ok &= abs(parallel_volume(f2, eps) - expected) <= 4 * delta * 2 * math.pi * eps
    ok = edt_ok and stadium_ok and disk_ok
    assert report(
        10, ok,
        f"EDT brute-force mismatches {bad}/200; stadium within 4*delta*perimeter: {stadium_ok}; disk: {disk_ok}",
    )


def test_zz_acceptance_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
