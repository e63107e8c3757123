"""The benchmark's three workloads: scene generation and one pass each.

A pass runs one workload once, from a fresh interpreter, as a closed loop
with one caller. It returns result rows (JSON-ready dicts keyed
"<group>/<row>"), digests of the large arrays (bit-identity only), and the
per-scene latencies, both wall-clock and CPU time of the process. Library calls go through module attributes so that the
tracer's wrappers see them.

carpet_full   carpet preset at delta = 2^-N (run.py --delta-exp, default 10) via `cli.main`:
              content, curvature -k 0, curvature -k 1, check (one shared bundle)
koch_direct   Koch IFS through the direct estimators only, called as public
              functions at delta = 2^-11 on a field padded for eps <= 0.25
rand1d_batch  100 random 1-d IFSs at delta = 2^-14, a fresh SceneBundle each:
              content_table(), the k = 0 generator curvature and checks()
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time

import numpy as np

KOCH_DELTA = 2.0**-11
KOCH_PAD = 0.25
KOCH_TOP = 0.24  # below the pad, so no level set touches the raster border
RAND1D_DELTA = 2.0**-14
RAND1D_SLOTS = 100
RAND1D_VARIANTS = 3
CATALOGUE_SEED = 14035201
CLI_RUNS = (
    ("content", ["content"]),
    ("curvature_k0", ["curvature", "-k", "0"]),
    ("curvature_k1", ["curvature", "-k", "1"]),
    ("check", ["check"]),
)
# rows whose value estimates the exact content (direct_limit is a band or an
# oscillation midpoint, not an estimate of the content)
ORACLE_METHODS = ("generator_integral", "tiling_via_h", "gatzouras",
                  "relative_generator", "direct_average", "s_content")


def _json_ready(obj):
    def default(o):
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.loads(json.dumps(obj, sort_keys=True, default=default))


def sha(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    return hashlib.sha256(str((a.dtype.str, a.shape)).encode() + a.tobytes()).hexdigest()[:16]


# -- rand1d catalogue ------------------------------------------------------------


def rand1d_draw(slot: int, variant: int) -> dict:
    """One catalogue IFS: maps S_i(x) = r_i x + t_i, first at 0, last ending at 1.

    The slot fixes the map count and the ratios (hence the dimension and the
    word tree, which set the cost); the variant fixes how the gap length
    1 - sum r_i is split. So O = (0, 1) is feasible, the tiling is
    compatible, and the generator is the union of the gaps.
    """
    rs = np.random.default_rng([CATALOGUE_SEED, slot])
    n = int(rs.integers(2, 5))
    total = float(rs.uniform(0.45, 0.88))
    ratios = 0.04 + (total - 0.04 * n) * rs.dirichlet(np.full(n, 2.0))
    rv = np.random.default_rng([CATALOGUE_SEED, slot, variant])
    gaps = 0.02 + (1.0 - ratios.sum() - 0.02 * (n - 1)) * rv.dirichlet(np.full(n - 1, 2.0))
    trans = [0.0]
    for i in range(n - 1):
        trans.append(trans[-1] + ratios[i] + gaps[i])
    # pin the last map to end exactly at 1 (the float sum may miss by an ulp)
    trans[-1] = 1.0 - ratios[-1]
    gaps[-1] = trans[-1] - (trans[-2] + ratios[-2])
    return {"id": f"s{slot:03d}v{variant}", "ratios": [float(r) for r in ratios],
            "translations": [float(t) for t in trans], "gaps": [float(g) for g in gaps]}


def rand1d_selection(seed: int) -> list[tuple[int, int]]:
    """One variant per slot, chosen by the workload seed."""
    rng = random.Random(seed)
    return [(slot, rng.randrange(RAND1D_VARIANTS)) for slot in range(RAND1D_SLOTS)]


def rand1d_scene(draw: dict):
    from fractal_tiling_lab.grids import IntervalUnion
    from fractal_tiling_lab.ifs import IFS
    from fractal_tiling_lab.presets import Scene, translation_map

    maps = tuple(translation_map(r, [t]) for r, t in zip(draw["ratios"], draw["translations"]))
    scene = Scene(IFS(maps, 1), IntervalUnion(((0.0, 1.0),)), RAND1D_DELTA,
                  ([0.0], [1.0]), 64, draw["id"])
    scene.validate()
    return scene


# -- setup (everything before the first product is built) -------------------------


def setup(workload: str, seed: int, delta_exp: int, draws=None):
    """Import the package and build and validate the workload's scenes."""
    from fractal_tiling_lab import presets

    if workload == "carpet_full":
        sc = presets.get_preset("carpet").scene
        scene = presets.Scene(sc.ifs, sc.region, 2.0**-delta_exp, sc.f_bbox,
                              sc.eps_per_decade, sc.name)
        scene.validate()
        return scene
    if workload == "koch_direct":
        scene = presets.get_preset("koch").scene
        scene.validate()
        return scene
    if workload == "rand1d_batch":
        if draws is None:
            draws = [rand1d_draw(s, v) for s, v in rand1d_selection(seed)]
        return [(d["id"], rand1d_scene(d)) for d in draws]
    raise ValueError(f"unknown workload {workload!r}")


# -- passes ---------------------------------------------------------------------------


def carpet_pass(scene, tracer=None) -> dict:
    from fractal_tiling_lab import cli

    rows, codes = {}, {}
    t0, c0 = time.monotonic(), time.process_time()
    for name, argv in CLI_RUNS:
        full = argv + ["--preset", "carpet", "--delta", repr(scene.delta), "--format", "json"]
        buf = io.StringIO()
        span = tracer.open(f"cli.{name}") if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                codes[name] = cli.main(full)
        finally:
            if tracer:
                tracer.close(span)
        # a command that fails prints no JSON; its rows then count as missing
        text = buf.getvalue()
        for key, row in (json.loads(text)["rows"].items() if text else ()):
            rows[f"{name}/{key}"] = row
        rows[f"{name}/exit_code"] = {"value": codes[name]}
    t_end, c_end = time.monotonic(), time.process_time()

    from fractal_tiling_lab import pipeline

    (bundle,) = pipeline._BUNDLES.values()
    t = bundle.tiling
    digests = {f"tiling.{k}": sha(getattr(t, k).occupancy)
               for k in ("O", "G", "Gamma", "tile_union", "residual")}
    digests["F_tight"] = sha(bundle.F_tight.occupancy)
    digests["field_small"] = sha(bundle.field_small.values)
    return {"rows": rows, "digests": digests, "t_end": t_end, "cpu_end": c_end,
            "scene_s": [t_end - t0], "scene_cpu_s": [c_end - c0]}


def koch_pass(scene, tracer=None) -> dict:
    from fractal_tiling_lab import contents, curvature, grids, ifs, levelsets, tiling, volumes

    t0, c0 = time.monotonic(), time.process_time()
    dd = ifs.dimension_data(scene.ifs)
    delta, base = KOCH_DELTA, dd.lattice_base
    pad = KOCH_PAD + 4 * delta
    lo = np.asarray(scene.f_bbox[0], float) - pad
    hi = np.asarray(scene.f_bbox[1], float) + pad
    F = tiling.attractor_raster(scene.ifs, (lo, hi), delta)
    field = grids.distance_transform(F)
    vgrid = volumes.make_eps_grid(delta, KOCH_TOP, 64, base)
    vols = volumes.sample_parallel_volume(field, vgrid)
    limit, average = contents.direct_content(
        vols, dd.D, 2, window=(4 * delta, 0.2), lattice_base=base, lattice_note=dd.note)
    cgrid = volumes.make_eps_grid(delta, KOCH_TOP, 32, base)
    ex = levelsets.LevelSetExtractor(field)
    lengths, turns, abs_turns = curvature.measure_profiles(field, cgrid.eps, None, ex)
    rows = {"content/direct_limit": limit.to_dict(), "content/direct_average": average.to_dict()}
    for k in (0, 1):
        if k == 1:
            samples = curvature.CurvatureSamples(cgrid.eps, 1, 0.5 * lengths, 0.5 * lengths, delta, "F")
        else:
            samples = curvature.CurvatureSamples(
                cgrid.eps, 0, turns / (2 * math.pi), abs_turns / (2 * math.pi), delta, "F")
        lim_k, avg_k = curvature.direct_fractal_curvature(
            samples, dd.D, k, window=(8 * delta, KOCH_TOP / 3), lattice_base=base,
            lattice_note=dd.note)
        rows[f"curvature_k{k}/direct_limit"] = lim_k.to_dict()
        rows[f"curvature_k{k}/direct_average"] = avg_k.to_dict()
    t_end, c_end = time.monotonic(), time.process_time()
    digests = {"F": sha(F.occupancy), "field": sha(field.values), "volumes": sha(vols.values),
               "profiles": sha(np.stack([lengths, turns, abs_turns]))}
    return {"rows": _json_ready(rows), "digests": digests, "t_end": t_end, "cpu_end": c_end,
            "scene_s": [t_end - t0], "scene_cpu_s": [c_end - c0]}


def rand1d_pass(scenes, tracer=None) -> dict:
    from fractal_tiling_lab import curvature, pipeline
    from fractal_tiling_lab.errors import PreconditionError

    rows, scene_s, scene_cpu_s, dims = {}, [], [], {}
    for draw_id, scene in scenes:
        span = tracer.open("workload.draw") if tracer else None
        t0, c0 = time.monotonic(), time.process_time()
        # a fresh bundle per draw: get_bundle's memo is keyed by name and delta only
        b = pipeline.SceneBundle(scene)
        for method, res in b.content_table().items():
            rows[f"{draw_id}/content/{method}"] = res if isinstance(res, dict) else res.to_dict()
        dd = b.dim_data
        try:
            gen = curvature.generator_curvature(
                b.generator_curvature_samples(0), dd.D, dd.eta, 0, b.d, b.tiling.g,
                lattice_note=dd.note)
            rows[f"{draw_id}/curvature_k0/generator_integral"] = gen.to_dict()
        except PreconditionError as exc:
            rows[f"{draw_id}/curvature_k0/generator_integral"] = {"refused": str(exc)}
        for name, rep in b.checks().items():
            rows[f"{draw_id}/check/{name}"] = rep.to_dict()
        scene_s.append(time.monotonic() - t0)
        scene_cpu_s.append(time.process_time() - c0)
        if tracer:
            tracer.close(span)
        dims[draw_id] = (dd.D, dd.eta)
    t_end, c_end = time.monotonic(), time.process_time()
    distinct = len(set(dims.values())) == len(dims)
    return {"rows": _json_ready(rows), "digests": {}, "t_end": t_end, "cpu_end": c_end,
            "scene_s": scene_s, "scene_cpu_s": scene_cpu_s, "isolation_ok": distinct}


PASSES = {"carpet_full": carpet_pass, "koch_direct": koch_pass, "rand1d_batch": rand1d_pass}
