"""The benchmark's tracer must find every library name it wraps.

bench/tracer.py wraps module functions (tiling._map_cells,
tiling.relative_inradius, ...), Grid.lookup, the LevelSetExtractor methods
and the SceneBundle products by name at run time, and reads
LevelSetExtractor._fmin. Installing it in a fresh interpreter and tracing
one small 1-d scene (its content and k = 0 curvature tables), one image of
a rotated 2-d map (1-d images are stamped as runs and never reach
Grid.lookup) and one small 2-d field, also in koch_direct's call shape (an
extractor built by the caller and passed to measure_profiles), turns a
renamed or deleted traced name, or a bundle path that bypasses one, into a
failure here instead of a failed benchmark run. The
subprocess keeps the wrappers out of this test session.

No library path needs _fmin any more: the sweep takes the corner minima
strip by strip, and the extractor builds _fmin only when it is read. It
stays because the tracer counts levelsets.cells_scanned as _fmin.size per
extract, so the koch-shaped pass pins that counter at dual cells times
extract calls.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_PASS = r"""
import json, sys
from dataclasses import replace
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/bench"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from fractal_tiling_lab import pipeline, presets
bundle = pipeline.SceneBundle(replace(presets.get_preset("cantor").scene, delta=2.0**-10))
bundle.content_table()
bundle.curvature_table(0)
# the bundle reads memoized profiles and the tiling's G_inner; the one-shot
# samplers and inradius are public API
from fractal_tiling_lab import curvature, grids
curvature.inner_curvature_samples(bundle.tiling.G, 0, bundle.grid_curv_G)
curvature.sample_curvature(bundle.field_small, 0, bundle.grid_curv)
grids.inradius(bundle.tiling.G)
# cantor is 1-d: a disk's distance field runs the 2-d level-set layer
import numpy as np
from fractal_tiling_lab import curvature, grids
g = grids.grid_from_bbox(([-1.0, -1.0], [1.0, 1.0]), 2.0**-7)
occ = np.zeros(g.extents, bool)
occ[tuple(g.indices_of(np.zeros((1, 2)))[0])] = True
field = grids.distance_transform(g.with_occupancy(occ))
curvature.measure_profiles(field, np.array([0.2, 0.5]))
# 1-d images are stamped as runs of cells; a rotated 2-d map (koch's first)
# still inverse-samples cell centers through Grid.lookup
from fractal_tiling_lab import tiling
koch = presets.get_preset("koch").scene
tiling._map_cells(koch.ifs.maps[0], grids.rasterize(koch.region, koch.f_bbox, 2.0**-6), g)
# koch_direct's call shape: an extractor built by the caller, handed in unindexed
from fractal_tiling_lab import levelsets
first, before = len(tracer.spans), dict(tracer.counters)
ex = levelsets.LevelSetExtractor(field)
curvature.measure_profiles(field, np.array([0.25, 0.4]), None, ex)
print(json.dumps({"spans": sorted({s[0] for s in tracer.spans}),
                  "counters": dict(tracer.counters),
                  "koch_spans": sorted({s[0] for s in tracer.spans[first:]}),
                  "koch_counters": {k: v - before.get(k, 0) for k, v in tracer.counters.items()},
                  "koch_extracts": sum(s[0] == "levelsets.extract" for s in tracer.spans[first:]),
                  "dual_cells": (field.extents[0] - 1) * (field.extents[1] - 1),
                  "summary": tracer.summary(1.0)}))
"""


def test_tracer_installs_and_sees_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    spans = set(doc["spans"])
    for name in (
        "ifs.words_up_to_ratio", "ifs.dimension_data",
        "tiling.build_tiling", "tiling.map_cells", "tiling.attractor_raster",
        "tiling.relative_inradius",
        "grids.rasterize", "grids.distance_transform", "grids.inner_distance", "grids.inradius",
        "volumes.sample.inner", "volumes.sample.restricted", "volumes.sample.parallel",
        "conditions.check_osc", "conditions.check_projection",
        "contents.formula.generator", "contents.formula.direct",
        "curvature.sample_curvature", "curvature.inner_curvature_samples",
        "pipeline.stage.tiling", "pipeline.stage.F_tight", "pipeline.stage.field_small",
        "pipeline.stage.checks", "pipeline.stage.generator_curvature_samples",
        "pipeline.stage.relative_curvature.k0.G",
        "curvature.measure_profiles",
        "curvature.generator_curvature", "curvature.relative_generator_curvature",
        "curvature.direct_fractal_curvature",
        "levelsets.extractor_init", "levelsets.extract", "levelsets.measure",
    ):
        assert name in spans, name
    for method in ("generator_integral", "tiling_via_h", "gatzouras", "relative_generator",
                   "direct_limit", "direct_average", "s_content"):
        assert f"pipeline.stage.content.{method}" in spans, method
    assert doc["counters"]["grids.lookup.points"] > 0
    assert doc["counters"]["levelsets.cells_scanned"] > 0
    assert doc["counters"]["levelsets.segments"] > 0
    for name in ("levelsets.extractor_init", "levelsets.extract", "levelsets.measure",
                 "curvature.measure_profiles"):
        assert name in doc["koch_spans"], name
    for name in ("levelsets.cells_scanned", "levelsets.segments"):
        assert doc["koch_counters"][name] > 0, name
    assert doc["koch_counters"]["curvature.measure_profiles.thresholds"] == 2
    assert doc["koch_extracts"] > 0
    assert doc["koch_counters"]["levelsets.cells_scanned"] == doc["dual_cells"] * doc["koch_extracts"]
    assert doc["summary"]["tiling.build_tiling.s"] > 0
