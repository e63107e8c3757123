"""Spans and counters around calls into fractal_tiling_lab, installed from outside.

Nothing here edits the library: `Tracer.install()` replaces module-level
functions and class attributes with wrappers at run time. A module-level
function is replaced in its defining module and in every module of the
package that bound it with `from ... import`, so every call path is covered
(`install()` checks that no binding of the original is left).

Each span records name, start, end, parent span and the RSS high-water mark
at its end. Spans stay in memory until `summary()` folds them into the
per-layer metrics. Self time of a span is its duration minus the duration
of its direct children; spans nest strictly because the library runs
single-threaded here (FTL_THREADS=1).
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter

PKG = "fractal_tiling_lab"
LAYERS = ("ifs", "tiling", "grids", "levelsets", "curvature", "volumes",
          "conditions", "contents", "pipeline", "cli")

# (module, function, span name); span names start with their layer
FUNCTIONS = (
    ("ifs", "words_up_to_ratio", "ifs.words_up_to_ratio"),
    ("ifs", "dimension_data", "ifs.dimension_data"),
    ("tiling", "build_tiling", "tiling.build_tiling"),
    ("tiling", "_map_cells", "tiling.map_cells"),
    ("tiling", "attractor_raster", "tiling.attractor_raster"),
    ("tiling", "relative_inradius", "tiling.relative_inradius"),
    ("tiling", "central_open_set", "tiling.central_open_set"),
    ("grids", "rasterize", "grids.rasterize"),
    ("grids", "distance_transform", "grids.distance_transform"),
    ("grids", "inner_distance", "grids.inner_distance"),
    ("grids", "inradius", "grids.inradius"),
    ("curvature", "measure_profiles", "curvature.measure_profiles"),
    ("curvature", "sample_curvature", "curvature.sample_curvature"),
    ("curvature", "inner_curvature_samples", "curvature.inner_curvature_samples"),
    ("curvature", "generator_curvature", "curvature.generator_curvature"),
    ("curvature", "relative_generator_curvature", "curvature.relative_generator_curvature"),
    ("curvature", "direct_fractal_curvature", "curvature.direct_fractal_curvature"),
    ("volumes", "make_eps_grid", "volumes.make_eps_grid"),
    ("volumes", "sample_inner_volume", "volumes.sample.inner"),
    ("volumes", "sample_restricted_volume", "volumes.sample.restricted"),
    ("volumes", "sample_parallel_volume", "volumes.sample.parallel"),
    ("volumes", "h_function", "volumes.h_function"),
    ("volumes", "phi_function", "volumes.phi_function"),
    ("volumes", "gatzouras_rd", "volumes.gatzouras_rd"),
    ("conditions", "check_osc", "conditions.check_osc"),
    ("conditions", "check_strong", "conditions.check_strong"),
    ("conditions", "check_compatibility", "conditions.check_compatibility"),
    ("conditions", "check_projection", "conditions.check_projection"),
    ("conditions", "check_boundary_null", "conditions.check_boundary_null"),
    ("contents", "generator_content", "contents.formula.generator"),
    ("contents", "tiling_content_via_h", "contents.formula.tiling_via_h"),
    ("contents", "gatzouras_content", "contents.formula.gatzouras"),
    ("contents", "relative_generator_content", "contents.formula.relative_generator"),
    ("contents", "s_content", "contents.formula.s_content"),
    ("contents", "direct_content", "contents.formula.direct"),
)

# SceneBundle public products: (attribute, is_property)
PRODUCTS = (
    ("tiling", True),
    ("F_tight", True),
    ("field_small", True),
    ("checks", False),
    ("content", False),
    ("relative_curvature", False),
    ("generator_curvature_samples", False),
)
CONTENT_METHODS = ("generator_integral", "tiling_via_h", "gatzouras", "relative_generator",
                   "direct_limit", "direct_average", "s_content")
CLI_COMMANDS = ("content", "curvature_k0", "curvature_k1", "check")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, maxrss at start, maxrss at end]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, _maxrss_mb(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = _maxrss_mb()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(counters, args, result)` adds counts.

        `name` may be a callable of the call's arguments.
        """
        from fractal_tiling_lab.errors import PreconditionError

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            except PreconditionError:
                tracer.counters[label.split(".")[0] + ".refusals"] += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.counters, args, out)
            return out

        return wrapper

    def counting(self, fn, count):
        """Counter-only wrapper for hot, cheap calls (no span)."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(counters, args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod in LAYERS:
            importlib.import_module(f"{PKG}.{mod}")
        modules = [m for n, m in sys.modules.items() if n == PKG or n.startswith(PKG + ".")]
        after = {
            "ifs.words_up_to_ratio": lambda c, a, out: c.update({"ifs.tile_words": len(out)}),
            "grids.distance_transform": lambda c, a, out: c.update(
                {"grids.distance_transform.cells": int(out.values.size)}),
            "curvature.measure_profiles": lambda c, a, out: c.update(
                {"curvature.measure_profiles.thresholds": int(len(out[0]))}),
        }
        for mod_name, fn_name, span_name in FUNCTIONS:
            original = getattr(sys.modules[f"{PKG}.{mod_name}"], fn_name)
            wrapped = self.span(span_name, original, after.get(span_name))
            bound = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        bound += 1
            if bound == 0 or any(v is original for m in modules for v in vars(m).values()):
                raise RuntimeError(f"could not cover every binding of {mod_name}.{fn_name}")

        from fractal_tiling_lab import ifs, grids, levelsets, pipeline

        ifs.Similarity.compose = self.counting(
            ifs.Similarity.compose, lambda c, a: c.update({"ifs.compose.calls": 1}))
        grids.Grid.lookup = self.counting(
            grids.Grid.lookup, lambda c, a: c.update({"grids.lookup.points": int(len(a[1]))}))

        ex = levelsets.LevelSetExtractor
        ex.__init__ = self.span("levelsets.extractor_init", ex.__init__)
        ex.extract = self.span(
            "levelsets.extract", ex.extract,
            lambda c, a, out: c.update({"levelsets.cells_scanned": int(a[0]._fmin.size),
                                        "levelsets.segments": int(out.ein.size)}))
        ex.measure = self.span("levelsets.measure", ex.measure)

        bundle = pipeline.SceneBundle
        for attr, is_property in PRODUCTS:
            if is_property:
                prop = getattr(bundle, attr)
                setattr(bundle, attr, property(self.span(f"pipeline.stage.{attr}", prop.fget)))
            elif attr == "content":
                bundle.content = self.span(
                    lambda self_, method: f"pipeline.stage.content.{method}", bundle.content)
            elif attr == "relative_curvature":
                bundle.relative_curvature = self.span(
                    lambda self_, k, region="G": f"pipeline.stage.relative_curvature.k{k}.{region}",
                    bundle.relative_curvature)
            else:
                setattr(bundle, attr, self.span(f"pipeline.stage.{attr}", getattr(bundle, attr)))

    # -- folding -----------------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the spans and counters of one traced pass."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        stage_child = [0.0] * n
        for i, s in enumerate(self.spans):
            p = s[3]
            if p >= 0:
                child[p] += dur[i]
                if s[0].startswith("pipeline.stage."):
                    # nearest enclosing stage span, for stage self time
                    q = p
                    while q >= 0 and not self.spans[q][0].startswith("pipeline.stage."):
                        q = self.spans[q][3]
                    if q >= 0:
                        stage_child[q] += dur[i]

        def outermost(i, prefix):
            # True when no ancestor span matches prefix (no double counting)
            q = self.spans[i][3]
            while q >= 0:
                if _matches(self.spans[q][0], prefix):
                    return False
                q = self.spans[q][3]
            return True

        def total(prefix):
            return sum(dur[i] for i in range(n)
                       if _matches(self.spans[i][0], prefix) and outermost(i, prefix))

        def calls(prefix):
            return sum(1 for s in self.spans if _matches(s[0], prefix))

        c = self.counters
        m: dict[str, float] = {
            "ifs.compose.calls": c["ifs.compose.calls"],
            "ifs.tile_words": c["ifs.tile_words"],
            "ifs.words_up_to_ratio.s": total("ifs.words_up_to_ratio"),
            "ifs.dimension_data.s": total("ifs.dimension_data"),
            "tiling.build_tiling.s": total("tiling.build_tiling"),
            "tiling.map_cells.calls": calls("tiling.map_cells"),
            "tiling.map_cells.s": total("tiling.map_cells"),
            "tiling.attractor_raster.s": total("tiling.attractor_raster"),
            "tiling.attractor_raster.rss_delta_mb": sum(
                s[5] - s[4] for s in self.spans if s[0] == "tiling.attractor_raster"),
            "grids.distance_transform.calls": calls("grids.distance_transform"),
            "grids.distance_transform.s": total("grids.distance_transform"),
            "grids.distance_transform.cells": c["grids.distance_transform.cells"],
            "grids.inner_distance.calls": calls("grids.inner_distance"),
            "grids.inner_distance.s": total("grids.inner_distance"),
            "grids.lookup.points": c["grids.lookup.points"],
            "levelsets.extractor_init.s": total("levelsets.extractor_init"),
            "levelsets.extract.calls": calls("levelsets.extract"),
            "levelsets.extract.s": total("levelsets.extract"),
            "levelsets.measure.calls": calls("levelsets.measure"),
            "levelsets.measure.s": total("levelsets.measure"),
            "levelsets.cells_scanned": c["levelsets.cells_scanned"],
            "levelsets.segments": c["levelsets.segments"],
            "levelsets.band_ratio": (c["levelsets.segments"] / c["levelsets.cells_scanned"]
                                     if c["levelsets.cells_scanned"] else 0.0),
            "curvature.measure_profiles.s": total("curvature.measure_profiles"),
            "curvature.measure_profiles.thresholds": c["curvature.measure_profiles.thresholds"],
            "curvature.inner_curvature_samples.s": total("curvature.inner_curvature_samples"),
            "volumes.sample.calls": calls("volumes.sample"),
            "volumes.sample.s": total("volumes.sample"),
            "contents.formulas.s": total("contents.formula"),
            "contents.refusals": c["contents.refusals"],
        }
        for check in ("osc", "strong", "compatibility", "projection", "boundary_null"):
            m[f"conditions.check_{check}.s"] = total(f"conditions.check_{check}")
        products = [a for a, _ in PRODUCTS if a != "content"]
        products += [f"content.{meth}" for meth in CONTENT_METHODS]
        products.append("relative_curvature.k0.O")
        for prod in products:
            name = f"pipeline.stage.{prod}"
            idx = [i for i in range(n) if _matches(self.spans[i][0], name)]
            m[f"{name}.s"] = sum(dur[i] - stage_child[i] for i in idx)
            # the longest span is the one that built the product (later ones hit the memo)
            m[f"{name}.rss_mb"] = self.spans[max(idx, key=lambda i: dur[i])][5] if idx else 0.0
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
        self_by_layer = Counter()
        for i, s in enumerate(self.spans):
            layer = s[0].split(".")[0]
            if layer in LAYERS:
                self_by_layer[layer] += dur[i] - child[i]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["trace.unattributed_frac"] = (
            1.0 - sum(self_by_layer.values()) / wall_s if wall_s > 0 else 0.0)
        m["trace.spans"] = n
        return {k: float(v) for k, v in m.items()}

    def stage_table(self, peak_rss_mb: float) -> list[tuple[str, float, float]]:
        """(row, self s, inclusive s) comparable to the ROADMAP stage table.

        Self time excludes nested pipeline stages (the ROADMAP table lists
        the attractor raster apart from gatzouras); inclusive time does not.
        """
        m = self.summary(1.0)

        def incl(name):
            return sum(s[2] - s[1] for s in self.spans if _matches(s[0], name))

        rows = [("tiling", "pipeline.stage.tiling"), ("checks", "pipeline.stage.checks"),
                ("s_content", "pipeline.stage.content.s_content"),
                ("k=0 curvature on O", "pipeline.stage.relative_curvature.k0.O"),
                ("gatzouras", "pipeline.stage.content.gatzouras"),
                ("attractor raster", "tiling.attractor_raster")]
        table = [(label, m[f"{name}.s"], incl(name)) for label, name in rows]
        table.append(("attractor raster rss delta MB", m["tiling.attractor_raster.rss_delta_mb"],
                      m["tiling.attractor_raster.rss_delta_mb"]))
        table.append(("peak rss MB", peak_rss_mb, peak_rss_mb))
        return table


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")
