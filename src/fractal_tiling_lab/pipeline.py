"""Scene orchestration: raster -> distance fields -> samples -> formulas.

A SceneBundle memoizes every expensive product so the CLI and the test
suite can ask for results in any order without recomputation. Each
zero-argument product is declared once with _product, a property memoized
under its own name; the keyed ones (the curvature profiles of one marching
pass per field, which serve both orders and, for field_small in d=2, both
masks G and O; the content and curvature rows; the checks) go through _memo.
get_bundle caches bundles by scene content (maps, region, f_bbox, delta and
the scene's eps-grid density; curvature grids always take CURVATURE_PPD),
never by name; everything inside is immutable after construction, so
sharing is safe.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numpy as np

from . import conditions, contents, curvature, volumes
from .errors import ConfigError, PreconditionError
from .grids import DistanceField, Grid, cell_counts, distance_transform, grid_from_bbox, inner_distance
from .ifs import DimensionData, dimension_data
from .levelsets import LevelSetExtractor
from .presets import Scene, get_preset
from .tiling import TilingData, attractor_raster, build_tiling, central_open_set, relative_inradius

CONTENT_METHODS = (
    "generator_integral",
    "tiling_via_h",
    "gatzouras",
    "relative_generator",
    "direct_limit",
    "direct_average",
    "s_content",
)
CURVATURE_METHODS = ("generator_integral", "relative_generator", "direct_limit", "direct_average")
CURVATURE_PPD = 32  # points per decade of the curvature eps grids


def _product(build):
    """A SceneBundle product: a property that builds build(self) once and
    memoizes it in the bundle's _cache under build's name."""

    @functools.wraps(build)
    def get(self):
        return self._memo(build.__name__, lambda: build(self))

    return property(get)


class SceneBundle:
    def __init__(self, scene: Scene):
        scene.validate()
        self.scene = scene
        self.ifs = scene.ifs
        self.delta = float(scene.delta)
        self.d = scene.ifs.ambient_dim
        self._cache: dict = {}

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def key(self) -> tuple:
        """Canonical scene content: every input the bundle's products depend on."""
        s = self.scene
        return (
            _canonical(s.ifs), _canonical(s.region), _canonical(s.f_bbox),
            s.delta, s.eps_per_decade,
        )

    # -- dimensions ---------------------------------------------------------

    @_product
    def dim_data(self) -> DimensionData:
        return dimension_data(self.ifs)

    @property
    def lattice_base(self) -> float | None:
        return self.dim_data.lattice_base

    # -- rasters and fields -------------------------------------------------

    @_product
    def tiling(self) -> TilingData:
        region = self.scene.region
        if region == "central":
            lo, hi = np.asarray(self.scene.f_bbox[0], float), np.asarray(self.scene.f_bbox[1], float)
            pad = 0.3 * float(np.linalg.norm(hi - lo))
            vc = central_open_set(self.ifs, (lo - pad, hi + pad), self.delta)
            if vc.neighbor_count == 0:
                raise ConfigError(
                    f"the central open set's working box {(lo - pad).tolist()} to {(hi + pad).tolist()} "
                    "reaches no neighbour copy of the attractor; widen f_bbox"
                )
            return build_tiling(self.ifs, vc.grid, self.delta)
        return build_tiling(self.ifs, region, self.delta)

    @property
    def O(self) -> Grid:
        return self.tiling.O

    @_product
    def F_tight(self) -> Grid:
        o = self.O
        lo, hi = np.asarray(self.scene.f_bbox, float)
        cell_counts(hi - lo, self.delta)  # a box past the cell cap is refused before the snap divides
        # snap outward onto O's cell lattice so every grid here is aligned
        lo_s = o.origin + (np.floor((lo - o.origin) / self.delta) - 1) * self.delta
        hi_s = o.origin + (np.ceil((hi - o.origin) / self.delta) + 1) * self.delta
        return attractor_raster(self.ifs, (lo_s, hi_s), self.delta)

    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the box around O and F_tight, on their lattice."""
        o, f = self.O, self.F_tight
        box_lo = np.minimum(o.origin, f.origin)
        box_hi = np.maximum(
            o.origin + np.array(o.extents) * self.delta,
            f.origin + np.array(f.extents) * self.delta,
        )
        return box_lo, box_hi

    def _g_tilde_bound(self) -> float:
        """An upper bound on g~ from one EDT at 4 delta.

        F_tight and O are reduced by 4 cells per axis on their box (a block
        is set when any of its cells is). A fine cell centre lies within
        1.5 sqrt(d) delta of its block's centre, and so does the centre of an
        attractor cell in the nearest attractor block, so g~ is at most the
        coarse field's max over O's blocks plus 3 sqrt(d) delta.
        """
        box = grid_from_bbox(self._box(), self.delta)
        f, o = (_block_any(x.embed_into(box.origin, box.extents), 4) for x in (self.F_tight, self.O))
        coarse = distance_transform(Grid(box.origin, 4 * self.delta, f))
        return float(coarse.values[o].max()) + 3 * math.sqrt(self.d) * self.delta

    @_product
    def field_small(self) -> DistanceField:
        """The attractor's distance field: F_tight's one EDT, on the box around O
        and F_tight grown by the pad max(1.3 g^, the window's g~-free top) + 8 delta.

        g^ >= g~ is the bound of _g_tilde_bound, so the pad reaches past
        1.3 g~ + 8 delta and the direct window top (the rest of the top,
        0.55 g~ in d=2, lies inside 1.3 g~): one EDT. Every F_tight cell lies
        in the box, so a cell's value does not depend on the pad.
        """
        box_lo, box_hi = self._box()
        pad = max(self._window_without_g()[1], 1.3 * self._g_tilde_bound()) + 8 * self.delta
        margin = (int(math.ceil(pad / self.delta)) + 1) * self.delta
        grid = grid_from_bbox((box_lo - margin, box_hi + margin), self.delta)
        return distance_transform(grid.with_occupancy(self.F_tight.embed_into(grid.origin, grid.extents)))

    @_product
    def g_tilde(self) -> float:
        return relative_inradius(self.field_small, self.O)

    @property
    def g(self) -> float:
        return self.tiling.g

    # -- eps grids ------------------------------------------------------------

    def _eps_grid(self, top: float, ppd: int) -> volumes.EpsGrid:
        return volumes.make_eps_grid(self.delta, top, ppd, self.lattice_base)

    @_product
    def grid_G(self) -> volumes.EpsGrid:
        return self._eps_grid(self.g, self.scene.eps_per_decade)

    @_product
    def grid_rel(self) -> volumes.EpsGrid:
        return self._eps_grid(self.g_tilde, self.scene.eps_per_decade)

    @_product
    def grid_F(self) -> volumes.EpsGrid:
        """Top-1.0 eps nodes below field_small's border minimum less 4 cells (so the counts
        equal those on any larger box); the top node is the Gatzouras cutoff a."""
        top1 = self._eps_grid(1.0, self.scene.eps_per_decade)
        keep = top1.eps < self.field_small.border_min() - 4 * self.delta
        return dataclasses.replace(top1, eps=top1.eps[keep])

    @_product
    def grid_curv(self) -> volumes.EpsGrid:
        # the top stops a hair below the raster depth so the deepest core is
        # still alive at the last node (the depth itself is a critical value)
        return self._eps_grid(self.g_tilde * (1 - 1e-6), CURVATURE_PPD)

    @_product
    def grid_curv_G(self) -> volumes.EpsGrid:
        return self._eps_grid(self.g * (1 - 1e-6), CURVATURE_PPD)

    # -- volume samples -------------------------------------------------------

    @_product
    def V_G(self) -> volumes.VolumeSamples:
        return volumes.sample_inner_volume(self.tiling.G_inner, self.grid_G)

    @_product
    def V_T(self) -> volumes.VolumeSamples:
        t = self.tiling
        union = inner_distance(t.tile_union)
        return volumes.sample_inner_volume(union, self.grid_G, extra_area=t.residual.area())

    @_product
    def h(self) -> volumes.VolumeSamples:
        return volumes.h_function(self.V_T, self.ifs, self.g, self.grid_G)

    @_product
    def F_on_O(self) -> volumes.VolumeSamples:
        return volumes.sample_restricted_volume(self.field_small, self.O, self.grid_rel)

    @_product
    def F_on_Gamma(self) -> volumes.VolumeSamples:
        return volumes.sample_restricted_volume(self.field_small, self.tiling.Gamma, self.grid_rel)

    @_product
    def F_volumes(self) -> volumes.VolumeSamples:
        """lambda_d(F_eps) on grid_F."""
        return volumes.sample_parallel_volume(self.field_small, self.grid_F)

    @_product
    def R_d(self) -> volumes.VolumeSamples:
        return volumes.gatzouras_rd(self.F_volumes, self.ifs, self.grid_F)

    # -- checks ----------------------------------------------------------------

    @_product
    def eps_boundary_null(self) -> np.ndarray:
        """The radii at which the d=2 boundary_null check reads bd F_eps."""
        return np.geomspace(8 * self.delta, max(0.5 * self.g_tilde, 16 * self.delta), 12)

    def checks(self) -> dict[str, conditions.CheckReport]:
        def build():
            t = self.tiling
            field = self.field_small
            images = t.map_images
            return {
                "osc": conditions.check_osc(self.ifs, t.O, images),
                "strong": conditions.check_strong(t.O, field),
                "compatible": conditions.check_compatibility(t.G, field),
                "projection": conditions.check_projection(self.ifs, t.O, images, field, self.g_tilde),
                "boundary_null": conditions.check_boundary_null(
                    t.O, field, self.d - 1, self.eps_boundary_null, self.field_extractor
                ),
            }

        return self._memo("checks", build)

    # -- curvature samples -------------------------------------------------------

    @_product
    def field_extractor(self) -> LevelSetExtractor | None:
        """field_small's level sets inside O's window, swept once for grid_curv and
        the boundary_null radii; None in d=1, where boundaries are point sets.

        Every mask it measures (G, O and the boundary_null collar) lies on O's
        grid, so the window is O's raster box in field_small's frame grown by
        2 dual cells: a segment that a mask cell selects lies in the dual cells
        one below it, and a chain that leaves the window does so outside every
        mask. field_small's pad beyond that serves F_volumes alone.
        """
        if self.d == 1:
            return None
        box = self.field_small.lattice_slice(self.O)
        window = tuple(slice(max(s.start - 2, 0), s.stop + 2) for s in box)
        ex = LevelSetExtractor(self.field_small, window)
        ex.index(np.concatenate([self.grid_curv.eps, self.eps_boundary_null]))
        return ex

    def relative_curvature(self, k: int, region: str = "G") -> curvature.CurvatureSamples:
        """C_k(F_eps, .) localized to the generator (default) or to O.

        In d=2 one marching pass per threshold measures both regions, so the
        first request builds both profiles and serves both k orders; d=1
        builds the requested region's. The O localization backs the direct
        estimators: the relative fractal curvature w.r.t. a strong O
        coincides with the global one, while the outer halo would pollute
        finite windows in the compatible case.
        """
        if region not in ("G", "O"):
            raise ConfigError(f"curvature region must be G or O, got {region!r}")
        regions = ("G", "O") if self.d == 2 else (region,)

        def profiles():
            field, eps = self.field_small, self.grid_curv.eps
            curvature.check_border_1d(field, eps)
            masks = [getattr(self.tiling, r).embed_into(field.origin, field.extents) for r in regions]
            out = curvature.measure_mask_profiles(field, eps, masks, self.field_extractor)
            return {r: (eps, *p) for r, p in zip(regions, out)}

        return curvature.samples_from_profile(
            k, self.d, self.delta, lambda: self._memo(("profile", *regions), profiles)[region], region
        )

    def generator_curvature_samples(self, k: int) -> curvature.CurvatureSamples:
        """C_k of the generator's cores G_-eps on grid_curv_G, read from the
        tiling's G_inner. Both orders (d=2) read one profile."""

        def profile():
            eps = self.grid_curv_G.eps
            return eps, *curvature.measure_profiles(self.tiling.G_inner, eps)

        return curvature.samples_from_profile(
            k, self.d, self.delta, lambda: self._memo(("profile", "G_core"), profile), "G_core"
        )

    @_product
    def surface_samples(self) -> volumes.VolumeSamples:
        """H^{d-1}(bd F_eps ^ G) on the curvature grid (full length, not halved)."""
        rel = self.relative_curvature(self.d - 1)
        return volumes.VolumeSamples(rel.eps, 2.0 * rel.values, self.delta)

    # -- contents and curvatures -------------------------------------------------

    def content(self, method: str) -> contents.ContentResult:
        if method in ("direct_limit", "direct_average"):
            # both direct estimates come from one window: one memo entry
            limit, average = self._memo("direct_contents", lambda: self._content(method))
            return average if method == "direct_average" else limit
        return self._memo(("content", method), lambda: self._content(method))

    def _content(self, method: str):
        """One content result; either direct method builds the (limit, average) pair."""
        dd = self.dim_data
        D, eta, d = dd.D, dd.eta, self.d
        note = dd.note
        if method == "generator_integral":
            return contents.generator_content(self.V_G, D, eta, d, self.g, lattice_note=note)
        if method == "tiling_via_h":
            return contents.tiling_content_via_h(self.h, D, eta, d, self.g, lattice_note=note)
        if method == "gatzouras":
            return contents.gatzouras_content(self.R_d, D, eta, d, lattice_note=note)
        if method == "relative_generator":
            checks = self.checks()
            return contents.relative_generator_content(
                self.F_on_Gamma, D, eta, d, self.g_tilde, self.tiling.Gamma.area(),
                checks=[checks["strong"], checks["projection"]], lattice_note=note,
            )
        if method in ("direct_limit", "direct_average"):
            # Restricting to O only pays when bd O lies on the attractor
            # (compatible case): there the outer halo per(O)*eps decays like
            # eps^(D-d+1) and would swamp the window. Otherwise (and always
            # in d=1, where the outer collars belong to the scaled periodic
            # regime) the full parallel volume settles much faster.
            restrict = d == 2 and self.checks()["compatible"].passed
            samples = self.F_on_O if restrict else self.F_volumes
            lo, hi = self.direct_window()
            if restrict:
                hi = min(hi, self.grid_rel.eps[-1])
            return contents.direct_content(
                samples, D, d, window=(lo, hi), lattice_base=self.lattice_base, lattice_note=note,
            )
        if method == "s_content":
            checks = self.checks()
            return contents.s_content(
                self.surface_samples, D, eta, d, self.g_tilde,
                checks=[checks["strong"], checks["projection"], checks["boundary_null"]],
                lattice_note=note,
            )
        raise ConfigError(f"unknown content method {method!r}")

    def _curvature(self, k: int, method: str) -> contents.ContentResult:
        """One C_k row, with the checks each formula needs; the direct rows
        (one memo entry) read C_k on O in d=2 over (8 delta, g~/3), with no span rule."""
        dd, d = self.dim_data, self.d
        if method == "generator_integral":
            return curvature.generator_curvature(
                self.generator_curvature_samples(k), dd.D, dd.eta, k, d, self.g, lattice_note=dd.note,
            )
        if method == "relative_generator":
            checks = self.checks()
            return curvature.relative_generator_curvature(
                self.relative_curvature(k), dd.D, dd.eta, k, d, self.g_tilde,
                checks=[checks["projection"], checks["boundary_null"]], lattice_note=dd.note,
            )
        limit, average = self._memo(("direct_curvature", k), lambda: curvature.direct_fractal_curvature(
            self.relative_curvature(k, region="O" if d == 2 else "G"), dd.D, k,
            window=(8 * self.delta, self.g_tilde / 3), lattice_base=self.lattice_base,
            lattice_note=dd.note,
        ))
        return average if method == "direct_average" else limit

    def direct_window(self) -> tuple[float, float]:
        """(floor, top): top 0.3 x scale in d=1, 0.55 g~ in d=2, at least DIRECT_MIN_DECADES up."""
        lo, top = self._window_without_g()
        return lo, top if self.d == 1 else max(top, 0.55 * self.g_tilde)

    def _window_without_g(self) -> tuple[float, float]:
        """(floor, the part of the direct window's top that needs no g~)."""
        lo = (16 if self.d == 1 else 4) * self.delta
        top = lo * 10.0**contents.DIRECT_MIN_DECADES * 1.02
        if self.d == 1:
            top = max(top, 0.3 * float(np.ptp(np.asarray(self.scene.f_bbox, float))))
        return lo, top

    def content_table(self, methods=CONTENT_METHODS) -> dict[str, dict]:
        """One JSON-ready row per method; refusals become rows with the failure reason."""
        return _refusal_rows(self.content, methods)

    def curvature_table(self, k: int) -> dict[str, dict]:
        """One JSON-ready row per curvature method at order k; refusals become rows."""
        return _refusal_rows(lambda m: self._curvature(k, m), CURVATURE_METHODS)


def _block_any(occ: np.ndarray, b: int) -> np.ndarray:
    """occ reduced by b cells per axis (padded up to a multiple of b): a block
    is set when any of its cells is."""
    occ = np.pad(occ, [(0, -n % b) for n in occ.shape])
    blocks = [m for n in occ.shape for m in (n // b, b)]
    return occ.reshape(blocks).any(axis=tuple(range(1, 2 * occ.ndim, 2)))


def _refusal_rows(row, methods) -> dict[str, dict]:
    """{method: row(method).to_dict()}, with a PreconditionError as {"refused": reason}."""
    rows = {}
    for m in methods:
        try:
            rows[m] = row(m).to_dict()
        except PreconditionError as exc:
            rows[m] = {"refused": str(exc)}
    return rows


def _canonical(obj):
    """Hashable value of nested dataclasses (tagged by type), arrays and sequences."""
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return (type(obj).__name__, *(_canonical(getattr(obj, f.name)) for f in fields))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    return obj


_BUNDLES: dict = {}


def get_bundle(scene: str | Scene) -> SceneBundle:
    """Shared bundle of a preset (by name) or a scene, keyed by SceneBundle.key."""
    bundle = SceneBundle(get_preset(scene).scene if isinstance(scene, str) else scene)
    return _BUNDLES.setdefault(bundle.key, bundle)
