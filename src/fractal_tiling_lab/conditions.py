"""Numerical checks for the structural hypotheses behind each formula.

Every verdict is resolution-qualified: a raster can falsify or support a
set-theoretic condition at spacing delta, never prove it. Fail verdicts
always carry a witness (a cell, an eps interval, or a measured defect);
seam tolerances scale with measured boundary-cell counts rather than fixed
constants. The metric projection is never evaluated pointwise: the
projection condition is tested through its parallel-set identity
lambda_d((F_eps \\ (S_i F)_eps) ^ S_i O) = 0, which is robust on rasters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curvature import samples_from_profile
from .errors import ConfigError
from .grids import DistanceField, Grid, morphology, occupied_box
from .ifs import IFS, Similarity
from .levelsets import LevelSetExtractor, contour_components
from .tiling import axis_cells

CHECK_NAMES = ("osc", "strong", "compatible", "projection", "boundary_null")
STRONG_INTERIOR_CELLS = 4  # erosion depth of O's interior in check_strong
COMPATIBLE_TOL_CELLS = 2  # generator-boundary distance to F allowed by check_compatibility
PROJECTION_SEAM_FACTOR = 4.0  # check_projection's defect tolerance per interface cell
BOUNDARY_COLLAR_CELLS = 2  # half-width of check_boundary_null's collar around bd O


@dataclass
class CheckReport:
    name: str
    verdict: str  # pass | fail | inconclusive
    resolution: float
    witness: dict | None = None
    details: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.name not in CHECK_NAMES:
            raise ConfigError(f"unknown check name {self.name!r}")
        if self.verdict not in ("pass", "fail", "inconclusive"):
            raise ConfigError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ConfigError("fail verdicts must carry a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "resolution": self.resolution,
            "witness": self.witness,
            "details": self.details,
        }


def check_osc(ifs: IFS, O: Grid, images: np.ndarray) -> CheckReport:
    """Open set condition: S_i O inside O, images pairwise disjoint.

    Containment and overlaps are judged up to a one-cell seam: an image cell
    beyond O's one-cell dilation (8-neighbourhood in d=2), or overlap that
    survives a one-cell erosion, is a hard fail; leakage into the seam and
    seam-only contact are inconclusive. The images are sampled on O's grid
    only, so a boundary cell of O whose centre S_i sends more than one cell
    beyond that grid is a hard fail too. `images` are tiling.map_images(ifs,
    O), which a tiling holds as TilingData.map_images.
    """
    delta = O.spacing
    seam_leak = False
    for i, img in enumerate(images):
        outside = img & ~O.occupancy
        if outside.any():
            hard = outside & ~morphology(O.occupancy)
            if hard.any():
                return CheckReport(
                    "osc", "fail", delta,
                    {"map": i, "cell": O.cell_point(hard, 0).tolist(), "reason": "S_i O leaves O"},
                )
            seam_leak = True
    edge = O.cell_points(O.boundary_cells())
    lo, hi = O.origin - delta, O.origin + (np.array(O.extents) + 1) * delta
    for i, m in enumerate(ifs.maps):
        image = m(edge)
        off = np.flatnonzero(((image < lo) | (image > hi)).any(axis=1))
        if off.size:
            return CheckReport(
                "osc", "fail", delta,
                {"map": i, "cell": edge[off[0]].tolist(), "image": image[off[0]].tolist(),
                 "reason": "S_i O leaves O's grid"},
            )
    seam_only = False
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            overlap = images[i] & images[j]
            if not overlap.any():
                continue
            hard = morphology(images[i], erode=True) & morphology(images[j], erode=True)
            if hard.any():
                return CheckReport(
                    "osc", "fail", delta,
                    {"maps": [i, j], "cell": O.cell_point(hard, 0).tolist(),
                     "overlap_cells": int(overlap.sum()), "reason": "interior overlap"},
                )
            seam_only = True
    if seam_leak:
        return CheckReport(
            "osc", "inconclusive", delta, None, {"note": "S_i O leaves O in the seam layer only"}
        )
    if seam_only:
        return CheckReport("osc", "inconclusive", delta, None, {"note": "seam-layer contact only"})
    return CheckReport("osc", "pass", delta)


def check_strong(O: Grid, F_field: DistanceField) -> CheckReport:
    """Strong feasibility: the open set actually meets the attractor.

    The interior margin, STRONG_INTERIOR_CELLS, must exceed the attractor
    raster's snapping slop (about two cells), otherwise boundary contact is
    indistinguishable from a genuine interior intersection.
    """
    delta = O.spacing
    interior = morphology(O.occupancy, STRONG_INTERIOR_CELLS, erode=True)
    if not interior.any():
        return CheckReport(
            "strong", "fail", delta,
            {"reason": "no interior cells at this resolution"},
        )
    dists = F_field.sample_cells(O, interior)
    best = int(np.argmin(dists))
    dist = float(dists[best])
    at = [float(v) for v in O.cell_point(interior, best)]
    if dist <= delta:
        return CheckReport("strong", "pass", delta, details={"witness_point": at})
    return CheckReport(
        "strong", "fail", delta,
        {"min_distance_to_F": dist, "at": at,
         "reason": "no interior cell within one cell of F"},
    )


def check_compatibility(G: Grid, F_field: DistanceField) -> CheckReport:
    """Compatibility: the generator boundary lies on the attractor."""
    delta = G.spacing
    boundary = G.boundary_cells()
    if not boundary.any():
        return CheckReport("compatible", "inconclusive", delta, None,
                           {"note": "generator has no boundary cells"})
    dists = F_field.sample_cells(G, boundary)
    worst = int(np.argmax(dists))
    if dists[worst] <= COMPATIBLE_TOL_CELLS * delta:
        return CheckReport("compatible", "pass", delta,
                           details={"max_boundary_distance": float(dists[worst])})
    return CheckReport(
        "compatible", "fail", delta,
        {"max_boundary_distance": float(dists[worst]),
         "at": [float(v) for v in G.cell_point(boundary, worst)],
         "tolerance": COMPATIBLE_TOL_CELLS * delta,
         "reason": "generator boundary leaves the attractor"},
    )


def check_projection(
    ifs: IFS, O: Grid, images: np.ndarray, F_field: DistanceField, g_tilde: float,
) -> CheckReport:
    """Projection condition, tested through the parallel-set identity.

    For each map the defect volume lambda((F_eps \\ (S_i F)_eps) ^ S_i O)
    must stay at seam scale for all sampled eps <= r_i g~; a genuine failure
    produces a defect bounded below on an eps interval, which is returned as
    the witness. `images` are tiling.map_images(ifs, O), as for check_osc.
    """
    delta = O.spacing
    d = O.dim
    worst = None
    for i, (m, img) in enumerate(zip(ifs.maps, images)):
        if not img.any():
            continue
        d_F = F_field.sample_cells(O, img)
        d_SiF = m.ratio * _sample_preimages(m, O, img, F_field)
        top = m.ratio * g_tilde
        lo = 4 * delta
        if top <= lo * 1.05:
            continue
        eps_i = np.geomspace(lo, top, 24)
        # #(d_F <= e and d_SiF > e) = #(d_F <= e) - #(max(d_F, d_SiF) <= e)
        s_F = np.sort(d_F)
        defects = np.searchsorted(s_F, eps_i, side="right") - np.searchsorted(
            np.sort(np.maximum(d_F, d_SiF)), eps_i, side="right")
        near = delta * math.sqrt(d)
        # the half-cell noise floor scales with the eps-interface inside
        # S_i O, not with its perimeter: compare against the collar-end
        # cell count #(|d_F - e| <= near) at each eps
        interfaces = _count_near(s_F, eps_i, near)
        defect = defects * delta**d
        tol = PROJECTION_SEAM_FACTOR * delta * np.maximum(interfaces, 4) * delta ** (d - 1)
        fail = defect > tol
        if fail.any():
            peak = float(defect[fail].max())
            cand = {
                "map": i,
                "eps_interval": [float(eps_i[fail][0]), float(eps_i[fail][-1])],
                "max_defect": peak,
                "tolerance": float(tol[fail].max()),
            }
            if worst is None or peak > worst["max_defect"]:
                worst = cand
    if worst is not None:
        return CheckReport("projection", "fail", delta, worst)
    return CheckReport("projection", "pass", delta)


def _sample_preimages(m: Similarity, O: Grid, img: np.ndarray, F_field: DistanceField) -> np.ndarray:
    """F_field at S^{-1} of the centers of O's cells in img, in C order:
    F_field.sample_at(m.inverse()(O.cell_points(img))).

    For a diagonal inverse linear part the preimage cell on each axis depends
    on that axis alone (tiling.axis_cells), so it is found once per row and
    once per column of img's bounding box, and the field is gathered there.
    """
    inv = m.inverse()
    A, d = inv.matrix, O.dim
    if np.any(A[~np.eye(d, dtype=bool)] != 0):
        return F_field.sample_at(inv(O.cell_points(img)))
    box = occupied_box(img)
    # the centres of the box's cells only: O.centers(a) is centers_at(arange)
    centers = [O.centers_at(np.arange(box[a].start, box[a].stop), a) for a in range(d)]
    cells, inside = zip(*(axis_cells(A[a, a] * centers[a] + inv.offset[a], F_field, a) for a in range(d)))
    vals = F_field.values[np.ix_(*cells)].astype(float)
    ok = inside[0] if d == 1 else inside[0][:, None] & inside[1][None, :]
    vals[~ok] = np.inf
    return vals[img[tuple(box)]]


def _count_near(s: np.ndarray, eps: np.ndarray, near: float) -> list[int]:
    """#(|x - e| <= near) over the sorted s for each e in eps, x - e as rounded:
    every value off [e - 2 near, e + 2 near] has |fl(x - e)| > near, so only
    that run of s is compared."""
    lo, hi = np.searchsorted(s, eps - 2 * near, "left"), np.searchsorted(s, eps + 2 * near, "right")
    # every run gathered at once: entry p of run k is s[lo[k] + p]
    n = hi - lo
    k = np.repeat(np.arange(eps.size), n)
    pos = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
    return np.bincount(k[np.abs(s[pos] - eps[k]) <= near], minlength=eps.size).tolist()


def check_boundary_null(
    O: Grid, F_field: DistanceField, k: int, eps_samples: np.ndarray,
    extractor: LevelSetExtractor | None,
) -> CheckReport:
    """Curvature mass of bd F_eps inside a thin collar of bd O stays at seam scale.

    Transversal crossings contribute one collar width each; a tangency
    contributes a full stretch of boundary and fails. d=1 boundaries are
    finite point sets, so the check passes trivially and reads neither the
    radii nor the extractor (None there). In d=2 `extractor` is F_field's
    LevelSetExtractor; a windowed one must hold the collar, as the
    bundle's window around O does. A collar that lies inside every F_eps
    (F lines bd O, as on carpet and gasket) carries no curvature mass: it
    passes by containment, read from the field, without a level set.
    """
    delta = O.spacing
    if O.dim == 1:
        return CheckReport("boundary_null", "pass", delta, None, {"note": "finite bd O in d=1"})
    edge = O.boundary_cells() | (morphology(O.occupancy) & ~O.occupancy)
    collar = morphology(edge, BOUNDARY_COLLAR_CELLS)
    collar = O.with_occupancy(collar).embed_into(F_field.origin, F_field.extents)
    eps = np.asarray(eps_samples, dtype=float)
    # a segment's dual cell lies at most one cell below its midpoint's, so the
    # collar's bounding box grown by one cell holds every contour cell counted,
    # and the collar grown by one cell the corners of every dual cell it
    # selects: when none of those exceeds the smallest radius, none crosses one
    box = occupied_box(collar, 1)
    reach = F_field.values[box][morphology(collar[box])].astype(np.float32, copy=False)
    if reach.max(initial=-np.inf) <= np.float32(extractor._nudge(float(eps.min()))):
        for e in eps:
            extractor._check_contact(extractor._nudge(float(e)))
        return CheckReport("boundary_null", "pass", delta, None, {"k": k})
    extractor.index(eps)
    profile = np.zeros((eps.size, 3))
    ncomp = []
    for i, e in enumerate(eps):
        ls = extractor.extract(float(e))
        profile[i] = extractor.measure_masks(ls, [collar])[0]
        ncomp.append(contour_components(extractor.level_set_cells(ls, collar)[box]))
    # the collar's curvature mass is the variation of C_k inside it
    masses = samples_from_profile(k, O.dim, delta, lambda: (eps, *profile.T)).variation_values
    worst = None
    for e, mass, n in zip(eps, masses, ncomp):
        tol = 12.0 * delta * max(1, n) if k == O.dim - 1 else 0.25 * max(1, n) + 0.5
        if mass > tol:
            cand = {"eps": float(e), "mass": float(mass), "tolerance": tol, "components": n}
            if worst is None or mass / cand["tolerance"] > worst["mass"] / worst["tolerance"]:
                worst = cand
    if worst is not None:
        return CheckReport("boundary_null", "fail", delta, worst, {"k": k})
    return CheckReport("boundary_null", "pass", delta, None, {"k": k})
