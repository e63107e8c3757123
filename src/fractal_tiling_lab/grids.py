"""Rasterized sets and exact Euclidean distance fields.

Everything downstream (parallel volumes, tube functions, curvature
extraction) measures against these grids, so the distance transform must
be exact per cell center: thresholding at eps feeds eps -> 0 limits and
cannot tolerate chamfer bias. Cells are occupied iff their center lies in
the region (open-set semantics).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResolutionError

MAX_CELLS = 1 << 27  # ~134M cells; rasterize refuses beyond this


@functools.cache
def _load_ndimage_kernel(name: str):
    """scipy's compiled ndimage module `name`, loaded from its file without
    running scipy/ndimage/__init__.py (whose imports, scipy.special and
    numpy.f2py among them, cost more than half of a command's start-up), and
    registered under its own dotted name. Loaded on first use: _nd_image at
    the first 2-d EDT, _ni_label (which imports the top-level scipy package)
    at the first count of contour components, so no 1-d command loads scipy."""
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "ndimage")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            break
    else:
        from importlib.metadata import version

        raise ImportError(f"scipy's compiled {name} is missing from {folder} (scipy {version('scipy')})")
    fullname = f"scipy.ndimage.{name}"
    spec = importlib.util.spec_from_loader(fullname, importlib.machinery.ExtensionFileLoader(fullname, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(fullname, module)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Raster:
    """Uniform cell lattice: cell i covers origin + [i, i + 1) * spacing per axis.

    Base of Grid and DistanceField, which add the per-cell array (occupancy,
    values) that fixes dim and extents. Axis order is (x,) in 1d and (x, y)
    in 2d.
    """

    origin: np.ndarray
    spacing: float

    @property
    def _cells(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        return self._cells.ndim

    @property
    def extents(self) -> tuple[int, ...]:
        return self._cells.shape

    def centers_at(self, idx: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Centers origin + (idx + 0.5) * spacing of the cells at integer indices:
        idx on one axis when axis is given, else (..., dim) index arrays."""
        origin = self.origin if axis is None else self.origin[axis]
        return origin + (idx + 0.5) * self.spacing

    def centers(self, axis: int) -> np.ndarray:
        return self.centers_at(np.arange(self.extents[axis]), axis)

    def cell_points(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Centers origin + (idx + 0.5) * spacing of the mask's cells (all cells
        when mask is None), in C order, shape (n, dim)."""
        if mask is None:
            idx, shape = np.indices(self.extents, sparse=True), self.extents
        else:
            idx = np.nonzero(mask)
            shape = idx[0].shape
        pts = np.empty(shape + (self.dim,))
        for ax in range(self.dim):
            pts[..., ax] = self.centers_at(idx[ax], ax)
        return pts.reshape(-1, self.dim)

    def indices_of(self, points: np.ndarray) -> np.ndarray:
        """Index floor((p - origin) / spacing) of the cell holding each point,
        shape (n, dim); 1d points may come as a flat array."""
        p = np.asarray(points, dtype=float)
        if self.dim == 1 and p.ndim == 1:
            p = p[:, None]
        return np.floor((p - self.origin) / self.spacing).astype(np.int64)

    def cell_point(self, mask: np.ndarray, n: int) -> np.ndarray:
        """Center of the mask's n-th cell in C order: cell_points(mask)[n], found
        from the cells per row (a 1d mask is one row) and that row's index."""
        rows = np.atleast_2d(mask)
        ends = np.cumsum(rows.sum(axis=1))
        i = int(np.searchsorted(ends, n, side="right"))
        j = np.flatnonzero(rows[i])[n - (ends[i - 1] if i else 0)]
        return self.centers_at(np.array((i, j)[-mask.ndim:]))

    def lattice_slice(self, other: "Raster") -> tuple[slice, ...] | None:
        """The cells of this raster that are other's cells, as one slice per axis,
        when other lies on this lattice and inside it; None otherwise."""
        off = (other.origin - self.origin) / self.spacing
        off_i = np.round(off).astype(np.int64)
        hi = off_i + np.array(other.extents)
        if (
            other.spacing != self.spacing
            or np.any(np.abs(off - off_i) > 1e-6)
            or np.any(off_i < 0)
            or np.any(hi > np.array(self.extents))
        ):
            return None
        return tuple(slice(a, b) for a, b in zip(off_i, hi))

    def flat_cells(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inside, flat C-order index of the cell of each point inside) for the
        points, located once so that several per-cell arrays can be read."""
        idx = self.indices_of(points)
        ok = np.ones(idx.shape[0], dtype=bool)
        for ax in range(self.dim):
            ok &= (idx[:, ax] >= 0) & (idx[:, ax] < self.extents[ax])
        return ok, np.ravel_multi_index(tuple(idx[ok].T), self.extents)


def morphology(occ: np.ndarray, iterations: int = 1, erode: bool = False) -> np.ndarray:
    """Binary dilation by the 3^d box, or erosion by the cross (erode=True,
    cells outside the raster unset), iterations times, in any dimension.

    Dilation ORs each cell with its two neighbours along one axis after the
    other; erosion ANDs each cell with its two neighbours along every axis.
    Equal to scipy.ndimage's binary_dilation / binary_erosion with those
    structures and border_value 0.
    """
    out = np.array(occ, dtype=bool)
    for _ in range(iterations):
        src = out.copy() if erode else out
        for ax in range(out.ndim):
            a, b = np.moveaxis(out, ax, 0), np.moveaxis(src, ax, 0)
            if erode:
                a[1:] &= b[:-1]
                a[:-1] &= b[1:]
                a[:1] = a[-1:] = False
            else:  # in place: the second OR reads the first one's result
                a[1:] |= b[:-1]
                a[:-1] |= b[1:]
    return out


def occupied_box(occ: np.ndarray, margin: int = 0) -> tuple[slice, ...]:
    """Per axis, the slice of occ's set cells grown by margin cells and clipped
    to the array; empty slices when no cell is set."""
    box = []
    for ax in range(occ.ndim):
        hit = np.flatnonzero(occ.any(axis=tuple(a for a in range(occ.ndim) if a != ax)))
        box.append(slice(max(hit[0] - margin, 0), min(hit[-1] + 1 + margin, occ.shape[ax]))
                   if hit.size else slice(0, 0))
    return tuple(box)


def read_cells(cells: np.ndarray, located: tuple[np.ndarray, np.ndarray], outside, dtype) -> np.ndarray:
    """Entries of a per-cell array at points located by Raster.flat_cells; outside elsewhere."""
    ok, flat = located
    out = np.full(ok.size, outside, dtype=dtype)
    out[ok] = np.take(cells, flat)
    return out


@dataclass(frozen=True)
class Grid(Raster):
    """Uniform binary raster."""

    occupancy: np.ndarray

    def __post_init__(self):
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.ndim != origin.shape[0]:
            raise ConfigError("occupancy rank must match origin dimension")
        if self.spacing <= 0:
            raise ConfigError("spacing must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "occupancy", occ)

    @property
    def _cells(self) -> np.ndarray:
        return self.occupancy

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def count(self) -> int:
        return int(self.occupancy.sum())

    def area(self) -> float:
        """Lebesgue estimate of the occupied region."""
        return self.count() * self.cell_volume

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Occupancy at the cells containing the given points (False outside)."""
        return read_cells(self.occupancy, self.flat_cells(points), False, bool)

    def with_occupancy(self, occ: np.ndarray) -> "Grid":
        return Grid(self.origin, self.spacing, occ)

    def embed_into(self, origin: np.ndarray, extents: tuple[int, ...]) -> np.ndarray:
        """Occupancy re-indexed onto a larger lattice-aligned grid."""
        out = Grid(origin, self.spacing, np.zeros(extents, dtype=bool))
        sel = out.lattice_slice(self)
        if sel is None:
            raise ConfigError("grids are not lattice-aligned")
        out.occupancy[sel] = self.occupancy
        return out.occupancy

    def cropped(self, margin: int) -> "Grid":
        """The box of the occupied cells grown by margin cells (clipped to the
        raster), on the same lattice."""
        sel = occupied_box(self.occupancy, margin)
        return Grid(self.origin + np.array([s.start for s in sel]) * self.spacing, self.spacing,
                    self.occupancy[sel])

    def boundary_cells(self) -> np.ndarray:
        """Occupied cells 4-adjacent to an unoccupied (or outside) cell."""
        return self.occupancy & ~morphology(self.occupancy, erode=True)

    def to_pgm(self, path) -> None:
        """Binary PGM (P5), occupied = white. 1d grids export as a 1-row image."""
        occ = self.occupancy
        img = (occ[None, :] if self.dim == 1 else occ.T[::-1])  # y up
        data = np.where(img, 255, 0).astype(np.uint8)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
            fh.write(data.tobytes())


def grid_from_bbox(bbox, delta: float) -> Grid:
    """Empty grid covering bbox = (lo, hi) with uniform spacing delta.

    Refuses grids of more than MAX_CELLS cells; the count is checked in
    float, before the cast to int could overflow.
    """
    lo = np.atleast_1d(np.asarray(bbox[0], dtype=float))
    hi = np.atleast_1d(np.asarray(bbox[1], dtype=float))
    n = np.maximum(1, np.round((hi - lo) / delta))
    cells = float(np.prod(n))
    if not cells <= MAX_CELLS:  # also refuses an inf or nan count
        raise ResolutionError(f"grid of {cells:.6g} cells exceeds the cap of {MAX_CELLS}")
    return Grid(lo, delta, np.zeros(tuple(n.astype(int)), dtype=bool))


# ---------------------------------------------------------------------------
# regions


class Region:
    """An open set, tested at points or on per-axis coordinate arrays."""

    dim: int

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership of points of shape (n, dim) (flat in 1d)."""
        p = np.asarray(points, dtype=float).reshape(-1, self.dim)
        return self.contains_axes(*p.T)

    def contains_axes(self, *coords: np.ndarray) -> np.ndarray:
        """Membership of the points whose per-axis coordinates coords broadcast
        against each other, in their broadcast shape."""
        raise NotImplementedError

    def bbox(self):
        raise NotImplementedError


@dataclass(frozen=True)
class IntervalUnion(Region):
    """Union of open intervals on the line."""

    intervals: tuple[tuple[float, float], ...]
    dim = 1

    def __post_init__(self):
        for a, b in self.intervals:
            if not a < b:
                raise ConfigError(f"interval ({a!r}, {b!r}) is empty or reversed: need left end < right end")

    def contains_axes(self, x):
        out = np.zeros(np.shape(x), dtype=bool)
        for a, b in self.intervals:
            out |= (x > a) & (x < b)
        return out

    def bbox(self):
        a = min(iv[0] for iv in self.intervals)
        b = max(iv[1] for iv in self.intervals)
        return np.array([a]), np.array([b])


@dataclass(frozen=True)
class ConvexPolygon(Region):
    """Open convex polygon, vertices in counterclockwise order."""

    vertices: np.ndarray
    dim = 2

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ConfigError("polygon needs >= 3 planar vertices")
        # convex: every turn between consecutive edges goes the same way, once around
        e = np.roll(v, -1, axis=0) - v
        e_next = np.roll(e, -1, axis=0)
        cross = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
        turning = np.arctan2(cross, np.sum(e * e_next, axis=1)).sum()
        if (cross > 0).any() and (cross < 0).any() or abs(turning) > 3 * np.pi:
            raise ConfigError(f"polygon vertices {v.tolist()} do not bound a convex polygon")
        # enforce ccw orientation
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 < 0:
            v = v[::-1]
        object.__setattr__(self, "vertices", v)

    def contains_axes(self, x, y):
        v = self.vertices
        out = np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=bool)
        for i in range(v.shape[0]):
            a, b = v[i], v[(i + 1) % v.shape[0]]
            edge = b - a
            out &= (edge[0] * (y - a[1]) - edge[1] * (x - a[0])) > 0
        return out

    def bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass(frozen=True)
class PolygonUnion(Region):
    polygons: tuple[ConvexPolygon, ...]
    dim = 2

    def contains_axes(self, x, y):
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=bool)
        for poly in self.polygons:
            out |= poly.contains_axes(x, y)
        return out

    def bbox(self):
        los, his = zip(*(poly.bbox() for poly in self.polygons))
        return np.min(los, axis=0), np.max(his, axis=0)


def rasterize(region: Region, bbox, delta: float) -> Grid:
    """Center-in-region raster of an open set on the given bbox (at most MAX_CELLS cells).

    The region is evaluated on the per-axis center vectors broadcast against
    each other, so no (n, dim) array of centers is built.
    """
    g = grid_from_bbox(bbox, delta)
    return g.with_occupancy(region.contains_axes(*np.ix_(*(g.centers(a) for a in range(g.dim)))))


# ---------------------------------------------------------------------------
# distance fields


@dataclass(frozen=True)
class DistanceField(Raster):
    """Per-cell Euclidean distance to the nearest occupied cell center."""

    values: np.ndarray

    @property
    def _cells(self) -> np.ndarray:
        return self.values

    def sample_at(self, points: np.ndarray, outside=np.inf) -> np.ndarray:
        """Nearest-cell lookup of the field at arbitrary points."""
        return read_cells(self.values, self.flat_cells(points), outside, float)

    def sample_cells(self, grid: Raster, mask: np.ndarray | None = None, outside=np.inf) -> np.ndarray:
        """The field at the centers of grid's cells where mask is set (all cells
        when mask is None), in C order: sample_at(grid.cell_points(mask)).

        When grid lies on the field's lattice and inside it, each center lies
        in the field cell at a fixed index offset, so the values are read by
        slicing the field and no center is built.
        """
        sel = self.lattice_slice(grid)
        if sel is None:
            return self.sample_at(grid.cell_points(mask), outside)
        vals = self.values[sel]
        return (vals.ravel() if mask is None else vals[mask]).astype(float)

    def border_min(self) -> float:
        """Smallest value on the raster's border cells."""
        f = self.values
        return float(min(np.take(f, [0, -1], axis=ax).min() for ax in range(f.ndim)))


EDT_STRIP_CELLS = 1 << 13  # cells per strip of rows when distances are taken from the EDT


def _edt(background: np.ndarray, spacing: float, pad: int = 0) -> np.ndarray:
    """float32 distances from each cell of background, less pad cells on every
    side, to the nearest 0 cell of background, times spacing: bit-identical
    to (distance_transform_edt(background) * spacing).astype(float32) cropped.

    In 1-d the nearest 0 cell on each side is a running max and a running
    min of the 0 cells' indices; scipy's sqrt(float64(dx**2)) is |dx|
    exactly, whichever of two equally near 0 cells it picks. In 2-d the
    exact feature transform ft is computed once, by scipy's compiled
    _nd_image.euclidean_feature_transform called as distance_transform_edt
    calls it (int8 input, no sampling, a zeroed int32 ft). The distances are
    then taken one strip of rows (about EDT_STRIP_CELLS cells) at a time in
    buffers of one strip, with the float64 operations scipy's
    distance_transform_edt applies to the whole array (integer offsets,
    squares, their sum, sqrt).
    """
    if background.ndim == 1:
        i = np.arange(background.size, dtype=np.int32)
        far = np.int32(1 << 30)  # beyond any index: MAX_CELLS < 2**30
        left = np.maximum.accumulate(np.where(background, -far, i))
        right = np.minimum.accumulate(np.where(background, far, i)[::-1])[::-1]
        return (np.minimum(i - left, right - i)[pad : background.size - pad] * spacing).astype(np.float32)
    ft = np.zeros((background.ndim,) + background.shape, dtype=np.int32)
    _load_ndimage_kernel("_nd_image").euclidean_feature_transform(background.view(np.int8), None, ft)
    if pad:
        ft = ft[(slice(None),) + (slice(pad, -pad),) * background.ndim]
    out = np.empty(ft.shape[1:], dtype=np.float32)
    row_cells = max(1, int(np.prod(out.shape[1:])))
    rows = max(1, min(out.shape[0], EDT_STRIP_CELLS // row_cells))
    # indices of the first strip's cells in background's frame; the strip at
    # row r0 subtracts r0 more along axis 0
    idx = np.indices((rows,) + out.shape[1:], dtype=np.int32) + pad
    dt = np.empty(idx.shape)
    dist = np.empty(idx.shape[1:])
    for r0 in range(0, out.shape[0], rows):
        n = min(rows, out.shape[0] - r0)
        d, s = dt[:, :n], dist[:n]
        np.subtract(ft[:, r0 : r0 + n], idx[:, :n], out=d)
        d[0] -= r0
        np.multiply(d, d, out=d)
        np.add.reduce(d, axis=0, out=s)
        np.sqrt(s, out=s)
        np.multiply(s, spacing, out=s)
        out[r0 : r0 + n] = s
    return out


def distance_transform(grid: Grid) -> DistanceField:
    """Exact EDT: distance from every cell center to the nearest occupied one.

    Matches the all-pairs brute force exactly (integer cell offsets: a
    running max and min of the 0 cells' indices in 1-d, scipy's compiled
    exact feature transform in 2-d; see _edt). Values are stored as float32
    (~1e-7 relative, far below the half-cell tolerances; it halves the
    footprint of the large padded fields). Memory: the int32 feature
    transform (4 bytes per cell per axis) and the boolean background, which
    the kernel reads as int8 without a copy, live through the call, and the
    float64 distances are taken one strip of rows at a time (_edt), so a 2-d
    transform peaks at about 13 bytes per cell with the output.
    """
    if not grid.occupancy.any():
        raise ResolutionError("distance transform of an empty grid")
    return DistanceField(grid.origin, grid.spacing, _edt(~grid.occupancy, grid.spacing))


def inner_distance(grid: Grid) -> DistanceField:
    """Distance to the complement (distance-to-boundary proxy inside the set).

    Values are positive on occupied cells and 0 on the complement; cells on
    the raster border count the outside as complement.
    """
    occ = np.pad(grid.occupancy, 1, constant_values=False)
    return DistanceField(grid.origin, grid.spacing, _edt(occ, grid.spacing, pad=1))


def parallel_volume(f: DistanceField, eps: float) -> float:
    """Lebesgue volume of the eps-parallel set, by cell counting."""
    if eps < 0:
        raise ConfigError("eps must be >= 0")
    return float(np.count_nonzero(f.values <= eps)) * f.spacing**f.dim


def inner_parallel_volume(region: Grid, eps: float) -> float:
    """Volume of the inner eps-collar {x in U : d(x, U^c) <= eps}."""
    if eps < 0:
        raise ConfigError("eps must be >= 0")
    inner = inner_distance(region)
    vals = inner.values[region.occupancy]
    return float(np.count_nonzero((vals > 0) & (vals <= eps))) * region.cell_volume


def inradius(region: Grid) -> float:
    """Largest distance-to-complement over the region's cells."""
    if not region.occupancy.any():
        raise ResolutionError("inradius of an empty region")
    return float(inner_distance(region).values.max())
