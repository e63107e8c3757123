"""Level-set extraction on distance fields: length, turning, Euler number.

Marching squares with linear interpolation on the four cell-center corners
of each dual cell. Segments are oriented with the sublevel set {f <= eps}
on the left, so summed exterior angles of a closed curve give +2pi per
counterclockwise loop (component) and -2pi per clockwise loop (hole);
(1/2pi) * total turning therefore reproduces the Euler characteristic.
Saddles always disconnect the inside diagonal (set 4-connected, complement
8-connected), keeping the polygon topology consistent with the quad-count
Euler characteristic.

An extractor may be confined to a window of dual cells (one row slice and
one column slice). It sweeps, indexes and extracts only those cells, but
keeps every index in the field's frame, so each segment it returns is the
full-field extract's segment with the same points, edge ids and order, and
a masked sum over segments that all lie in the window has the float
operations of the full-field one. A chain may then leave the window: it
is open at the window's edge, a mask that selects an open segment is
refused, and so is a whole-field sum (mask=None).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResolutionError
from .grids import DistanceField, Grid, _load_ndimage_kernel, read_cells, sorted_unique

# Per-case directed segments (in_edge -> out_edge), edges B=0, R=1, T=2, L=3.
# Corner bits: 1 = (i,j), 2 = (i+1,j), 4 = (i+1,j+1), 8 = (i,j+1).
_CASES = (
    (), ((0, 3),), ((1, 0),), ((1, 3),), ((2, 1),), ((0, 3), (2, 1)), ((2, 0),), ((2, 3),),
    ((3, 2),), ((0, 2),), ((1, 0), (3, 2)), ((1, 2),), ((3, 1),), ((0, 1),), ((3, 0),), (),
)
# The case table: one (in_edge, out_edge) row per (case, segment slot), in case order
_SEGMENTS = np.array([seg for segs in _CASES for seg in segs], dtype=np.intp)
_N_SEG = np.array([len(segs) for segs in _CASES], dtype=np.uint8)
_FIRST_ROW = (np.cumsum(_N_SEG) - _N_SEG).astype(np.uint8)
# Per edge: its two corners (bit positions, crossing at t = 0 and t = 1) and
# the crossing point at t = 0 in index units
_EDGE_CORNERS = np.array([[0, 1], [1, 2], [3, 2], [0, 3]])
_EDGE_START = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [0.5, 0.5]])
_CORNER_BITS = np.array([[1], [2], [4], [8]], dtype=np.uint8)
_STRIP_CELLS = 1 << 17  # dual cells per strip of each sweep


@dataclass
class LevelSet:
    """Oriented segment soup for one threshold, in physical coordinates."""

    p_in: np.ndarray  # (m, 2) segment start points
    p_out: np.ndarray  # (m, 2) segment end points
    ein: np.ndarray  # (m,) global edge id carrying the start crossing
    eout: np.ndarray  # (m,) global edge id carrying the end crossing
    cell_ij: np.ndarray  # (m, 2) dual-cell index of each segment


class LevelSetExtractor:
    """Reusable marching-squares engine for one distance field.

    A dual cell crosses the threshold eps when fmin <= eps < fmax, its
    corner minimum and maximum compared in float32. The constructor keeps
    nothing per cell; index(eps) sweeps the cells once for a whole threshold
    list, counting strip by strip the thresholds below each corner, and
    keeps each cell that crosses one of them once, keyed by the first
    threshold it crosses, with the one after its last. extract() reads its
    band from there; a threshold that was never indexed is swept on its own.

    window, a (rows, columns) pair of slices of dual cells, confines the
    sweep, the index and extract() to those cells (the module docstring
    gives the rules); None is the whole field. The contact check reads the
    whole field's border either way. The index holds window-flat cells;
    _band returns them in the field's frame.
    """

    def __init__(self, field: DistanceField, window: tuple[slice, slice] | None = None):
        if field.dim != 2:
            raise ResolutionError("level sets are only defined on 2d fields")
        self.field = field
        f = field.values
        nx, ny = f.shape
        ring = np.concatenate([f[0, :], f[-1, :], f[:, 0], f[:, -1]])
        self._ring_min = float(ring.min())
        self._ring_max = float(ring.max())
        self._n_xedges = (nx - 1) * ny
        # flat offsets of the corners (bit order) from a dual cell's first corner
        self._corner_offsets = np.array([0, ny, ny + 1, 1])[:, None]
        if window is None:
            window = (slice(None), slice(None))
        # (first, stop) of the window's dual-cell rows, then of its columns
        self._window = tuple(s.indices(n - 1)[:2] for s, n in zip(window, f.shape))
        self._windowed = self._window != ((0, nx - 1), (0, ny - 1))
        self._index = self._sweep(np.empty(0, np.float32))

    @cached_property
    def _fmin(self) -> np.ndarray:
        """float32 fmin of every dual cell of the window, flat in row-major
        order, built when read. No library path reads it; bench/tracer.py
        counts its size as cells scanned, which on a bundle's extractor is O's
        window."""
        (r0, r1), (c0, c1) = self._window
        f = self.field.values[r0 : r1 + 1, c0 : c1 + 1]
        m = np.minimum(f[:-1], f[1:])
        return np.minimum(m[:, :-1], m[:, 1:]).astype(np.float32, copy=False).ravel()

    def index(self, eps) -> None:
        """Sweep the dual cells once for the thresholds eps, so extract() at any
        of them reads its band; the thresholds indexed before stay indexed."""
        known = self._index[0]
        new = np.float32([self._nudge(float(e)) for e in np.ravel(eps)])
        levels = sorted_unique(np.concatenate([new, known]))
        if levels.size > known.size:
            self._index = self._sweep(levels)

    def _sweep(self, levels: np.ndarray):
        """(levels, band cells, last levels, group starts, widest count) for the
        sorted float32 thresholds levels: the window-flat dual cells that cross
        one, grouped by the first one they cross, row-major within a group.

        Each corner counts the levels below its float32 value, so a dual cell
        crosses (fmin <= level < fmax) exactly the levels first .. last - 1,
        first and last its corners' smallest and largest counts."""
        (r0, r1), (c0, c1) = self._window
        f = self.field.values[r0 : r1 + 1, c0 : c1 + 1]
        key = np.min_scalar_type(levels.size)
        rows = max(1, _STRIP_CELLS // max(f.shape[1] - 1, 1))
        cells, first, last = [np.empty(0, np.int32)], [np.empty(0, key)], [np.empty(0, key)]
        for r in range(0, f.shape[0] - 1, rows) if levels.size else ():
            n = np.searchsorted(levels, f[r : r + rows + 1].astype(np.float32, copy=False)).astype(key)
            lo, hi = np.minimum(n[:-1], n[1:]), np.maximum(n[:-1], n[1:])
            lo, hi = np.minimum(lo[:, :-1], lo[:, 1:]).ravel(), np.maximum(hi[:, :-1], hi[:, 1:]).ravel()
            k = np.flatnonzero(lo < hi)
            cells.append((k + r * (f.shape[1] - 1)).astype(np.int32))  # int32 holds any MAX_CELLS grid
            first.append(lo[k])
            last.append(hi[k])
        cells, first, last = map(np.concatenate, (cells, first, last))
        order = np.argsort(first, kind="stable")  # by first level, then row-major
        starts = np.zeros(levels.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(first, minlength=levels.size), out=starts[1:])
        return levels, cells[order], last[order], starts, int((last - first).max(initial=1))

    def _check_contact(self, eps: float) -> None:
        # {f = eps} runs past the raster when the border lies partly in
        # {f <= eps}, or wholly in it with no cell of the set itself on it
        # (ring_min > 0). A border that reaches f = 0, as inner_distance's
        # outside-is-complement border does, closes every level set inside.
        if self._ring_min <= eps and (eps < self._ring_max or self._ring_min > 0):
            raise ResolutionError(
                f"level set at eps={eps:g} touches the grid boundary; enlarge the bbox"
            )

    def _nudge(self, eps: float) -> float:
        # break exact field-value ties (lattice distances hit round eps
        # exactly, and float32 storage collapses near-ties onto them); the
        # shift clears the float32 ULP yet stays far below one cell
        return eps + 5e-7 * max(abs(eps), self.field.spacing)

    def _corners(self, k: np.ndarray) -> np.ndarray:
        """(4, n) corner values of the flat dual cells k, in corner-bit order."""
        q = k + k // (self.field.values.shape[1] - 1)  # flat index of corner (i, j)
        return np.take(self.field.values, q + self._corner_offsets)

    def _band(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (i, j) in the field's frame of the window's dual cells with
        fmin <= eps < fmax, as np.nonzero gives them."""
        e = np.float32(eps)
        levels, cells, last, starts, widest = self._index
        t = int(np.searchsorted(levels, e))
        if t == levels.size or levels[t] != e:
            levels, cells, last, starts, widest = self._sweep(np.array([e]))
            t = 0
        # a cell keyed by level g crosses levels g .. last - 1, at most widest of them
        run = slice(starts[max(0, t + 1 - widest)], starts[t + 1])
        k = np.sort(cells[run][last[run] > t]).astype(np.intp)
        (r0, _), (c0, c1) = self._window
        i, j = np.divmod(k, c1 - c0)
        return i + r0, j + c0

    def extract(self, eps: float) -> LevelSet:
        """The segments of {f = eps}, ordered by case code, then segment slot, then row-major."""
        eps = self._nudge(eps)
        self._check_contact(eps)
        ny = self.field.values.shape[1]
        i, j = self._band(eps)
        k = i * (ny - 1) + j
        n = k.size
        c = self._corners(k)
        code = ((c <= eps).view(np.uint8) * _CORNER_BITS).sum(axis=0, dtype=np.uint8)
        # one table row per segment: every cell's first slot, then the
        # saddles' second; a stable sort by row keeps row-major order per row
        one, two = np.flatnonzero(_N_SEG[code]), np.flatnonzero(_N_SEG[code] == 2)
        row = np.concatenate([_FIRST_ROW[code[one]], _FIRST_ROW[code[two]] + 1])
        order = np.argsort(row, kind="stable")
        src = np.concatenate([one, two])[order]
        at = (_SEGMENTS.T[:, row[order]] * n + src).ravel()  # (edge, cell) of in-, then out-crossings
        # per edge and band cell: crossing parameter t, point and global edge id
        a, b = c[_EDGE_CORNERS[:, 0]], c[_EDGE_CORNERS[:, 1]]
        t = np.clip((eps - a) / np.where(b == a, np.inf, b - a), 0.0, 1.0)
        x, y = i + _EDGE_START[:, :1], j + _EDGE_START[:, 1:]
        x[0::2] += t[0::2]  # t moves along x on B and T, along y on R and L
        y[1::2] += t[1::2]
        origin, delta = self.field.origin, self.field.spacing
        p = _columns(np.take(x, at) * delta + origin[0], np.take(y, at) * delta + origin[1])
        # x-edge (i, j) is i * ny + j; y-edge (i, j) follows all x-edges at i * (ny - 1) + j
        eid = np.empty((4, n), dtype=np.int64)
        eid[0::2], eid[1::2] = k + i, k + self._n_xedges
        eid = np.take(eid + np.array([[0], [ny - 1], [1], [0]]), at)
        m = src.size
        return LevelSet(p[:m], p[m:], eid[:m], eid[m:], _columns(i[src], j[src]))

    def measure(self, eps: float, mask: np.ndarray | Grid | None = None):
        """(length, signed turning, absolute turning) at one threshold.

        Lengths count segments whose midpoint falls in a mask cell; turning
        angles count crossings whose vertex falls in a mask cell. Angles at
        a crossing join the unique incoming and outgoing segments.
        """
        return self.measure_masks(self.extract(eps), [mask])[0]

    def measure_masks(self, ls: LevelSet, masks) -> list[tuple[float, float, float]]:
        """measure() of one level set, already extracted from this field, for each mask in masks.

        The segments are matched and their turning angles taken once; the
        cells holding the midpoints and the start points are located once,
        and each mask is one gather at them. In a window, a chain may open
        only at the window's edge, and a mask that selects an open segment
        (by its midpoint or its start) is refused, as is mask=None.
        """
        ms = [_as_mask(m, self.field) for m in masks]
        if self._windowed and any(m is None for m in ms):
            raise ResolutionError("a windowed level-set extractor measures only inside a mask")
        if ls.ein.size == 0:
            return [(0.0, 0.0, 0.0)] * len(ms)
        seg_vec = ls.p_out - ls.p_in
        lengths = np.hypot(seg_vec[:, 0], seg_vec[:, 1])

        # match: the segment entering edge e is the one with eout == e
        order = np.argsort(ls.eout)
        eout_sorted = ls.eout[order]
        pos = np.minimum(np.searchsorted(eout_sorted, ls.ein), order.size - 1)
        opened = eout_sorted[pos] != ls.ein
        if opened.any() and not np.all(self._on_window_edge(ls.ein[opened])):
            raise ResolutionError("open level-set chain (grid boundary contact?)")
        d_in = np.take(seg_vec, order[pos], axis=0)
        d_out = seg_vec
        cross = d_in[:, 0] * d_out[:, 1] - d_in[:, 1] * d_out[:, 0]
        dot = d_in[:, 0] * d_out[:, 0] + d_in[:, 1] * d_out[:, 1]
        ang = np.arctan2(cross, dot)

        if any(m is not None for m in ms):
            mids = self.field.flat_cells(0.5 * (ls.p_in + ls.p_out))
            starts = self.field.flat_cells(ls.p_in)
        out = []
        for m in ms:
            if m is None:
                out.append((float(lengths.sum()), float(ang.sum()), float(np.abs(ang).sum())))
                continue
            by_mid, by_start = read_cells(m, mids, False, bool), read_cells(m, starts, False, bool)
            if np.any((by_mid | by_start) & opened):
                raise ResolutionError("a mask reaches the level-set extractor's window edge")
            a = ang[by_start]
            out.append((float(lengths[by_mid].sum()), float(a.sum()), float(np.abs(a).sum())))
        return out

    def _on_window_edge(self, eid: np.ndarray) -> np.ndarray:
        """Whether each edge id is an edge between a window cell and a field
        cell outside the window (never on a whole-field extractor)."""
        nx, ny = self.field.values.shape
        (r0, r1), (c0, c1) = self._window
        # x-edge (i, j) joins dual cells (i, j - 1) and (i, j); y-edge (i, j)
        # joins (i - 1, j) and (i, j)
        x = eid < self._n_xedges
        at = np.where(x, eid % ny, (eid - self._n_xedges) // (ny - 1))
        lo, hi, n = np.where(x, c0, r0), np.where(x, c1, r1), np.where(x, ny - 1, nx - 1)
        return ((at == lo) & (lo > 0)) | ((at == hi) & (hi < n))

    def level_set_cells(self, ls: LevelSet, mask: np.ndarray | Grid | None = None) -> np.ndarray:
        """Boolean raster of the dual cells carrying segments (mask-filtered by
        midpoint); a windowed extractor needs the mask."""
        m = _as_mask(mask, self.field)
        if self._windowed and m is None:
            raise ResolutionError("a windowed level-set extractor marks cells only inside a mask")
        out = np.zeros(self.field.values.shape, dtype=bool)
        if ls.cell_ij.size:
            keep = np.ones(ls.cell_ij.shape[0], dtype=bool)
            if m is not None:
                keep = read_cells(m, self.field.flat_cells(0.5 * (ls.p_in + ls.p_out)), False, bool)
            out[ls.cell_ij[keep, 0], ls.cell_ij[keep, 1]] = True
        return out


def _columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 2) array of two columns (faster than np.column_stack)."""
    out = np.empty((x.size, 2), dtype=np.result_type(x, y))
    out[:, 0], out[:, 1] = x, y
    return out


def _as_mask(mask, field) -> np.ndarray | None:
    if mask is None:
        return None
    m = mask.occupancy if isinstance(mask, Grid) else np.asarray(mask, dtype=bool)
    if m.shape != field.values.shape:
        raise ResolutionError("mask must live on the field's grid (embed it first)")
    return m


def euler_characteristic(occ: np.ndarray) -> int:
    """Euler number of a binary raster, set 4-connected / complement 8-connected."""
    p = np.pad(np.asarray(occ, dtype=bool), 1, constant_values=False)
    a = p[:-1, :-1]
    b = p[1:, :-1]
    c = p[1:, 1:]
    d = p[:-1, 1:]
    s = a.astype(np.int8) + b + c + d
    n1 = int(np.count_nonzero(s == 1))
    n3 = int(np.count_nonzero(s == 3))
    nd = int(np.count_nonzero((a & c & ~b & ~d) | (b & d & ~a & ~c)))
    chi4 = n1 - n3 + 2 * nd
    if chi4 % 4:
        raise ResolutionError("inconsistent quad counts in Euler computation")
    return chi4 // 4


def euler_and_turning(
    f: DistanceField, eps: float, extractor: LevelSetExtractor | None = None
) -> tuple[int, float]:
    """Euler characteristic of {f <= eps} and (1/2pi) * the total turning of {f = eps}.

    The two agree by the polygonal Gauss-Bonnet theorem, up to interpolation
    noise; the comparison is the structural self-test of the curvature
    pipeline. The turning is the whole field's, so a windowed extractor is
    refused.
    """
    ex = extractor or LevelSetExtractor(f)
    _, turn, _ = ex.measure(eps)
    chi = euler_characteristic(f.values <= ex._nudge(eps))
    return chi, turn / (2.0 * np.pi)


def contour_components(cells: np.ndarray) -> int:
    """Connected components (8-connected) of a boolean raster of contour cells.

    scipy's compiled _ni_label._label, called as ndimage.label calls it with
    the 3x3 structure; an int32 output holds any label count below MAX_CELLS.
    """
    if not cells.any():
        return 0
    label = _load_ndimage_kernel("_ni_label")._label
    return int(label(cells, np.ones((3, 3), dtype=bool), np.empty(cells.shape, np.int32)))
