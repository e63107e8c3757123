"""Level-set extraction on distance fields: length, turning, Euler number.

Marching squares with linear interpolation on the four cell-center corners
of each dual cell. Segments are oriented with the sublevel set {f <= eps}
on the left, so summed exterior angles of a closed curve give +2pi per
counterclockwise loop (component) and -2pi per clockwise loop (hole);
(1/2pi) * total turning therefore reproduces the Euler characteristic.
Saddles always disconnect the inside diagonal (set 4-connected, complement
8-connected), keeping the polygon topology consistent with the quad-count
Euler characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ResolutionError
from .grids import DistanceField, Grid, read_cells

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
_MAX_BIN = np.iinfo(np.uint16).max  # bin keys of the extractor's corner-minimum index
_SORT_CHUNK = 1 << 17  # dual cells per strip and per sort chunk when the extractor builds that index


@dataclass
class LevelSet:
    """Oriented segment soup for one threshold, in physical coordinates."""

    p_in: np.ndarray  # (m, 2) segment start points
    p_out: np.ndarray  # (m, 2) segment end points
    ein: np.ndarray  # (m,) global edge id carrying the start crossing
    eout: np.ndarray  # (m,) global edge id carrying the end crossing
    cell_ij: np.ndarray  # (m, 2) dual-cell index of each segment

    @property
    def lengths(self) -> np.ndarray:
        return np.hypot(*(self.p_out - self.p_in).T)


class LevelSetExtractor:
    """Reusable marching-squares engine for one distance field.

    The dual cells are indexed once by the bin floor(fmin / spacing) of
    their corner minimum fmin. A cell crosses the threshold eps only when
    fmin <= eps < fmax, and fmax - fmin never exceeds the field's widest
    corner spread w, so each threshold reads only the bins that cover
    (eps - w, eps] instead of scanning every cell.
    """

    def __init__(self, field: DistanceField):
        if field.dim != 2:
            raise ResolutionError("level sets are only defined on 2d fields")
        self.field = field
        f = field.values
        self._scale = np.float32(1.0 / field.spacing)
        nx, ny = f.shape
        self._fmin = np.empty((nx - 1, ny - 1), dtype=np.float32)
        key = np.empty(self._fmin.size, dtype=np.uint16)
        # bin counts, summed over the strips, then their running total
        self._starts = np.zeros(_MAX_BIN + 2, dtype=np.int64)
        self._width = 0.0
        # corner minima, bin keys and widest corner spread, one strip of rows at a time
        rows = max(1, _SORT_CHUNK // max(ny - 1, 1))
        for r0 in range(0, nx - 1, rows):
            fmin = self._fmin[r0 : r0 + rows]
            kc = key[r0 * (ny - 1) : (r0 + fmin.shape[0]) * (ny - 1)]
            self._width = max(self._width, self._index_strip(f[r0 : r0 + rows + 1], fmin, kc))
            self._starts[1:] += np.bincount(kc, minlength=_MAX_BIN + 1)
        np.cumsum(self._starts, out=self._starts)
        # Cells grouped by bin, as int32 (which holds any MAX_CELLS grid).
        # Each chunk is argsorted by key (numpy's stable sort of 16-bit keys
        # is a radix sort) and its bin runs go after those of the earlier
        # chunks. Chunks keep the int64 argsort output and bincount's int64
        # copy of the keys small: full-size ones raised a pass's peak RSS.
        self._order = np.empty(key.size, dtype=np.int32)
        fill = self._starts[:-1].copy()
        for c in range(0, key.size, _SORT_CHUNK):
            kc = key[c : c + _SORT_CHUNK]
            n_c = np.bincount(kc, minlength=_MAX_BIN + 1)
            dest = np.repeat(fill - (np.cumsum(n_c) - n_c), n_c)
            dest += np.arange(kc.size)
            src = np.argsort(kc, kind="stable")
            src += c
            self._order[dest] = src
            fill += n_c
            del dest, src  # before the next chunk's bincount copies its keys
        del key
        ring = np.concatenate([f[0, :], f[-1, :], f[:, 0], f[:, -1]])
        self._ring_min = float(ring.min())
        self._ring_max = float(ring.max())
        self._n_xedges = (nx - 1) * ny
        # flat offsets of the corners (bit order) from a dual cell's first corner
        self._corner_offsets = np.array([0, ny, ny + 1, 1])[:, None]

    def _index_strip(self, s: np.ndarray, fmin: np.ndarray, key: np.ndarray) -> float:
        """Fill fmin and key with the corner minima and their bin keys of the dual
        cells between the rows of s; return the cells' widest corner spread."""
        # corner min and max by pairwise passes, rows then columns (exact)
        pair = np.minimum(s[:-1], s[1:])
        np.minimum(pair[:, :-1], pair[:, 1:], out=fmin)
        np.maximum(s[:-1], s[1:], out=pair)
        fmax = np.maximum(pair[:, :-1], pair[:, 1:]).astype(np.float32, copy=False)
        key[...] = self._bins(fmin.ravel())
        # measured, not sqrt(2) * spacing: the field need not be 1-Lipschitz
        return float(np.subtract(fmax, fmin, out=fmax).max(initial=0.0))

    def _bins(self, x) -> np.ndarray:
        """Bin keys floor(x * (1 / spacing)) in float32 arithmetic, clamped to 16 bits."""
        k = np.asarray(x, dtype=np.float32) * self._scale
        np.floor(k, out=k)
        return np.clip(k, 0, _MAX_BIN, out=k).astype(np.uint16)

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
        """Row-major (i, j) of the dual cells with fmin <= eps < fmax, as np.nonzero gives them."""
        # fmin > eps - w, up to the float32 rounding of w and of eps (2^-24
        # relative each), which the 2^-22 slack covers; keys are monotone in
        # the value, so bins key(lo)..key(eps) hold every band cell
        w = self._width
        lo, hi = (int(b) for b in self._bins([eps - w - (abs(eps) + w) * 2.0**-22, eps]))
        cand = self._order[self._starts[lo] : self._starts[hi + 1]]
        c = self._corners(cand)
        keep = (c.min(axis=0).astype(np.float32, copy=False) <= eps) & (
            c.max(axis=0).astype(np.float32, copy=False) > eps
        )
        k = np.sort(cand[keep]).astype(np.intp)
        i = k // (self.field.values.shape[1] - 1)
        return i, k - i * (self.field.values.shape[1] - 1)

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
        return self.measure_level_set(self.extract(eps), mask)

    def measure_level_set(self, ls: LevelSet, mask: np.ndarray | Grid | None = None):
        """measure() of a level set already extracted from this field."""
        return self.measure_masks(ls, [mask])[0]

    def measure_masks(self, ls: LevelSet, masks) -> list[tuple[float, float, float]]:
        """measure_level_set() of one level set for each mask in masks.

        The segments are matched and their turning angles taken once; the
        cells holding the midpoints and the start points are located once,
        and each mask is one gather at them.
        """
        ms = [_as_mask(m, self.field) for m in masks]
        if ls.ein.size == 0:
            return [(0.0, 0.0, 0.0)] * len(ms)
        seg_vec = ls.p_out - ls.p_in
        lengths = np.hypot(seg_vec[:, 0], seg_vec[:, 1])

        # match: the segment entering edge e is the one with eout == e
        order = np.argsort(ls.eout)
        eout_sorted = ls.eout[order]
        pos = np.searchsorted(eout_sorted, ls.ein)
        if pos.max(initial=-1) >= order.size or not np.array_equal(eout_sorted[pos], ls.ein):
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
            a = ang[read_cells(m, starts, False, bool)]
            out.append((float(lengths[read_cells(m, mids, False, bool)].sum()),
                        float(a.sum()), float(np.abs(a).sum())))
        return out

    def level_set_cells(self, ls: LevelSet, mask: np.ndarray | Grid | None = None) -> np.ndarray:
        """Boolean raster of the dual cells carrying segments (mask-filtered by midpoint)."""
        out = np.zeros(self.field.values.shape, dtype=bool)
        if ls.cell_ij.size:
            keep = np.ones(ls.cell_ij.shape[0], dtype=bool)
            m = _as_mask(mask, self.field)
            if m is not None:
                keep = self.field.values_at(m, 0.5 * (ls.p_in + ls.p_out), False, bool)
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
    s = (
        a.astype(np.int8)
        + b.astype(np.int8)
        + c.astype(np.int8)
        + d.astype(np.int8)
    )
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
    pipeline.
    """
    ex = extractor or LevelSetExtractor(f)
    _, turn, _ = ex.measure(eps)
    chi = euler_characteristic(f.values <= ex._nudge(eps))
    return chi, turn / (2.0 * np.pi)


def contour_components(cells: np.ndarray) -> int:
    """Connected components (8-connected) of a boolean raster of contour cells."""
    if not cells.any():
        return 0
    _, n = ndimage.label(cells, structure=np.ones((3, 3), dtype=int))
    return int(n)
