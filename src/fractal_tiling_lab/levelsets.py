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
from .grids import DistanceField, Grid

# Per-case directed segments (in_edge -> out_edge), edges B=0, R=1, T=2, L=3.
# Corner bits: 1 = (i,j), 2 = (i+1,j), 4 = (i+1,j+1), 8 = (i,j+1).
_CASES: dict[int, tuple[tuple[int, int], ...]] = {
    0: (),
    1: ((0, 3),),
    2: ((1, 0),),
    3: ((1, 3),),
    4: ((2, 1),),
    5: ((0, 3), (2, 1)),
    6: ((2, 0),),
    7: ((2, 3),),
    8: ((3, 2),),
    9: ((0, 2),),
    10: ((1, 0), (3, 2)),
    11: ((1, 2),),
    12: ((3, 1),),
    13: ((0, 1),),
    14: ((3, 0),),
    15: (),
}
_MAX_BIN = np.iinfo(np.uint16).max  # bin keys of the extractor's corner-minimum index
_SORT_CHUNK = 1 << 20  # dual cells per chunk when the extractor builds that index


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
        c0, c1, c2, c3 = f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]
        self._fmin = np.minimum(np.minimum(c0, c1), np.minimum(c2, c3)).astype(
            np.float32, copy=False
        )
        fmax = np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)).astype(np.float32, copy=False)
        # measured, not sqrt(2) * spacing: the field need not be 1-Lipschitz
        self._width = float(np.subtract(fmax, self._fmin, out=fmax).max(initial=0.0))
        del fmax
        self._scale = np.float32(1.0 / field.spacing)
        key = self._bins(self._fmin.ravel())
        self._starts = np.zeros(_MAX_BIN + 2, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=_MAX_BIN + 1), out=self._starts[1:])
        # Cells grouped by bin, as int32 (which holds any MAX_CELLS grid).
        # Each chunk is argsorted by key (numpy's stable sort of 16-bit keys
        # is a radix sort) and its bin runs go after those of the earlier
        # chunks. Chunks keep the int64 argsort output small: one full-size
        # int64 order raised the peak RSS of a field's pass.
        self._order = np.empty(key.size, dtype=np.int32)
        fill = self._starts[:-1].copy()
        for c in range(0, key.size, _SORT_CHUNK):
            kc = key[c : c + _SORT_CHUNK]
            n_c = np.bincount(kc, minlength=_MAX_BIN + 1)
            dest = np.repeat(fill - (np.cumsum(n_c) - n_c), n_c) + np.arange(kc.size)
            self._order[dest] = np.argsort(kc, kind="stable") + c
            fill += n_c
        del key
        ring = np.concatenate([f[0, :], f[-1, :], f[:, 0], f[:, -1]])
        self._ring_min = float(ring.min())
        self._ring_max = float(ring.max())
        nx, ny = f.shape
        self._n_xedges = (nx - 1) * ny

    def _bins(self, x) -> np.ndarray:
        """Bin keys floor(x * (1 / spacing)) in float32 arithmetic, clamped to 16 bits."""
        k = np.asarray(x, dtype=np.float32) * self._scale
        np.floor(k, out=k)
        return np.clip(k, 0, _MAX_BIN, out=k).astype(np.uint16)

    def _check_contact(self, eps: float) -> None:
        if self._ring_min <= eps < self._ring_max:
            raise ResolutionError(
                f"level set at eps={eps:g} touches the grid boundary; enlarge the bbox"
            )

    def _nudge(self, eps: float) -> float:
        # break exact field-value ties (lattice distances hit round eps
        # exactly, and float32 storage collapses near-ties onto them); the
        # shift clears the float32 ULP yet stays far below one cell
        return eps + 5e-7 * max(abs(eps), self.field.spacing)

    def _band(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (i, j) of the dual cells with fmin <= eps < fmax, as np.nonzero gives them."""
        f = self.field.values
        # fmin > eps - w, up to the float32 rounding of w and of eps (2^-24
        # relative each), which the 2^-22 slack covers; keys are monotone in
        # the value, so bins key(lo)..key(eps) hold every band cell
        w = self._width
        lo, hi = (int(b) for b in self._bins([eps - w - (abs(eps) + w) * 2.0**-22, eps]))
        cand = self._order[self._starts[lo] : self._starts[hi + 1]]
        cand = np.sort(cand).astype(np.intp)
        ci, cj = np.divmod(cand, f.shape[1] - 1)
        fmax = np.maximum(
            np.maximum(f[ci, cj], f[ci + 1, cj]), np.maximum(f[ci + 1, cj + 1], f[ci, cj + 1])
        ).astype(np.float32, copy=False)
        keep = (self._fmin[ci, cj] <= eps) & (fmax > eps)
        return ci[keep], cj[keep]

    def extract(self, eps: float) -> LevelSet:
        eps = self._nudge(eps)
        self._check_contact(eps)
        f = self.field.values
        ny = f.shape[1]
        ii, jj = self._band(eps)
        f00 = f[ii, jj]
        f10 = f[ii + 1, jj]
        f11 = f[ii + 1, jj + 1]
        f01 = f[ii, jj + 1]
        case = (
            (f00 <= eps).astype(np.int8)
            + 2 * (f10 <= eps)
            + 4 * (f11 <= eps)
            + 8 * (f01 <= eps)
        )

        def crossing(edge, i, j, a, b):
            """Crossing point (index units) and global edge id for one edge code."""
            t = np.clip((eps - a) / np.where(b == a, np.inf, b - a), 0.0, 1.0)
            if edge == 0:  # bottom, x-edge (i, j)
                return np.column_stack([i + 0.5 + t, j + 0.5]), i * ny + j
            if edge == 2:  # top, x-edge (i, j+1)
                return np.column_stack([i + 0.5 + t, j + 1.5]), i * ny + (j + 1)
            base = self._n_xedges
            if edge == 3:  # left, y-edge (i, j)
                return np.column_stack([i + 0.5, j + 0.5 + t]), base + i * (ny - 1) + j
            # right, y-edge (i+1, j)
            return np.column_stack([i + 1.5, j + 0.5 + t]), base + (i + 1) * (ny - 1) + j

        corner_vals = {0: (f00, f10), 1: (f10, f11), 2: (f01, f11), 3: (f00, f01)}
        pins, pouts, eins, eouts, cells = [], [], [], [], []
        for code, segs in _CASES.items():
            if not segs:
                continue
            sel = case == code
            if not sel.any():
                continue
            i, j = ii[sel], jj[sel]
            for e_in, e_out in segs:
                a, b = corner_vals[e_in]
                p0, id0 = crossing(e_in, i, j, a[sel], b[sel])
                a, b = corner_vals[e_out]
                p1, id1 = crossing(e_out, i, j, a[sel], b[sel])
                pins.append(p0)
                pouts.append(p1)
                eins.append(id0)
                eouts.append(id1)
                cells.append(np.column_stack([i, j]))
        if not pins:
            empty = np.empty((0, 2))
            return LevelSet(empty, empty, np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 2), np.int64))
        origin = self.field.origin
        delta = self.field.spacing
        p_in = np.concatenate(pins) * delta + origin
        p_out = np.concatenate(pouts) * delta + origin
        return LevelSet(
            p_in,
            p_out,
            np.concatenate(eins).astype(np.int64),
            np.concatenate(eouts).astype(np.int64),
            np.concatenate(cells),
        )

    def measure(self, eps: float, mask: np.ndarray | Grid | None = None):
        """(length, signed turning, absolute turning) at one threshold.

        Lengths count segments whose midpoint falls in a mask cell; turning
        angles count crossings whose vertex falls in a mask cell. Angles at
        a crossing join the unique incoming and outgoing segments.
        """
        return self.measure_level_set(self.extract(eps), mask)

    def measure_level_set(self, ls: LevelSet, mask: np.ndarray | Grid | None = None):
        """measure() of a level set already extracted from this field."""
        m = _as_mask(mask, self.field)
        if ls.ein.size == 0:
            return 0.0, 0.0, 0.0
        seg_vec = ls.p_out - ls.p_in
        lengths = np.hypot(seg_vec[:, 0], seg_vec[:, 1])
        if m is None:
            length = float(lengths.sum())
        else:
            mid = 0.5 * (ls.p_in + ls.p_out)
            length = float(lengths[_mask_at(m, self.field, mid)].sum())

        # match: the segment entering edge e is the one with eout == e
        order = np.argsort(ls.eout)
        pos = np.searchsorted(ls.eout[order], ls.ein)
        if pos.max(initial=-1) >= order.size or not np.array_equal(
            ls.eout[order][pos], ls.ein
        ):
            raise ResolutionError("open level-set chain (grid boundary contact?)")
        prev = order[pos]
        d_in = seg_vec[prev]
        d_out = seg_vec
        cross = d_in[:, 0] * d_out[:, 1] - d_in[:, 1] * d_out[:, 0]
        dot = d_in[:, 0] * d_out[:, 0] + d_in[:, 1] * d_out[:, 1]
        ang = np.arctan2(cross, dot)
        if m is not None:
            keep = _mask_at(m, self.field, ls.p_in)
            ang = ang[keep]
        return length, float(ang.sum()), float(np.abs(ang).sum())

    def segment_cells(self, eps: float, mask: np.ndarray | Grid | None = None) -> np.ndarray:
        """Boolean raster of dual cells carrying level-set segments (mask-filtered)."""
        return self.level_set_cells(self.extract(eps), mask)

    def level_set_cells(self, ls: LevelSet, mask: np.ndarray | Grid | None = None) -> np.ndarray:
        """segment_cells() of a level set already extracted from this field."""
        out = np.zeros(self.field.values.shape, dtype=bool)
        if ls.cell_ij.size:
            keep = np.ones(ls.cell_ij.shape[0], dtype=bool)
            m = _as_mask(mask, self.field)
            if m is not None:
                mid = 0.5 * (ls.p_in + ls.p_out)
                keep = _mask_at(m, self.field, mid)
            out[ls.cell_ij[keep, 0], ls.cell_ij[keep, 1]] = True
        return out


def _as_mask(mask, field) -> np.ndarray | None:
    if mask is None:
        return None
    if isinstance(mask, Grid):
        return mask.occupancy
    return np.asarray(mask, dtype=bool)


def _mask_at(mask_arr: np.ndarray, field: DistanceField, points: np.ndarray) -> np.ndarray:
    if mask_arr.shape != field.values.shape:
        raise ResolutionError("mask must live on the field's grid (embed it first)")
    return field.values_at(mask_arr, points, False, bool)


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


def boundary_length(
    f: DistanceField, eps: float, mask: np.ndarray | Grid | None = None,
    extractor: LevelSetExtractor | None = None,
) -> float:
    """Length of the level set {f = eps}, optionally restricted to mask cells."""
    ex = extractor or LevelSetExtractor(f)
    length, _, _ = ex.measure(eps, mask)
    return length


def euler_and_turning(
    f: DistanceField, eps: float, mask: np.ndarray | Grid | None = None,
    extractor: LevelSetExtractor | None = None,
) -> tuple[int, float]:
    """Euler characteristic of {f <= eps} and (1/2pi) * masked turning.

    With no mask the two agree by the polygonal Gauss-Bonnet theorem, up to
    interpolation noise; the comparison is the structural self-test of the
    curvature pipeline.
    """
    ex = extractor or LevelSetExtractor(f)
    _, turn, _ = ex.measure(eps, mask)
    chi = euler_characteristic(f.values <= ex._nudge(eps))
    return chi, turn / (2.0 * np.pi)


def contour_components(cells: np.ndarray) -> int:
    """Connected components (8-connected) of a boolean raster of contour cells."""
    if not cells.any():
        return 0
    _, n = ndimage.label(cells, structure=np.ones((3, 3), dtype=int))
    return int(n)
