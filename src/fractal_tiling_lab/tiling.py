"""Self-similar tilings of a feasible open set.

Given an IFS and a feasible open set O, the generator is G = O minus the
union of the closed images S_i(cl O); the tiles are the images S_sigma(G)
over all finite words. Rasters resolve tiles down to a few cells and merge
everything smaller into a residual mask (those tiles are entirely within
any sampled eps of their own boundary, so cell counting stays exact for
eps at or above the resolution floor). build_tiling builds O, the images,
G, Gamma and G's inner field; the word tree, the tile union and the
residual are built on first read of TilingData's tile_words and
tile_union, which only the tiling_via_h row and rendering read.

Tiles are built from the arrays of the word tree (rasterize_tiles): the
composed maps S_sigma of all words of one length are stacked arrays, each
made from its parent's map with one composition, and the tiles of every
length are stamped inside the images of G's occupied box in one pass of
_stamp_images. In 1-d every tile and image is a finite union of intervals:
the cells whose preimages fall in one run of occupied source cells form one
run, whose ends are found exactly (_stamp_runs). In 2-d an axis-aligned map
(diagonal inverse linear part: the carpet and gasket maps) has preimages
whose coordinate on each axis depends on that axis alone, so they are
computed once per column and once per row of the box, and the source is
gathered by broadcasting the two. A map with a rotation takes every cell
center through a matrix product. The two agree to the bit: for a diagonal
part the product's off-diagonal term is an exact 0 * y, and
fl(a * x + 0 * y) = fl(a * x) with or without a fused multiply-add. The
images S_i(O) are stamped in one call, one layer per map, and kept on
TilingData, one bit per map and cell; their union is Phi(O).

The attractor raster (attractor_raster) walks the word orbit of a fixed
point on integer cell keys. The same per-axis argument gives a diagonal
2-d map its child cells from one table per axis, built once per raster;
a map with a rotation, and every 1-d map, maps cell centers and floors
them. Finished cells leave the orbit for a raster that is the result.
axis_cells, the index of the cell holding a coordinate on one
axis, is shared by _stamp_images, the orbit tables and check_projection.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResolutionError
from .grids import (DistanceField, Grid, Region, distance_transform, grid_from_bbox, inner_distance,
                    morphology, occupied_box, rasterize, sorted_unique)
from .ifs import IFS, Similarity, WordTree, check_similarity_parts, words_up_to_ratio


@dataclass
class TilingData:
    """O, the images S_i(O), the generator G, Gamma = O minus Phi(O) and G's
    inner field; the tiles are derived from these on first read."""

    ifs: IFS
    O: Grid
    G: Grid
    G_inner: DistanceField  # inner_distance of G cropped to its cells plus 4: V_G, G_-eps and g
    Gamma: Grid
    g: float
    image_bits: np.ndarray  # S_i(O) on O's grid, packed along axis 0 as np.packbits packs

    @property
    def delta(self) -> float:
        return self.O.spacing

    @property
    def map_images(self) -> list[np.ndarray]:
        """S_i(O) on O's grid, one raster per map, in map order."""
        return list(np.unpackbits(self.image_bits, axis=0, count=self.ifs.n).view(bool))

    @functools.cached_property
    def tile_words(self) -> WordTree:
        """The resolved words: r_sigma * diam(O's raster) > RESOLVE_CELLS * delta."""
        O = self.O
        lo, hi = O.origin, O.origin + np.array(O.extents) * O.spacing
        return words_up_to_ratio(self.ifs, RESOLVE_CELLS * O.spacing / float(np.linalg.norm(hi - lo)))

    @functools.cached_property
    def tile_union(self) -> Grid:
        """The union of the resolved tiles S_sigma(G), within O."""
        occ = rasterize_tiles(self.ifs, self.tile_words, self.G, self.O)
        return self.O.with_occupancy(occ & self.O.occupancy)

    @property
    def residual(self) -> Grid:
        """The cells of O outside every resolved tile: the sub-cell tiles."""
        return self.O.with_occupancy(self.O.occupancy & ~self.tile_union.occupancy)

    def manifest(self) -> dict:
        """JSON-ready summary: resolved words with ratios, g, masses."""
        return {
            "delta": self.delta,
            "g": self.g,
            "lambda_O": self.O.area(),
            "lambda_G": self.G.area(),
            "lambda_Gamma": self.Gamma.area(),
            "residual_mass": self.residual.area(),
            "words": [{"word": w, "ratio": r} for w, r in self.tile_words.labelled()],
        }


# target cells per 2-d stamping block; a block's index arrays take about 30
# bytes per cell, and one block may span the images of every map
CHUNK_CELLS = 1 << 18
RESOLVE_CELLS = 4.0  # tiles are resolved while r_sigma * diam(O) exceeds this many cells


def _stack(maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ratios (m,), orthogonal parts (m, d, d) and translations (m, d) of maps."""
    return (
        np.array([m.ratio for m in maps]),
        np.stack([m.orthogonal_part for m in maps]),
        np.stack([m.translation for m in maps]),
    )


def _inverse(ratio: np.ndarray, Q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (m, d, d) and offsets (m, d) of the inverses of stacked
    maps, with the float operations of Similarity.inverse."""
    qinv = np.swapaxes(Q, 1, 2)
    return qinv / ratio[:, None, None], -(qinv @ t[:, :, None])[:, :, 0] / ratio[:, None]


def _compose(parts, letters: np.ndarray, maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked maps parts[k] o maps[letters[k]], checked like Similarity checks one.

    parts and maps are (ratios, orthogonal parts, translations) stacks; each
    product uses the float operations of parent.compose(S_a), so a word's
    map composed letter by letter is bit-identical to Word.map.
    """
    pr, pQ, pt = parts
    r1, Q1, t1 = (m[letters] for m in maps)
    ratio, Q = pr * r1, pQ @ Q1
    if pt.shape[1] == 1:
        t = (pr * pQ[:, 0, 0] * t1[:, 0] + pt[:, 0])[:, None]
    else:
        t = pr[:, None] * (t1[:, None, :] @ np.swapaxes(pQ, 1, 2))[:, 0] + pt
    check_similarity_parts(ratio, Q)
    return ratio, Q, t


def _stamp_images(
    occ: np.ndarray, ratio: np.ndarray, Q: np.ndarray, t: np.ndarray, source: Grid, target: Grid,
    layer: np.ndarray | None = None,
) -> None:
    """Mark in occ the cells of S_k(source-region) for stacked maps S_k.

    occ has target's shape and every map marks it; or, given layer (one
    index per map), occ is a stack of target-shaped layers and S_k marks
    occ[layer[k]].

    A target cell is marked iff S_k^{-1}(center) lies in an occupied source
    cell. Only cells in the image under S_k of the box of source's occupied
    cells, grown by one cell, are considered: every other cell maps outside
    that box. The inverse maps and the preimages use the float operations of
    Similarity.inverse and AffineMap.__call__ on one map at a time, so the
    result is bit-identical to sampling each map on its own. Preimages take
    one of three paths:

    - 1-d maps: the cells mapping into one run of occupied source cells form
      one run of target cells, whose ends _stamp_runs finds exactly.
    - 2-d axis-aligned maps, whose inverse linear part A_k is diagonal: the
      preimage coordinate on axis a is A_k[a, a] * x_a + b_k[a], so it and
      its source index are computed once per column and once per row of the
      image box. The columns of all boxes of one height are one run; a block
      of them is gathered from the source by broadcasting each column's
      source index against its box's row indices, and the hits are marked
      by their flat index in occ. AffineMap's matrix product gives
      fl(a * x + 0 * y) = fl(a * x), fused multiply-add or not, so dropping
      the exact-zero term changes no bit.
    - Maps with a rotation: every cell center goes through one matrix
      product per distinct linear part.

    A 2-d block holds at most CHUNK_CELLS cells, or one column of a box when
    a column is longer.
    """
    d = target.dim
    A, b = _inverse(ratio, Q, t)
    if layer is None:
        occ, layer = occ[None], np.zeros(ratio.size, dtype=np.intp)

    if not source.occupancy.any():
        return
    box = source.cropped(0)
    corners = _box_corners(box.origin, box.origin + np.array(box.extents) * box.spacing)
    img = ratio[:, None, None] * (corners @ np.swapaxes(Q, 1, 2)) + t[:, None, :]
    lo_i = np.floor((img.min(axis=1) - target.origin) / target.spacing).astype(np.int64) - 1
    hi_i = np.ceil((img.max(axis=1) - target.origin) / target.spacing).astype(np.int64) + 1
    lo_i = np.maximum(lo_i, 0)
    shape = np.maximum(np.minimum(hi_i, target.extents) - lo_i, 0)
    live = shape.prod(axis=1) > 0
    if d == 1:
        lo = lo_i[live, 0]
        return _stamp_runs(occ, A[live, 0, 0], b[live, 0], lo, lo + shape[live, 0], layer[live],
                           source, target)
    aligned = live & np.all(A[:, ~np.eye(d, dtype=bool)] == 0, axis=1)

    def axis_preimages(k, a, idx):
        # A_k[a, a] * center + b_k[a] at the target indices idx on axis a
        return A[k, a, a] * target.centers_at(idx, a) + b[k, a]

    ks = np.flatnonzero(aligned)
    height = shape[ks, 1]  # cells per column
    for n_y in sorted_unique(height):
        kg = ks[height == n_y]
        # the columns (box, index on axis 0) of these boxes, box by box
        widths = shape[kg, 0]
        starts = np.cumsum(widths) - widths
        n_cols = int(widths.sum())
        iy = lo_i[kg, 1, None] + np.arange(n_y)
        sy, oky = axis_cells(axis_preimages(kg[:, None], 1, iy), source, 1)
        step = max(1, CHUNK_CELLS // int(n_y))
        for c0 in range(0, n_cols, step):
            pos = np.arange(c0, min(c0 + step, n_cols))
            t = np.searchsorted(starts, pos, side="right") - 1
            k = kg[t]
            ix = lo_i[k, 0] + (pos - starts[t])
            sx, okx = axis_cells(axis_preimages(k, 0, ix), source, 0)
            hit = okx[:, None] & oky[t] & source.occupancy[sx[:, None], sy[t]]
            u, v = np.nonzero(hit)
            # the flat index in occ of each column's first cell, then of each hit
            first = (layer[k] * target.extents[0] + ix) * target.extents[1] + lo_i[k, 1]
            np.put(occ, first[u] + v, True)

    rot = np.flatnonzero(live & ~aligned)
    if not rot.size:
        return
    # maps sharing a linear part become neighbours, so that their cells
    # form one run and take one matrix product
    group = np.unique(A[rot].reshape(len(rot), d * d), axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(group, kind="stable")
    rot, group = rot[order], group[order]
    counts = shape[rot].prod(axis=1)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    for c0 in range(0, total, CHUNK_CELLS):
        pos = np.arange(c0, min(c0 + CHUNK_CELLS, total))
        j = np.searchsorted(starts, pos, side="right") - 1
        k = rot[j]
        local = pos - starts[j]
        w = shape[k, 1]
        idx = np.column_stack([lo_i[k, 0] + local // w, lo_i[k, 1] + local % w])
        pts = target.centers_at(idx)
        g = group[j]
        cuts = np.flatnonzero(g[1:] != g[:-1]) + 1
        pre = np.empty_like(pts)
        for r0, r1 in zip(np.r_[0, cuts], np.r_[cuts, len(g)]):
            # a one-row product would go to BLAS gemv, whose sum order
            # differs from gemm's; take such a row as a pair instead
            rows = pts[r0:r1] if r1 - r0 > 1 else pts[[r0, r0]]
            pre[r0:r1] = (rows @ A[k[r0]].T)[: r1 - r0]
        pre += b[k]
        hit = source.lookup(pre)
        occ[(layer[k[hit]], *idx[hit].T)] = True


def _stamp_runs(occ: np.ndarray, a, b, lo, hi, layer, source: Grid, target: Grid) -> None:
    """Mark in layer layer_k of the stacked 1-d occ the cells i in [lo_k, hi_k)
    whose preimage a_k * c_i + b_k lies in an occupied source cell, c_i the
    center of cell i.

    The preimage's cell s_k(i) = floor((a_k c_i + b_k - o_s) / h_s), taken
    with the float operations of centers_at, AffineMap and indices_of, is
    monotone in i (each rounded operation is): non-decreasing for a_k > 0,
    non-increasing under a reflection. So the cells mapping into a run
    [r0, r1) of occupied source cells are one run of target cells, whose ends
    are where s_k crosses r0 and r1. Each end is found by evaluating s_k on a
    window around where real arithmetic puts it, wider than the rounding
    error of both, and the window's bracketing of the end is asserted. The
    runs, clipped to [lo_k, hi_k), are marked through one difference array
    per layer over the span of those boxes.
    """
    if not a.size:
        return
    # the occupied source runs [r0, r1): set and unset cells alternate there
    edges = np.flatnonzero(np.diff(source.occupancy, prepend=False, append=False))
    r0, r1 = edges[::2], edges[1::2]
    k, j = (np.tile(x.ravel(), 2) for x in np.indices((a.size, r0.size)))
    ak, bk, up = a[k], b[k], a[k] > 0
    # the source edge e of every run's start, then of every run's stop; the
    # end is the first i with (s_k(i) >= e) == up
    e = np.where((np.arange(k.size) < k.size // 2) == up, r0[j], r1[j])
    o_s, h_s, o_t, h_t = source.origin[0], source.spacing, target.origin[0], target.spacing
    mid = np.floor(np.clip(((o_s + e * h_s - bk) / ak - o_t) / h_t - 0.5, lo[k] - 1, hi[k]))
    # rounding, in mid and in s_k, moves the end off [mid, mid + 1] by at most
    # ceil(16 eps * size / (|a| h_t)) <= w cells, size bounding the terms
    size = np.abs(ak) * (abs(o_t) + (np.abs(mid) + 1) * h_t) + np.abs(bk) + abs(o_s) + (e + 1) * h_s
    w = 1 + int(np.max(16 * np.finfo(float).eps * size / (np.abs(ak) * h_t)))
    idx = mid.astype(np.int64)[:, None] + np.arange(-w, w + 2)
    hit = (np.floor((ak[:, None] * target.centers_at(idx, 0) + bk[:, None] - o_s) / h_s) >= e[:, None]) == up[:, None]
    assert np.all((~hit[:, 0] | (idx[:, 0] <= lo[k])) & (hit[:, -1] | (idx[:, -1] >= hi[k] - 1)))
    base, n = lo.min(), hi.max() - lo.min()
    ends = np.clip(idx[:, 0] + np.count_nonzero(~hit, axis=1), lo[k], hi[k]) - base
    start, stop = ends[: k.size // 2], ends[k.size // 2 :]
    keep = start < stop
    row = layer[k[: k.size // 2][keep]] * (n + 1)  # each layer's difference array follows the last
    size = occ.shape[0] * (n + 1)
    runs = np.bincount(row + start[keep], minlength=size) - np.bincount(row + stop[keep], minlength=size)
    occ[:, base : base + n] |= np.cumsum(runs.reshape(-1, n + 1)[:, :-1], axis=1) > 0


def _map_cells(sim: Similarity, source: Grid, target: Grid) -> np.ndarray:
    """Occupancy of S(source-region) on the target grid (_stamp_images)."""
    occ = np.zeros(target.extents, dtype=bool)
    _stamp_images(occ, *_stack([sim]), source, target)
    return occ


def rasterize_tiles(ifs: IFS, words: WordTree, G: Grid, target: Grid) -> np.ndarray:
    """Occupancy of the union of the tiles S_sigma(G), sigma in words, on target's grid.

    The empty word, if the tree holds it, contributes G itself, which must
    then lie on target's grid. The tree is walked one length at a time from
    its arrays. The maps of one length are stacked arrays, each built from
    its parent's by _compose, so every map is bit-identical to Word.map. The
    maps of all lengths are rasterized in one pass of _stamp_images, which
    looks only at the images of G's occupied box.
    """
    occ = np.zeros(target.extents, dtype=bool)
    if words.ratio[0].size:
        occ |= G.occupancy
    maps = _stack(ifs.maps)
    levels = []
    for length in range(1, len(words.ratio)):
        if length == 1:
            parts = [m[words.letter[1]] for m in maps]
        else:
            parts = _compose([p[words.parent[length]] for p in parts], words.letter[length], maps)
        levels.append(parts)
    if levels:
        _stamp_images(occ, *(np.concatenate(p) for p in zip(*levels)), G, target)
    return occ


def build_tiling(ifs: IFS, O_region: Region | Grid, delta: float) -> TilingData:
    """Construct the tiling of a feasible open set at resolution delta.

    A Region is rasterized on its bbox grown by two cells per side. An
    empty generator raster is refused with sum r_i^d: a ConfigError when
    the scene has no tiling, for a full-dimensional attractor (sum 1) or
    overlapping maps (above 1), and a ResolutionError when the sum is
    below 1 and the images S_i(O) cover O at this resolution. Each image
    S_i(O) is sampled once; Phi(O) is their union, and the images stay on
    the result (image_bits) for the structural checks. G's one inner
    distance field, G_inner, is taken on G cropped to its cells plus 4
    (cells outside the raster count as complement, so the crop changes no
    distance inside G), and g is its maximum, the inradius. No tile is
    built here: TilingData resolves the words and rasterizes their union
    on first read.
    """
    if isinstance(O_region, Grid):
        O = O_region
    else:
        lo, hi = O_region.bbox()
        pad = 2 * delta
        O = rasterize(O_region, (np.atleast_1d(lo) - pad, np.atleast_1d(hi) + pad), delta)
    if not O.occupancy.any():
        raise ConfigError("feasible set rasterized to nothing; check the region/bbox")

    # every S_i(O) in one stamp, map i into layer i, then into bit 7 - i % 8 of
    # byte i // 8: np.packbits order, without its axis-0 pass (five times
    # slower on carpet's eight layers)
    layers = np.zeros((ifs.n,) + O.extents, dtype=bool)
    _stamp_images(layers, *_stack(ifs.maps), O, O, np.arange(ifs.n))
    image_bits = np.zeros((-(-ifs.n // 8),) + O.extents, dtype=np.uint8)
    for i, layer in enumerate(layers):
        image_bits[i // 8] |= layer.view(np.uint8) << (7 - i % 8)
    del layers
    phi_open = image_bits.any(axis=0)
    phi_closed = morphology(phi_open)
    G = O.with_occupancy(O.occupancy & ~phi_closed)
    Gamma = O.with_occupancy(O.occupancy & ~phi_open)
    if not G.occupancy.any():
        total = float(np.sum(ifs.ratios**O.dim))
        why = ("the maps overlap, so the open set condition fails" if total > 1 + 1e-9
               else "the attractor is full-dimensional" if total > 1 - 1e-9
               else "the images S_i(O) cover O at this resolution")
        error = ConfigError if total > 1 - 1e-9 else ResolutionError
        raise error(f"empty generator: {why} (sum r_i^d = {total:.6g}), no tiling exists")

    G_inner = inner_distance(G.cropped(4))

    return TilingData(
        ifs=ifs,
        O=O,
        G=G,
        G_inner=G_inner,
        Gamma=Gamma,
        g=float(G_inner.values.max()),
        image_bits=image_bits,
    )


ATTRACTOR_CHUNK = 1 << 16  # orbit candidates deduplicated per chunk
ATTRACTOR_STOP_CELLS = 0.5  # an orbit branch stops once r_sigma * diam(bbox) is this many cells


def attractor_raster(ifs: IFS, bbox, delta: float) -> Grid:
    """Raster of the attractor: cells hit by the word orbit of the first map's fixed point.

    Breadth-first over code space. A generation is its active cells,
    carried as sorted C-order cell keys and their ratios r_sigma; the first
    generation is the fixed point itself. With n active cells, candidate
    j * n + i is active cell i's child under map j, and the first candidate
    in a cell outside the raster `done` claims it with ratio r_j * rs[i].
    A claim with r_sigma * diam(bbox) <= ATTRACTOR_STOP_CELLS * delta is
    finished: it keeps its cell for good, so it goes into `done`, which is
    the result, and leaves the orbit. The next generation maps the active
    cells' centers (accumulated snapping error below ~2 cells in Hausdorff
    distance). A 2-d map with a diagonal linear part reads its child keys
    from per-axis tables that hold the image cell of every cell center
    (_orbit_tables), with one divmod of the keys for all such maps; other
    maps, and every 1-d map, map the centers and floor them. Up to
    ATTRACTOR_CHUNK candidates, one stable sort finds the first candidate
    per cell. Past it, candidates are made for slices of ATTRACTOR_CHUNK
    active cells under every map in turn, and each slice folds into a
    per-cell array of first candidate positions with np.minimum.at at its
    explicit positions, so the fold does not depend on the slice order.
    """
    g = grid_from_bbox(bbox, delta)
    lo = g.origin
    hi = g.origin + np.array(g.extents) * g.spacing
    # Phi(bbox) in bbox guarantees containment for any seed; rotated or
    # reflected maps can fail it even when bbox contains the attractor, in
    # which case every orbit point is checked instead (the orbit lies in F).
    ratio, Q, t = _stack(ifs.maps)
    img = ratio[:, None, None] * (_box_corners(lo, hi) @ np.swapaxes(Q, 1, 2)) + t[:, None, :]
    invariant = not ((img < lo - 1e-9).any() or (img > hi + 1e-9).any())

    # an orbit point this far outside the box has escaped it
    reach_lo, reach_hi = lo - 0.25 * delta, hi + 0.25 * delta

    def escape():
        return ResolutionError("bbox does not contain the attractor (orbit point escaped)")

    def keys_of(p):
        if not invariant and ((p < reach_lo).any() or (p > reach_hi).any()):
            raise escape()
        idx = np.minimum(np.maximum(g.indices_of(p), 0), np.array(g.extents) - 1)  # clipped into g
        return idx[:, 0] if g.dim == 1 else idx[:, 0] * g.extents[1] + idx[:, 1]

    diam = float(np.linalg.norm(hi - lo))
    thresh = ATTRACTOR_STOP_CELLS * delta / diam
    tables = _orbit_tables(ifs, g, reach_lo, reach_hi)
    any_table = any(tab is not None for tab in tables)
    done = np.zeros(g.occupancy.size, dtype=bool)
    keys = None  # the first generation's one active point is the fixed point, not a cell
    act_pts = ifs.maps[0].fixed_point().reshape(1, -1)
    rs = np.ones(1)
    while rs.size:
        n = rs.size
        if keys is not None and None in tables:
            # the active cells' centers, for the maps without tables
            act_pts = g.centers_at(np.column_stack(np.unravel_index(keys, g.extents)))

        def child_keys(a, b):
            # per map, the keys of the children of active cells a ... b - 1; the
            # table maps share one divmod of the slice
            if keys is not None and any_table:
                ix, iy = np.divmod(keys[a:b], g.extents[1])
            for m, tab in zip(ifs.maps, tables):
                if keys is None or tab is None:
                    yield keys_of(_map_rows(m, act_pts, a, b))
                    continue
                (cx, ex), (cy, ey) = tab
                if not invariant and (ex[ix].any() or ey[iy].any()):
                    raise escape()
                yield cx[ix] * g.extents[1] + cy[iy]

        total = n * ifs.n
        if total <= ATTRACTOR_CHUNK:
            # one chunk: a stable sort finds the first candidate per cell
            claimed, pos = np.unique(np.concatenate([*child_keys(0, n)]), return_index=True)
            free = ~done[claimed]
            claimed, pos = claimed[free], pos[free]
        else:
            first = np.full(g.occupancy.size, total, dtype=np.min_scalar_type(total))
            for a in range(0, n, ATTRACTOR_CHUNK):
                for j, key in enumerate(child_keys(a, min(a + ATTRACTOR_CHUNK, n))):
                    c0 = j * n + a
                    np.minimum.at(first, key, np.arange(c0, c0 + key.size, dtype=first.dtype))
            first[done] = total
            claimed = np.flatnonzero(first != total)
            pos = first[claimed]
            del first
        # each claim's ratio is its map's times its parent's; a generation
        # carries only keys and rs, so the rest is freed as soon as it is read
        j, i = np.divmod(pos, n)
        del keys, pos
        rs = rs[i]
        rs *= ratio[j]
        del j, i
        fin = rs <= thresh
        done[claimed[fin]] = True
        keys, rs = claimed[~fin], rs[~fin]
        del claimed, fin
    return g.with_occupancy(done.reshape(g.extents))


def _orbit_tables(ifs: IFS, g: Grid, lo: np.ndarray, hi: np.ndarray) -> list:
    """Per map, the image cell of every cell center of g, one table per axis.

    A 2-d map whose linear part is diagonal gets, for each axis, (the image
    cell's index clipped into g, whether the image coordinate leaves
    [lo, hi]); every other map, and every 1-d map, gets None. The image
    coordinate is ratio * (Q[a, a] * center) + t[a], which is what
    Similarity.__call__'s matrix product gives on that axis: its other term
    is an exact 0 * y, and fl(q * x + 0 * y) = fl(q * x) with or without a
    fused multiply-add.
    """
    out = []
    for m in ifs.maps:
        q = m.orthogonal_part
        if g.dim == 1 or q[0, 1] != 0 or q[1, 0] != 0:
            out.append(None)
            continue
        axes = []
        for a in range(2):
            coord = m.ratio * (g.centers(a) * q[a, a]) + m.translation[a]
            axes.append((axis_cells(coord, g, a)[0], (coord < lo[a]) | (coord > hi[a])))
        out.append(axes)
    return out


def axis_cells(coord: np.ndarray, raster, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells of raster on one axis that hold the coordinates coord.

    Returns the index floor((coord - origin) / spacing), clipped into the
    raster, and whether it lay inside; the float operations are those of
    Raster.indices_of on that axis. Shared by the per-axis paths of
    _stamp_images, the attractor orbit and conditions.check_projection.
    """
    s = np.floor((coord - raster.origin[axis]) / raster.spacing).astype(np.int64)
    inside = (s >= 0) & (s < raster.extents[axis])
    return np.clip(s, 0, raster.extents[axis] - 1), inside


def _map_rows(m: Similarity, p: np.ndarray, a: int, b: int) -> np.ndarray:
    """m(p)[a:b], shape (b - a, d), with the float operations of mapping all of p."""
    if p.shape[1] == 1:
        return m(p[a:b].ravel()).reshape(-1, 1)
    if b - a == 1 < len(p):
        # a one-row product would go to BLAS gemv, whose sum order
        # differs from gemm's on the whole source; take it as a pair
        return m(p[[a, a]])[:1]
    return m(p[a:b])


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 2^d corners of the box [lo, hi], shape (2^d, d), in no set order."""
    return np.array(list(itertools.product(*zip(lo, hi))))


def relative_inradius(F_field: DistanceField, O: Grid) -> float:
    """sup of d(x, F) over the cells of O (the deepest point of O in F's field)."""
    if not O.occupancy.any():
        raise ResolutionError("relative inradius of an empty region")
    vals = F_field.sample_cells(O, O.occupancy, outside=np.nan)
    if np.isnan(vals).any():
        raise ResolutionError("O leaves the attractor's distance field")
    return float(vals.max())


NEIGHBOR_WORD_LEN = 4  # letters of sigma and of omega in a neighbor map S_sigma^{-1} S_omega


@dataclass
class CentralOpenSet:
    grid: Grid
    neighbor_count: int


def central_open_set(ifs: IFS, bbox, delta: float) -> CentralOpenSet:
    """Points strictly closer to the attractor than to every neighbor copy.

    Neighbor maps h = S_sigma^{-1} S_omega pair words of one length up to
    NEIGHBOR_WORD_LEN with distinct first letters. They are enumerated one
    length at a time as stacked maps: the pairs of a length are every
    two-letter extension of the previous length's kept pairs, composed by
    _compose. A pair is kept when h maps the box of F's cells to within
    half that box's diagonal of the working bbox; the distinct h (9-digit
    rounding) are the neighbors, each taken from the first pair found.
    The result is resolution-faithful only: cells are kept when
    d(center, F) < d(center, H) - delta, F the attractor raster on bbox.
    """
    F = attractor_raster(ifs, bbox, delta)
    F_field = distance_transform(F)
    g = grid_from_bbox(bbox, delta)
    lo, hi = g.origin, g.origin + np.array(g.extents) * g.spacing

    # F's own bounding box (occupied extent), for pruning
    box = occupied_box(F.occupancy)
    f_lo = F.origin + np.array([s.start for s in box]) * F.spacing
    f_hi = F.origin + np.array([s.stop for s in box]) * F.spacing
    f_corners = _box_corners(f_lo, f_hi)
    pad = 0.5 * float(np.linalg.norm(f_hi - f_lo))

    maps = _stack(ifs.maps)
    first_s, first_w = np.nonzero(~np.eye(ifs.n, dtype=bool))
    sig, om = [m[first_s] for m in maps], [m[first_w] for m in maps]
    pairs, keys = [], []
    for length in range(1, NEIGHBOR_WORD_LEN + 1):
        if length > 1:
            k, a, b = (x.ravel() for x in np.indices((sig[0].size, ifs.n, ifs.n)))
            sig = _compose([p[k] for p in sig], a, maps)
            om = _compose([p[k] for p in om], b, maps)
        # h(corners) as sig.inverse()(om(corners)), and h's own parts
        A, c = _inverse(*sig)
        img = om[0][:, None, None] * (f_corners @ np.swapaxes(om[1], 1, 2)) + om[2][:, None, :]
        img = img @ np.swapaxes(A, 1, 2) + c[:, None, :]
        keep = ~((img.max(axis=1) < lo - pad).any(axis=1) | (img.min(axis=1) > hi + pad).any(axis=1))
        sig, om, A, c = [p[keep] for p in sig], [p[keep] for p in om], A[keep], c[keep]
        h_linear = (A @ (om[0][:, None, None] * om[1])).reshape(-1, g.dim**2)
        h_offset = (om[2][:, None, :] @ np.swapaxes(A, 1, 2))[:, 0] + c
        keys.append(np.round(np.concatenate([h_linear, h_offset], axis=1), 9) + 0.0)  # -0.0 keys as 0.0
        pairs.append(sig + om)

    first = np.sort(np.unique(np.concatenate(keys), axis=0, return_index=True)[1])
    r_s, Q_s, t_s, r_o, Q_o, t_o = (np.concatenate(p)[first] for p in zip(*pairs))
    A_o, c_o = _inverse(r_o, Q_o, t_o)

    centers = g.cell_points()

    # d(x, h(F)) = (r_omega / r_sigma) * d(h^{-1} x, F) through the attractor
    # field; where h^{-1} x leaves the field, fall back to the distance to
    # F's bounding box (an underestimate, so V_c only shrinks)
    d_h = np.full(centers.shape[0], np.inf)
    for n in range(first.size):
        pre = (r_s[n] * (centers @ Q_s[n].T) + t_s[n]) @ A_o[n].T + c_o[n]
        val = F_field.sample_at(pre, outside=np.nan)
        nan = np.isnan(val)
        q = pre[nan]
        val[nan] = np.sqrt(np.sum(np.maximum(np.maximum(f_lo - q, q - f_hi), 0.0) ** 2, axis=1))
        d_h = np.minimum(d_h, r_o[n] / r_s[n] * val)

    occ = (F_field.sample_cells(g) < d_h - delta).reshape(g.extents)
    return CentralOpenSet(g.with_occupancy(occ), int(first.size))
