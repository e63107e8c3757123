"""Level-wise tile rasterization against the per-word algorithm it replaced.

`rasterize_tiles` composes each tile map once per word length and samples
all tiles of one length together; `_map_cells` samples only the image box.
Both must reproduce, bit for bit, what composing every word from the root
(`Word.map`) and inverse-sampling its image one tile at a time gives. The
word tree that `words_up_to_ratio` returns as arrays must be the tree the
depth-first stack walk over `Word` objects gave.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fractal_tiling_lab import tiling
from fractal_tiling_lab import ifs as ifs_module
from fractal_tiling_lab.errors import ConfigError, FtlError
from fractal_tiling_lab.grids import Grid, IntervalUnion, grid_from_bbox
from fractal_tiling_lab.ifs import (
    IFS, Similarity, Word, WordTree, check_similarity_parts, rotation, words_up_to_ratio,
)
from fractal_tiling_lab.pipeline import SceneBundle
from fractal_tiling_lab.presets import Scene, get_preset
from fractal_tiling_lab.tiling import _map_cells, build_tiling, rasterize_tiles

COARSE_DELTA = {
    "cantor": 2.0**-12,
    "cantor_pair": 2.0**-12,
    "carpet": 2.0**-8,
    "koch": 2.0**-9,
    "gasket": 2.0**-8,
}

# SHA-256 of O, G, Gamma, tile_union, residual (grid_digest) and of the
# manifest JSON at COARSE_DELTA, as the per-word tile loop produced them
# (the manifest's digests are those of its JSON without the key g_tilde,
# which rendering adds from the bundle)
TILING_SHA256 = {
    "cantor": {
        "O": "f5498a76ac88f421948ce9c22cc8b33ddfd81acbe4e70cf6a5410e9d4c28f6bd",
        "G": "f9372b60d0e95dad364244e86b113f2f05de41c7ba0a843411607c1fae9a1fe9",
        "Gamma": "dbf8b8eab3de082190a52b01ac6f6a67e3200428d7287a23d310f5d989d2256b",
        "tile_union": "c93cd9989ac1686689e8cece9c0ac9682bfa82d1b78b27bef32d275922dbfd25",
        "residual": "b4d80b38baa5dc47e365de25499d4e14be203d80a9936d32ec4d85046f750c60",
        "manifest": "dfe8d5cf9cbbd67ebb3e4fa3f6f554ec5dc670b36789c55c39c113b3d3cf3769",
    },
    "cantor_pair": {
        "O": "f5498a76ac88f421948ce9c22cc8b33ddfd81acbe4e70cf6a5410e9d4c28f6bd",
        "G": "739b6b77d5eae9159aa1fe38f041d5003eec510d6a007be2a50832f0198aceb9",
        "Gamma": "5837d3c94526f18df689bb75d74bd8601e2be2752d0bfae70c65f8f9275d1e97",
        "tile_union": "611aa8931ac3a0f06c3d490893fc92977e9413cd9c8914259f20f7099c5d20b2",
        "residual": "253db5ddd4ad66601504cf6585d6c622573acee4778bedd1e4ee120c5e4766f6",
        "manifest": "33466966a69d8053a19e5d399887c5df1efa5c50371b4ff08a00705947c44fbe",
    },
    "carpet": {
        "O": "a89a7cebf453170fda806fba1388561878760abbc619a01961b052a36e5c5883",
        "G": "28f0a1832a9b292efcaaed7ed558fdd74c86ca5b30ea44fb90606f6de210ea77",
        "Gamma": "7824594fad1d02decd4c6e8be3c0ae29029e3ee2a34a9100bb8ac883fa0b3085",
        "tile_union": "fa79602d3e498ce87bfd9402b9ad2711315e1479d47767b2d4c866c6b43e3b26",
        "residual": "78156361fd75e674d55eceb06c4a63b7b447af85a1709c828b74c436cd0a072d",
        "manifest": "fc0f5c7ab8020b1536e58ca899104b83bf8b571a5e5e2f2c79186e63ecca1073",
    },
    "koch": {
        "O": "8d928cb998dd8c7018f626980cb91a0a152d330545685a948cc68ed7513dbd1a",
        "G": "ea52f49cfafab18fb3cb68662c1ad9f542215f16cd7203cd08a42d8acc221b28",
        "Gamma": "9f5477007a2e94879b872dd98196efc1b889d7e1c3d151149e0cecb393c1f4c6",
        "tile_union": "7b872edd1600b82444bf3e5f025159056096e9b4e4234ed7f0ce6e19231add9b",
        "residual": "d3aefe83795218cf9fc274f706ce2f290983a7cac58c95bc9714887df4731c7c",
        "manifest": "9d3f6a25dde80230b11096834ac2c924017adfdd2654a8d9d621597fff798335",
    },
    "gasket": {
        "O": "34b7a71b44694d412ff82ed8a7bc6ec21eeb0e171d6496d3e8e695205dc2e676",
        "G": "d66595da0af03fd35a60c8c9b820afe6f2ae6a5cb491f9708b375a9e0c3a10c4",
        "Gamma": "c00d48016156be26ba1a04b67909d9375a4311adc6307bb5dd7ab9870140e1be",
        "tile_union": "49bc7d071094ef62c4ec5b4dff47a5cba1dfef28d1799f2a3cf7121a25f171c2",
        "residual": "20d8b355595e9bc2b34f16822dee41ef6d6371ed62720ac2b3caf6af4ee3d782",
        "manifest": "b81a77a36da1698b8047a46e8c14d54521fdc250d205a7de974a7e40a04f2878",
    },
}


def grid_digest(g: Grid) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(g.origin, dtype=float).tobytes())
    h.update(np.float64(g.spacing).tobytes())
    h.update(str(g.occupancy.shape).encode())
    h.update(np.ascontiguousarray(g.occupancy).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the per-word reference: compose every word from the root, sample one tile


def _reference_tile(sim: Similarity, G: Grid, occ: np.ndarray, target: Grid) -> None:
    inv = sim.inverse()
    lo = G.origin
    hi = G.origin + np.array(G.extents) * G.spacing
    if target.dim == 1:
        img = np.sort(np.atleast_1d(sim(np.array([lo[0], hi[0]]))))
        i0 = max(0, int(np.floor((img[0] - target.origin[0]) / target.spacing)) - 1)
        i1 = min(target.extents[0], int(np.ceil((img[-1] - target.origin[0]) / target.spacing)) + 1)
        if i1 > i0:
            pts = target.origin[0] + (np.arange(i0, i1) + 0.5) * target.spacing
            occ[i0:i1] |= G.lookup(inv(pts))
        return
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    img = sim(corners)
    lo_i = np.maximum(np.floor((img.min(axis=0) - target.origin) / target.spacing).astype(int) - 1, 0)
    hi_i = np.minimum(np.ceil((img.max(axis=0) - target.origin) / target.spacing).astype(int) + 1,
                      target.extents)
    if np.any(hi_i <= lo_i):
        return
    xs = target.origin[0] + (np.arange(lo_i[0], hi_i[0]) + 0.5) * target.spacing
    ys = target.origin[1] + (np.arange(lo_i[1], hi_i[1]) + 0.5) * target.spacing
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    occ[lo_i[0]:hi_i[0], lo_i[1]:hi_i[1]] |= G.lookup(inv(pts)).reshape(X.shape)


def reference_tiles(ifs: IFS, words, G: Grid, target: Grid) -> np.ndarray:
    occ = np.zeros(target.extents, dtype=bool)
    for w in words:
        if len(w) == 0:
            occ |= G.occupancy
        else:
            _reference_tile(w.map(ifs), G, occ, target)
    return occ


def reference_map_cells(sim: Similarity, source: Grid, target: Grid) -> np.ndarray:
    """Inverse sampling of every target cell (no image box)."""
    inv = sim.inverse()
    if target.dim == 1:
        return source.lookup(inv(target.centers(0))).reshape(target.extents)
    X, Y = np.meshgrid(target.centers(0), target.centers(1), indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return source.lookup(inv(pts)).reshape(target.extents)


# ---------------------------------------------------------------------------
# presets


@pytest.fixture(scope="module", params=sorted(COARSE_DELTA))
def coarse_tiling(request):
    p = get_preset(request.param)
    return request.param, build_tiling(p.scene.ifs, p.scene.region, COARSE_DELTA[request.param])


def test_presets_match_per_word_reference(coarse_tiling):
    _, t = coarse_tiling
    ref = reference_tiles(t.ifs, t.tile_words, t.G, t.O)
    assert np.array_equal(rasterize_tiles(t.ifs, t.tile_words, t.G, t.O), ref)
    assert np.array_equal(t.tile_union.occupancy, ref & t.O.occupancy)


def test_presets_image_rasters_match_full_sampling(coarse_tiling):
    _, t = coarse_tiling
    union = np.zeros(t.O.extents, dtype=bool)
    for m, img in zip(t.ifs.maps, t.map_images, strict=True):
        ref = reference_map_cells(m, t.O, t.O)
        assert np.array_equal(img, ref)
        union |= ref
    # Phi(O) is the union of the kept images; Gamma = O minus Phi(O)
    assert np.array_equal(np.logical_or.reduce(t.map_images), union)
    assert np.array_equal(t.Gamma.occupancy, t.O.occupancy & ~union)


def test_presets_tiling_digests(coarse_tiling):
    name, t = coarse_tiling
    got = {k: grid_digest(getattr(t, k)) for k in ("O", "G", "Gamma", "tile_union", "residual")}
    got["manifest"] = hashlib.sha256(json.dumps(t.manifest(), sort_keys=True).encode()).hexdigest()
    assert got == TILING_SHA256[name]


def test_images_of_more_than_eight_maps():
    """TilingData packs S_i(O) one bit per cell along O's last axis: ten maps take ten rows."""
    maps = tuple(Similarity(0.09, np.eye(1), np.array([0.1 * i])) for i in range(10))
    t = build_tiling(IFS(maps, 1), IntervalUnion(((0.0, 1.0),)), 2.0**-10)
    assert t.image_bits.shape == (10, -(-t.O.extents[0] // 8))
    union = np.zeros(t.O.extents, dtype=bool)
    for m, img in zip(maps, t.map_images, strict=True):
        ref = reference_map_cells(m, t.O, t.O)
        assert ref.any() and np.array_equal(img, ref)
        union |= ref
    assert np.array_equal(t.Gamma.occupancy, t.O.occupancy & ~union)


# ---------------------------------------------------------------------------
# random IFSs


def _random_grid(seed: int, bbox, delta: float, fill: float) -> Grid:
    lo = np.atleast_1d(np.asarray(bbox[0], dtype=float))
    hi = np.atleast_1d(np.asarray(bbox[1], dtype=float))
    n = tuple(np.round((hi - lo) / delta).astype(int))
    occ = np.random.default_rng(seed).random(n) < fill
    return Grid(lo, delta, occ)


# "nice" values put sampled points exactly on cell edges, where the last
# bit of every product decides the lookup
RATIOS = st.one_of(st.sampled_from([0.5, 0.25, 1 / 3, 0.375]), st.floats(0.15, 0.55))
OFFSETS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 2 / 3]), st.floats(0.0, 0.75))
CHUNKS = st.sampled_from([7, 64, tiling.CHUNK_CELLS])


@st.composite
def ifs_1d(draw):
    n = draw(st.integers(2, 4))
    maps = [
        Similarity(draw(RATIOS), np.array([[draw(st.sampled_from([1.0, -1.0]))]]), np.array([draw(OFFSETS)]))
        for _ in range(n)
    ]
    return IFS(tuple(maps), 1)


@st.composite
def ifs_2d(draw):
    n = draw(st.integers(2, 3))
    maps = []
    for _ in range(n):
        angle = draw(st.one_of(st.sampled_from([0.0, 90.0, 180.0, -90.0, 60.0]), st.floats(-180.0, 180.0)))
        q = rotation(angle)
        if draw(st.booleans()):
            q = q @ np.diag([1.0, -1.0])
        maps.append(Similarity(draw(RATIOS), q, np.array([draw(OFFSETS), draw(OFFSETS)])))
    return IFS(tuple(maps), 2)


def _check_against_reference(ifs, words, G, target, chunk):
    ref = reference_tiles(ifs, words, G, target)
    tree = words if isinstance(words, WordTree) else WordTree.from_words(ifs, words)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiling, "CHUNK_CELLS", chunk)
        got = rasterize_tiles(ifs, tree, G, target)
        maps_got = [_map_cells(m, G, target) for m in ifs.maps]
        # every map in one stamp, each into its own layer, as build_tiling stamps
        layers = np.zeros((ifs.n,) + target.extents, dtype=bool)
        tiling._stamp_images(layers, *tiling._stack(ifs.maps), G, target, np.arange(ifs.n))
    assert np.array_equal(got, ref)
    for m, img, layer in zip(ifs.maps, maps_got, layers, strict=True):
        want = reference_map_cells(m, G, target)
        assert np.array_equal(img, want) and np.array_equal(layer, want)


@settings(max_examples=40, deadline=None)
@given(ifs=ifs_1d(), seed=st.integers(0, 2**32 - 1), chunk=CHUNKS)
def test_random_1d_ifs_matches_reference(ifs, seed, chunk):
    G = _random_grid(seed, ([-0.125], [1.125]), 2.0**-9, 0.3)
    _check_against_reference(ifs, words_up_to_ratio(ifs, 0.03), G, G, chunk)


@settings(max_examples=25, deadline=None)
@given(ifs=ifs_2d(), seed=st.integers(0, 2**32 - 1), chunk=CHUNKS)
def test_random_2d_rotated_ifs_matches_reference(ifs, seed, chunk):
    G = _random_grid(seed, ([-0.25, -0.25], [1.25, 1.25]), 2.0**-6, 0.3)
    target = grid_from_bbox(([-1.0, -0.5], [1.5, 1.5]), 2.0**-6)
    # the empty word needs G on target's grid; its descendants do not
    words = list(words_up_to_ratio(ifs, 0.04))[1:]
    _check_against_reference(ifs, words, G, target, chunk)


SIGNS = st.sampled_from([1.0, -1.0])


def _axis_aligned_map(draw) -> Similarity:
    # a reflection per axis or none; offsets reach past the target, so
    # image boxes are clipped at both of its edges
    q = np.diag([draw(SIGNS), draw(SIGNS)])
    offsets = st.one_of(OFFSETS, st.floats(-0.5, 1.25))
    return Similarity(draw(RATIOS), q, np.array([draw(offsets), draw(offsets)]))


@st.composite
def ifs_2d_axis_aligned(draw):
    return IFS(tuple(_axis_aligned_map(draw) for _ in range(draw(st.integers(2, 4)))), 2)


@st.composite
def ifs_2d_one_rotated(draw):
    maps = [_axis_aligned_map(draw) for _ in range(draw(st.integers(1, 3)))]
    angle = draw(st.one_of(st.sampled_from([30.0, 90.0, 180.0]), st.floats(1.0, 179.0)))
    rotated = Similarity(draw(RATIOS), rotation(angle), np.array([draw(OFFSETS), draw(OFFSETS)]))
    maps.insert(draw(st.integers(0, len(maps))), rotated)
    return IFS(tuple(maps), 2)


def _check_2d_clipped(ifs, seed, chunk):
    G = _random_grid(seed, ([-0.25, -0.25], [1.25, 1.25]), 2.0**-6, 0.3)
    target = grid_from_bbox(([-0.125, 0.0], [1.0, 0.875]), 2.0**-6)
    # the empty word needs G on target's grid; its descendants do not
    _check_against_reference(ifs, list(words_up_to_ratio(ifs, 0.04))[1:], G, target, chunk)


@settings(max_examples=40, deadline=None)
@given(ifs=ifs_2d_axis_aligned(), seed=st.integers(0, 2**32 - 1), chunk=CHUNKS)
def test_random_2d_axis_aligned_ifs_matches_reference(ifs, seed, chunk):
    """Signed-diagonal maps take the per-axis path; chunks of 7 and 64 cells
    split one box shape's tiles (and a large box's rows) across blocks."""
    _check_2d_clipped(ifs, seed, chunk)


@settings(max_examples=25, deadline=None)
@given(ifs=ifs_2d_one_rotated(), seed=st.integers(0, 2**32 - 1), chunk=CHUNKS)
def test_random_2d_one_rotated_map_matches_reference(ifs, seed, chunk):
    """One rotated map among axis-aligned ones: every word length stamps
    tiles through both paths in one call."""
    _check_2d_clipped(ifs, seed, chunk)


@pytest.mark.parametrize("chunk", [1, tiling.CHUNK_CELLS, 1 << 20])
def test_cell_edge_follows_the_matrix_product(chunk):
    """A tile point that lands on an edge of G's cells.

    Which cell it falls in is decided by the last bit of the product that
    AffineMap takes through BLAS (a fused multiply-add on many hosts), which
    an unfused elementwise sum can miss. Chunks of one cell take every row
    on its own; chunks of 2**20 cells take the whole box in one block.
    """
    sim = Similarity(0.5, rotation(2.0), np.array([0.25, 0.25]))
    ifs = IFS((sim, Similarity(0.5, np.eye(2), np.zeros(2))), 2)
    delta = 2.0**-6
    target = Grid(np.zeros(2), delta, np.zeros((64, 64), dtype=bool))
    centers = (np.array([[31, 39], [0, 0]]) + 0.5) * delta
    edge = sim.inverse()(centers)[0, 0]
    occ = np.zeros((32, 256), dtype=bool)
    occ[16] = True
    G = Grid(np.array([edge - 16 * delta, -2.0]), delta, occ)
    words = [Word((0,))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiling, "CHUNK_CELLS", chunk)
        got = rasterize_tiles(ifs, WordTree.from_words(ifs, words), G, target)
        img = _map_cells(sim, G, target)
    assert np.array_equal(got, reference_tiles(ifs, words, G, target))
    assert np.array_equal(img, reference_map_cells(sim, G, target))


# ---------------------------------------------------------------------------
# refusals


def test_words_must_be_prefix_closed():
    p = get_preset("cantor")
    t = build_tiling(p.scene.ifs, p.scene.region, 2.0**-8)
    with pytest.raises(ConfigError):
        WordTree.from_words(t.ifs, [Word(), Word((0, 1))])


def test_stacked_similarity_checks():
    q = np.stack([np.eye(2), rotation(30.0)])
    check_similarity_parts(np.array([0.5, 0.25]), q)
    with pytest.raises(ConfigError):
        check_similarity_parts(np.array([0.5, 1.0]), q)
    with pytest.raises(ConfigError):
        check_similarity_parts(np.array([0.5, 0.25]), q * (1 + 1e-9))


# ---------------------------------------------------------------------------
# the word tree against the stack walk it replaced


def reference_words(ifs: IFS, r_min: float, max_len: int = ifs_module.WORD_MAX_LEN):
    """(word, ratio) of every word with r_sigma > r_min, depth first, highest letter first."""
    ratios = [m.ratio for m in ifs.maps]
    out, stack = [], [(Word(), 1.0)]
    while stack:
        w, r = stack.pop()
        if r <= r_min:
            continue
        out.append((w, r))
        if len(w) >= max_len:
            raise FtlError("word tree exceeded max length")
        for a in range(ifs.n):
            if r * ratios[a] > r_min:
                stack.append((w.extend(a), r * ratios[a]))
    return out


def _assert_tree_is_reference(ifs: IFS, r_min: float):
    tree = words_up_to_ratio(ifs, r_min)
    ref = reference_words(ifs, r_min)
    assert len(tree) == len(ref)
    assert [w.letters for w in tree] == [w.letters for w, _ in ref]
    # each level lists its words in lexicographic order, by prefix index and
    # letter, with the walk's ratios to the bit
    level = [()]
    for length in range(len(tree.ratio)):
        if length:
            level = [level[p] + (a,) for p, a in zip(tree.parent[length], tree.letter[length])]
        want = sorted((w.letters, r) for w, r in ref if len(w) == length)
        assert level[: tree.ratio[length].size] == [w for w, _ in want]
        assert tree.ratio[length].tobytes() == np.array([r for _, r in want]).tobytes()
    return tree


@pytest.mark.parametrize("name", sorted(COARSE_DELTA))
def test_word_tree_is_the_stack_walk_on_presets(name):
    ifs = get_preset(name).scene.ifs
    for r_min in (0.3, 0.01, 0.002):
        _assert_tree_is_reference(ifs, r_min)


@settings(max_examples=40, deadline=None)
@given(ifs=st.one_of(ifs_1d(), ifs_2d()), r_min=st.sampled_from([0.5, 0.25, 0.03, 0.004]))
def test_word_tree_is_the_stack_walk_on_random_ifs(ifs, r_min):
    tree = _assert_tree_is_reference(ifs, r_min)
    # a word list made into a tree, with or without the empty word, is
    # the same tree
    words = list(tree)
    again = WordTree.from_words(ifs, words)
    for a, b in zip(again.ratio + again.letter, tree.ratio + tree.letter):
        assert a.tobytes() == b.tobytes()
    assert [w.letters for w in WordTree.from_words(ifs, words[1:])] == [w.letters for w in words[1:]]


def test_word_tree_depth_guard():
    """The walk refused a word of length WORD_MAX_LEN; so does the tree."""
    ifs = get_preset("cantor").scene.ifs  # ratios 1/3: length L has r = 3^-L
    depth = 5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ifs_module, "WORD_MAX_LEN", depth)
        assert len(words_up_to_ratio(ifs, 3.0**-depth)) == 2 ** depth - 1  # deepest length 4
        with pytest.raises(FtlError, match="word tree exceeded max length"):
            words_up_to_ratio(ifs, 3.0**-depth * 0.99)  # reaches length 5
        with pytest.raises(FtlError):
            reference_words(ifs, 3.0**-depth * 0.99, depth)
    assert len(words_up_to_ratio(ifs, 1.0)) == 0


# ---------------------------------------------------------------------------
# tiles stamped from the box of G's occupied cells


def _stamp_check(ifs: IFS, G: Grid, r_min: float):
    tree = words_up_to_ratio(ifs, r_min)
    for chunk in (7, tiling.CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tiling, "CHUNK_CELLS", chunk)
            got = rasterize_tiles(ifs, tree, G, G)
        assert np.array_equal(got, reference_tiles(ifs, tree, G, G))


def test_stamp_generator_touching_the_raster_edge():
    """G's occupied box reaches two edges of the raster, so image boxes clip there."""
    delta = 2.0**-6
    occ = np.zeros((80, 72), dtype=bool)
    occ[:20, 50:] = True
    occ[60:, :9] = True
    G = Grid(np.array([-0.125, -0.0625]), delta, occ)
    for name in ("carpet", "gasket", "koch"):
        _stamp_check(get_preset(name).scene.ifs, G, 0.02)


def test_stamp_generator_of_one_cell():
    """Ratios near 1 keep the tiles of a one-cell G about a cell wide."""
    occ = np.zeros((136, 136), dtype=bool)
    occ[70, 41] = True
    G = Grid(np.array([-0.0625, -0.0625]), 2.0**-7, occ)
    near_one = IFS((Similarity(0.95, np.eye(2), np.array([0.02, 0.0])),
                    Similarity(0.9, rotation(30.0), np.array([0.1, -0.05]))), 2)
    for ifs in (get_preset("carpet").scene.ifs, near_one):
        _stamp_check(ifs, G, 0.7 if ifs is near_one else 0.01)
    occ = np.zeros(1100, dtype=bool)
    occ[515] = True
    _stamp_check(get_preset("cantor").scene.ifs, Grid(np.array([-0.05]), 2.0**-10, occ), 0.001)


def test_stamp_generator_of_separated_1d_gaps():
    """A 1-d generator of three gaps: its box spans the space between them."""
    delta = 2.0**-11
    O = Grid(np.array([-2 * delta]), delta, np.zeros(2052, dtype=bool))
    x = O.centers(0)
    occ = ((x > 0.1) & (x < 0.15)) | ((x > 0.42) & (x < 0.45)) | ((x > 0.8) & (x < 0.84))
    maps = tuple(Similarity(r, np.eye(1), np.array([t])) for r, t in ((0.1, 0.0), (0.27, 0.15), (0.3, 0.45), (0.16, 0.84)))
    _stamp_check(IFS(maps, 1), O.with_occupancy(occ), 0.002)


# ---------------------------------------------------------------------------
# 1-d images and tiles stamped as runs of cells, against per-cell sampling

SPACINGS = st.sampled_from([2.0**-9, 2.0**-8, 1 / 300, 0.0031, 3 * 2.0**-10])


def _ifs_from_scene_file(maps) -> IFS:
    """A 1-d IFS as a scene file gives it; a reflection is "matrix": [[-1]]."""
    return ifs_module.load_ifs({"dim": 1, "maps": [
        {"ratio": r, "matrix": [[q]], "translation": [t]} for r, q, t in maps]})


@st.composite
def stamp_1d(draw):
    """Maps, a source raster and a prefilled target on its own lattice."""
    ratios = st.one_of(RATIOS, st.floats(0.05, 0.95))
    offsets = st.one_of(OFFSETS, st.floats(-0.5, 1.5))
    ifs = _ifs_from_scene_file(
        [(draw(ratios), draw(SIGNS), draw(offsets)) for _ in range(draw(st.integers(2, 4)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = rng.random(draw(st.integers(1, 400))) < draw(st.floats(0.02, 0.9))
    # sources whose runs reach one or both raster edges
    edges = draw(st.sampled_from([(), (0,), (-1,), (0, -1)]))
    occ[list(edges)] = True
    source = Grid(np.array([draw(st.floats(-0.3, 0.3))]), draw(SPACINGS), occ)
    origin = draw(st.one_of(st.just(float(source.origin[0])), st.floats(-0.6, 0.3)))
    target = Grid(np.array([origin]), draw(st.one_of(st.just(source.spacing), SPACINGS)),
                  rng.random(draw(st.integers(1, 600))) < 0.1)
    return ifs, source, target


@settings(max_examples=200, deadline=None)
@given(case=stamp_1d())
def test_1d_stamp_runs_match_per_cell_sampling(case):
    """Reflections, runs touching the source's edges, and targets whose
    origin and spacing differ from the source's; stamping ORs into occ."""
    ifs, source, target = case
    got = target.occupancy.copy()
    tiling._stamp_images(got, *tiling._stack(ifs.maps), source, target)
    want = target.occupancy.copy()
    for m in ifs.maps:
        want |= reference_map_cells(m, source, target)
    assert np.array_equal(got, want)
    # the tiles of all word lengths in one stamp, against one word at a time
    # (no empty word: source is not on target's lattice)
    words = list(words_up_to_ratio(ifs, 0.99 * max(ifs.ratios) ** 3))[1:]
    _check_against_reference(ifs, words, source, target, tiling.CHUNK_CELLS)


CANTOR = [(1 / 3, 1.0, 0.0), (1 / 3, 1.0, 2 / 3)]
REFLECTED_CANTOR = [(1 / 3, -1.0, 1 / 3), (1 / 3, 1.0, 2 / 3)]
TWO_GAPS = IntervalUnion(((0.0, 1 / 3), (2 / 3, 1.0)))
SCENES_1D = {
    "cantor_two_intervals": Scene(_ifs_from_scene_file(CANTOR), TWO_GAPS, 2.0**-12, ([0.0], [1.0])),
    "reflected_two_intervals": Scene(_ifs_from_scene_file(REFLECTED_CANTOR), TWO_GAPS, 2.0**-12, ([0.0], [1.0])),
    "reflected_three_maps": Scene(_ifs_from_scene_file([(0.3, -1.0, 0.3), (0.2, 1.0, 0.4), (0.25, -1.0, 1.0)]),
                                  IntervalUnion(((0.0, 1.0),)), 2.0**-13, ([0.0], [1.0])),
    "cantor_central": Scene(_ifs_from_scene_file(CANTOR), "central", 2.0**-10, ([-0.5], [1.5])),
}


@pytest.mark.parametrize("name", sorted(SCENES_1D))
def test_1d_scene_tilings_match_per_cell_sampling(name):
    """Multi-interval O, reflected maps and a central open set: the images
    S_i(O) and the tile union of a whole scene, through the bundle."""
    t = SceneBundle(SCENES_1D[name]).tiling
    assert t.O.occupancy.any() and len(t.tile_words) > 3
    for m, img in zip(t.ifs.maps, t.map_images, strict=True):
        assert np.array_equal(img, reference_map_cells(m, t.O, t.O))
    ref = reference_tiles(t.ifs, t.tile_words, t.G, t.O)
    assert np.array_equal(t.tile_union.occupancy, ref & t.O.occupancy)


# SHA-256 over the benchmark's 300 rand1d catalogue draws (bench/workloads.py)
# of each draw's O, G, Gamma and tile_union (grid_digest) and its images packed
# one bit per map (np.packbits along the map axis), as
# per-cell sampling of every 1-d image and tile produced them
RAND1D_TILINGS_SHA256 = "afc3e6067ccefe1c7f2c0cf51dac8c9b03c645bc2b191be34e3c0752661a4f9b"


def test_rand1d_catalogue_tilings_digest():
    spec = importlib.util.spec_from_file_location(
        "rand1d_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    h = hashlib.sha256()
    for slot in range(wl.RAND1D_SLOTS):
        for variant in range(wl.RAND1D_VARIANTS):
            scene = wl.rand1d_scene(wl.rand1d_draw(slot, variant))
            t = build_tiling(scene.ifs, scene.region, scene.delta)
            for g in (t.O, t.G, t.Gamma, t.tile_union):
                h.update(grid_digest(g).encode())
            bits = np.packbits(np.array(t.map_images), axis=0)
            h.update(str(bits.shape).encode() + bits.tobytes())
    assert h.hexdigest() == RAND1D_TILINGS_SHA256


@settings(max_examples=300, deadline=None)
@given(ratio=st.floats(0.05, 0.95), sign=SIGNS, t=st.floats(-0.5, 1.5), i=st.integers(0, 199),
       r0=st.integers(6, 300), start=st.booleans())
def test_1d_stamp_preimage_on_a_cell_edge(ratio, sign, t, i, r0, start):
    """A target center whose preimage lands exactly on the edge where a run of
    source cells starts (or stops): the last bit of each float operation
    decides the cell, so the run ends must take AffineMap's and indices_of's."""
    m = _ifs_from_scene_file([(ratio, sign, t), (0.5, 1.0, 0.0)]).maps[0]
    target = Grid(np.zeros(1), 0.0031, np.zeros(200, dtype=bool))
    p = m.inverse()(target.centers(0))[i]
    h = 2.0**-9
    origin = p - r0 * h
    assume((p - origin) / h == r0)
    occ = np.zeros(r0 + 6, dtype=bool)
    occ[r0 : r0 + 5] = start
    occ[r0 - 5 : r0] = not start
    source = Grid(np.array([origin]), h, occ)
    img = _map_cells(m, source, target)
    assert img[i] == start
    assert np.array_equal(img, reference_map_cells(m, source, target))
