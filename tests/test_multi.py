"""Tests for the batched multi-vector layer: packed-matrix codecs, the
``bmv_*_multi`` kernels (including ragged shapes and the strict
packed-operand validation), engine batching, and the batched algorithms."""

import math

import numpy as np
import pytest

from repro.bitops.packing import (
    pack_batch_words,
    pack_bitmatrix,
    pack_bitvector,
    plane_count,
    plane_slices,
    unpack_batch_words,
    unpack_bitmatrix,
    unpack_bitvector,
)
from repro.datasets.generators import dot_pattern, hybrid_pattern
from repro.engines import BitEngine, GraphBLASTEngine
from repro.engines.bit import bmv_stats
from repro.graph import Graph
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.kernels import bmv as bmv_mod
from repro.kernels.bmv import (
    bmv_bin_bin_bin,
    bmv_bin_bin_bin_masked,
    bmv_bin_bin_bin_multi,
    bmv_bin_bin_bin_multi_masked,
    bmv_bin_bin_bin_sliced_masked,
    bmv_bin_bin_full,
    bmv_bin_bin_full_multi,
    bmv_bin_full_full,
    bmv_bin_full_full_multi,
)
from repro.semiring import ARITHMETIC, MIN_PLUS, SEMIRINGS


def setup(nrows=77, ncols=53, k=5, seed=0, density=0.15):
    """Deliberately ragged: neither dimension is a multiple of any
    tile_dim."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((nrows, ncols)) < density).astype(np.float32)
    Xb = (rng.random((ncols, k)) < 0.35).astype(np.float32)
    Xf = (rng.random((ncols, k)) * 10).astype(np.float32)
    masks = rng.random((nrows, k)) < 0.5
    return dense, Xb, Xf, masks


# ---------------------------------------------------------------------------
# Packed-matrix codec
# ---------------------------------------------------------------------------
class TestBitmatrixPacking:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_columns_equal_bitvector_packing(self, d):
        _, Xb, _, _ = setup(seed=d)
        words = pack_bitmatrix(Xb, d)
        for j in range(Xb.shape[1]):
            assert np.array_equal(words[:, j], pack_bitvector(Xb[:, j], d))

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_roundtrip_ragged(self, d):
        rng = np.random.default_rng(d + 1)
        n = 3 * d + d // 2
        X = (rng.random((n, 4)) < 0.4).astype(np.uint8)
        assert np.array_equal(
            unpack_bitmatrix(pack_bitmatrix(X, d), d, n), X
        )

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            pack_bitmatrix(np.zeros(8), 8)

    def test_unpack_wrong_word_rows(self):
        words = pack_bitmatrix(np.ones((16, 2)), 8)
        with pytest.raises(ValueError):
            unpack_bitmatrix(words, 8, 24)
        with pytest.raises(ValueError):
            unpack_bitmatrix(words, 8, 8)

    def test_unpack_bitvector_exact_length(self):
        words = pack_bitvector(np.ones(16), 8)
        assert words.shape == (2,)
        with pytest.raises(ValueError):
            unpack_bitvector(words, 8, 24)  # too few words for n
        with pytest.raises(ValueError):
            unpack_bitvector(words, 8, 8)  # surplus word


# ---------------------------------------------------------------------------
# Multi-word plane layout (k > tile word width)
# ---------------------------------------------------------------------------
class TestWordPlanes:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_plane_count_boundaries(self, d):
        assert plane_count(0, d) == 0
        assert plane_count(1, d) == 1
        assert plane_count(d, d) == 1
        assert plane_count(d + 1, d) == 2
        assert plane_count(2 * d + 3, d) == 3

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_plane_slices_cover_batch_disjointly(self, d):
        for k in (0, 1, d, d + 1, 2 * d + 3):
            slices = plane_slices(k, d)
            assert len(slices) == plane_count(k, d)
            cols = [j for sl in slices for j in range(k)[sl]]
            assert cols == list(range(k))  # disjoint, ordered, complete
            for sl in slices:
                assert sl.stop - sl.start <= d  # at most one word wide

    def test_validation(self):
        with pytest.raises(ValueError):
            plane_count(-1, 8)
        with pytest.raises(ValueError):
            plane_count(4, 5)
        with pytest.raises(ValueError):
            plane_slices(-1, 8)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_pack_bitmatrix_wider_than_word(self, d):
        """Packing accepts k > d; columns stay independent vectors."""
        rng = np.random.default_rng(d)
        n, k = 2 * d + 5, 2 * d + 3
        X = (rng.random((n, k)) < 0.4).astype(np.uint8)
        words = pack_bitmatrix(X, d)
        assert words.shape == ((n + d - 1) // d, k)
        assert np.array_equal(unpack_bitmatrix(words, d, n), X)
        for j in range(k):
            assert np.array_equal(words[:, j], pack_bitvector(X[:, j], d))

    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize("k_kind", ("d", "d+1", "2d+3"))
    def test_kernels_stripe_across_planes(self, d, k_kind):
        """Every multi kernel must be bitwise identical to per-column
        singles when the batch straddles the word-width boundary."""
        k = {"d": d, "d+1": d + 1, "2d+3": 2 * d + 3}[k_kind]
        dense, _, _, _ = setup(seed=d)
        rng = np.random.default_rng(100 + d + k)
        ncols = dense.shape[1]
        Xb = (rng.random((ncols, k)) < 0.35).astype(np.float32)
        Xf = (rng.random((ncols, k)) * 10).astype(np.float32)
        masks = rng.random((dense.shape[0], k)) < 0.5
        A = b2sr_from_dense(dense, d)
        Xw = pack_bitmatrix(Xb, d)

        Yb = bmv_bin_bin_bin_multi(A, Xw)
        Ym = bmv_bin_bin_bin_multi_masked(A, Xw, masks, complement=True)
        Yc = bmv_bin_bin_full_multi(A, Xw)
        Yf = bmv_bin_full_full_multi(A, Xf, MIN_PLUS)
        for j in range(k):
            xw = pack_bitvector(Xb[:, j], d)
            assert np.array_equal(Yb[:, j], bmv_bin_bin_bin(A, xw))
            assert np.array_equal(
                Ym[:, j],
                bmv_bin_bin_bin_masked(
                    A, xw, masks[:, j], complement=True
                ),
            )
            assert np.array_equal(Yc[:, j], bmv_bin_bin_full(A, xw))
            assert np.array_equal(
                Yf[:, j], bmv_bin_full_full(A, Xf[:, j], MIN_PLUS)
            )

    def test_plane_boundary_independent_of_chunking(self):
        """Plane striping composes with tile chunking: shrinking the
        chunk budget must not change any column of a multi-plane batch."""
        old = bmv_mod._CHUNK_TILES
        bmv_mod._CHUNK_TILES = 7
        try:
            dense, _, _, _ = setup(seed=41, density=0.3)
            rng = np.random.default_rng(4)
            k = 19  # three planes at d=8
            Xb = (rng.random((dense.shape[1], k)) < 0.4).astype(np.float32)
            Xf = (rng.random((dense.shape[1], k)) * 5).astype(np.float32)
            A = b2sr_from_dense(dense, 8)
            Yw = bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, 8))
            Yf = bmv_bin_full_full_multi(A, Xf, ARITHMETIC)
        finally:
            bmv_mod._CHUNK_TILES = old
        for j in range(k):
            assert np.array_equal(
                Yw[:, j], bmv_bin_bin_bin(A, pack_bitvector(Xb[:, j], 8))
            )
            assert np.array_equal(
                Yf[:, j], bmv_bin_full_full(A, Xf[:, j], ARITHMETIC)
            )

    def test_engine_multi_expand_wide_batch(self):
        """Engine-level batched expansion equals the per-column fallback
        past the word width."""
        from repro.datasets.generators import dot_pattern

        g = dot_pattern(120, 0.04, seed=13)
        rng = np.random.default_rng(0)
        k = 21  # three planes at d=8
        F = np.zeros((g.n, k), dtype=bool)
        F[rng.choice(g.n, k), np.arange(k)] = True
        V = F.copy()
        bit = BitEngine(g, tile_dim=8)
        fw, vw = pack_batch_words(F), pack_batch_words(V)
        batched = bit.frontier_expand_multi(fw, vw, k)
        loop = super(BitEngine, bit).frontier_expand_multi(fw, vw, k)
        assert np.array_equal(batched, loop)


# ---------------------------------------------------------------------------
# Packed-operand validation (exact length, packing-width discipline)
# ---------------------------------------------------------------------------
class TestPackedOperandValidation:
    def _matrix(self, d=8):
        dense, _, _, _ = setup()
        return b2sr_from_dense(dense, d)

    def test_under_length_rejected(self):
        A = self._matrix()
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_bin(A, np.zeros(A.n_tile_cols - 1, dtype=np.uint8))

    def test_over_length_rejected(self):
        A = self._matrix()
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_full(A, np.zeros(A.n_tile_cols + 3, dtype=np.uint8))

    def test_wider_dtype_safely_narrowed(self):
        dense, xb, _, _ = setup(k=1)
        A = b2sr_from_dense(dense, 8)
        xw = pack_bitvector(xb[:, 0] if xb.ndim == 2 else xb, 8)
        wide = xw.astype(np.uint64)
        assert np.array_equal(
            bmv_bin_bin_bin(A, wide), bmv_bin_bin_bin(A, xw)
        )

    def test_wider_dtype_with_high_bits_rejected(self):
        """A word carrying bits beyond tile_dim was packed at a different
        width; silently truncating it would drop set bits."""
        A = self._matrix(d=8)
        bad = np.full(A.n_tile_cols, 0x1FF, dtype=np.uint16)
        with pytest.raises(ValueError, match="different tile_dim"):
            bmv_bin_bin_bin(A, bad)

    def test_mismatched_packing_width_rejected(self):
        """Packing at d=16 and running a d=8 kernel must not be silently
        accepted even when the word counts happen to collide."""
        dense = np.zeros((32, 32), dtype=np.float32)
        dense[0, 31] = 1.0
        A = b2sr_from_dense(dense, 8)  # 4 words of 8 bits
        v = np.zeros(32)
        v[15] = 1.0
        wrong = pack_bitvector(v, 16)  # 2 words of 16 bits
        with pytest.raises(ValueError):
            bmv_bin_bin_bin(A, wrong)

    def test_float_dtype_rejected(self):
        A = self._matrix()
        with pytest.raises(ValueError, match="integer"):
            bmv_bin_bin_bin(A, np.zeros(A.n_tile_cols, dtype=np.float32))

    def test_negative_signed_words_rejected(self):
        """A negative signed word is a sign bit beyond tile_dim; narrowing
        it would silently wrap and drop set bits."""
        A = self._matrix(d=8)
        bad = np.full(A.n_tile_cols, -32768, dtype=np.int16)
        with pytest.raises(ValueError, match="different tile_dim"):
            bmv_bin_bin_bin(A, bad)

    def test_nonnegative_signed_words_narrowed(self):
        dense, xb, _, _ = setup(k=1)
        A = b2sr_from_dense(dense, 8)
        xw = pack_bitvector(xb[:, 0] if xb.ndim == 2 else xb, 8)
        assert np.array_equal(
            bmv_bin_bin_bin(A, xw.astype(np.int64)), bmv_bin_bin_bin(A, xw)
        )

    def test_multi_wrong_word_rows_rejected(self):
        dense, Xb, _, _ = setup()
        A = b2sr_from_dense(dense, 8)
        words = pack_bitmatrix(Xb, 8)
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_bin_multi(A, words[:-1])
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_bin_multi(A, words[:, 0])  # 1-D

    def test_multi_mask_shape_rejected(self):
        dense, Xb, _, masks = setup()
        A = b2sr_from_dense(dense, 8)
        words = pack_bitmatrix(Xb, 8)
        with pytest.raises(ValueError):
            bmv_bin_bin_bin_multi_masked(A, words, masks[:, :-1])


# ---------------------------------------------------------------------------
# Multi kernels == per-column single kernels
# ---------------------------------------------------------------------------
class TestMultiKernels:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_bin_bin_bin_multi(self, d):
        dense, Xb, _, _ = setup(seed=d)
        A = b2sr_from_dense(dense, d)
        Yw = bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, d))
        for j in range(Xb.shape[1]):
            ref = bmv_bin_bin_bin(A, pack_bitvector(Xb[:, j], d))
            assert np.array_equal(Yw[:, j], ref)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_bin_bin_bin_multi_masked(self, d):
        dense, Xb, _, masks = setup(seed=d + 10)
        A = b2sr_from_dense(dense, d)
        Yw = bmv_bin_bin_bin_multi_masked(
            A, pack_bitmatrix(Xb, d), masks, complement=True
        )
        for j in range(Xb.shape[1]):
            ref = bmv_bin_bin_bin_masked(
                A, pack_bitvector(Xb[:, j], d), masks[:, j],
                complement=True,
            )
            assert np.array_equal(Yw[:, j], ref)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_bin_bin_full_multi(self, d):
        dense, Xb, _, _ = setup(seed=d + 20, density=0.25)
        A = b2sr_from_dense(dense, d)
        Y = bmv_bin_bin_full_multi(A, pack_bitmatrix(Xb, d))
        assert Y.shape == (dense.shape[0], Xb.shape[1])
        for j in range(Xb.shape[1]):
            ref = bmv_bin_bin_full(A, pack_bitvector(Xb[:, j], d))
            assert np.array_equal(Y[:, j], ref)

    @pytest.mark.parametrize("d", (4, 16, 32))
    @pytest.mark.parametrize(
        "semiring_name", sorted(SEMIRINGS), ids=lambda s: s
    )
    def test_bin_full_full_multi(self, d, semiring_name):
        dense, _, Xf, _ = setup(seed=d + 30)
        s = SEMIRINGS[semiring_name]
        A = b2sr_from_dense(dense, d)
        Y = bmv_bin_full_full_multi(A, Xf, s)
        for j in range(Xf.shape[1]):
            ref = bmv_bin_full_full(A, Xf[:, j], s)
            assert np.array_equal(Y[:, j], ref, equal_nan=True)

    def test_chunking_boundary(self):
        """Batch widths shrink the tile chunk; crossing chunk boundaries
        must not change any column."""
        old = bmv_mod._CHUNK_TILES
        bmv_mod._CHUNK_TILES = 7
        try:
            dense, Xb, Xf, _ = setup(seed=40, density=0.3)
            A = b2sr_from_dense(dense, 8)
            assert A.n_tiles > 14
            Yw = bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, 8))
            Yf = bmv_bin_full_full_multi(A, Xf, MIN_PLUS)
        finally:
            bmv_mod._CHUNK_TILES = old
        for j in range(Xb.shape[1]):
            assert np.array_equal(
                Yw[:, j], bmv_bin_bin_bin(A, pack_bitvector(Xb[:, j], 8))
            )
            assert np.array_equal(
                Yf[:, j], bmv_bin_full_full(A, Xf[:, j], MIN_PLUS)
            )

    def test_empty_matrix(self):
        A = b2sr_from_dense(np.zeros((20, 12), dtype=np.float32), 8)
        Xb = np.ones((12, 3), dtype=np.float32)
        Yw = bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, 8))
        assert Yw.shape == (A.n_tile_rows, 3) and not Yw.any()
        Y = bmv_bin_bin_full_multi(A, pack_bitmatrix(Xb, 8))
        assert Y.shape == (20, 3) and not Y.any()
        Yf = bmv_bin_full_full_multi(A, np.ones((12, 3)), ARITHMETIC)
        assert Yf.shape == (20, 3) and not Yf.any()

    def test_all_zero_frontiers(self):
        dense, _, _, masks = setup()
        A = b2sr_from_dense(dense, 16)
        Z = np.zeros((dense.shape[1], 4), dtype=np.float32)
        Yw = bmv_bin_bin_bin_multi_masked(
            A, pack_bitmatrix(Z, 16), masks[:, :4]
        )
        assert not Yw.any()

    def test_zero_width_batch(self):
        dense, _, _, _ = setup()
        A = b2sr_from_dense(dense, 8)
        Yw = bmv_bin_bin_bin_multi(
            A, np.zeros((A.n_tile_cols, 0), dtype=np.uint8)
        )
        assert Yw.shape == (A.n_tile_rows, 0)


# ---------------------------------------------------------------------------
# Bit-sliced boolean sweep vs the tile sweep
# ---------------------------------------------------------------------------
SLICED_N = 101  # not a multiple of any tile dim


def sliced_graph(kind: str) -> Graph:
    """``"mixed"``: random edges among the first 90 vertices (91–100 are
    isolated) plus duplicated edges and self-loops; ``"edgeless"``: no
    edges at all; ``"empty"``: no vertices."""
    if kind == "empty":
        return Graph.from_edges(0, np.zeros((0, 2), dtype=np.int64))
    if kind == "edgeless":
        return Graph.from_edges(SLICED_N, np.zeros((0, 2), dtype=np.int64))
    rng = np.random.default_rng(7)
    edges = rng.integers(0, 90, size=(260, 2))
    loops = np.repeat(rng.choice(90, 12, replace=False), 2)[:, None]
    edges = np.concatenate([edges, edges[:40], np.hstack([loops, loops])])
    return Graph.from_edges(SLICED_N, edges)


def sliced_widths(d: int) -> list[int]:
    return sorted({1, 3, d, d + 1, 64, 65, 2 * d + 3})


SLICED_CASES = [(d, k) for d in TILE_DIMS for k in sliced_widths(d)]


class TileSweepEngine(BitEngine):
    """The bit engine with the vertex-major tile sweep as both BFS
    expands, with the tile sweep's own counters and packed-word
    certificate — the reference the set-bit sweep is held to.

    ``frontier_expand`` is the single-vector tile sweep
    (``pack_bitvector`` → ``bmv_bin_bin_bin_masked`` →
    ``unpack_bitvector``); ``frontier_expand_multi`` keeps the
    batch-major word contract by unpacking its operands, running
    ``pack_bitmatrix`` → ``bmv_bin_bin_bin_multi_masked`` →
    ``unpack_bitmatrix`` and packing the result."""

    def _tile_level(self, op, fw, launch, k):
        counters: dict = {}
        use_skip = self._round_skip(
            op, "bin_bin_bin_masked", lambda: bool(fw.all())
        )
        yw = launch(use_skip, counters)
        self.add_kernel(
            bmv_stats(
                self._bmv_prices, self._At, "bin_bin_bin_masked",
                self.device, locality=self._locality, k=k,
                active_tiles=self._bmv_active(use_skip, counters),
            )
        )
        self._note_round(op, use_skip, counters)
        self.algorithm_stats.host_us += 0.5
        return yw

    def frontier_expand(self, frontier, visited):
        d = self.tile_dim
        fw = pack_bitvector(frontier, d)
        yw = self._tile_level(
            "expand", fw,
            lambda skip, counters: bmv_bin_bin_bin_masked(
                self._At, fw, visited, complement=True,
                skip=skip, counters=counters,
            ),
            1,
        )
        return unpack_bitvector(yw, d, self.n).astype(bool)

    def frontier_expand_multi(self, frontiers, visiteds, k):
        d = self.tile_dim
        F = unpack_batch_words(frontiers, k)
        V = unpack_batch_words(visiteds, k)
        fw = pack_bitmatrix(F, d)
        yw = self._tile_level(
            "expand_multi", fw,
            lambda skip, counters: bmv_bin_bin_bin_multi_masked(
                self._At, fw, V, complement=True,
                skip=skip, counters=counters,
            ),
            k,
        )
        return pack_batch_words(unpack_bitmatrix(yw, d, self.n))


class TestSlicedExpand:
    @pytest.mark.parametrize("kind", ("mixed", "edgeless"))
    @pytest.mark.parametrize("skip", (True, False))
    @pytest.mark.parametrize(("d", "k"), SLICED_CASES)
    def test_kernel_equals_tile_sweep(self, d, k, skip, kind):
        A = sliced_graph(kind).b2sr_t(d)
        rng = np.random.default_rng(d * 1000 + k)
        F = rng.random((SLICED_N, k)) < rng.random(k) * 0.3
        F[:, 0] = False  # an empty frontier column
        V = rng.random((SLICED_N, k)) < 0.4
        c_tile: dict = {}
        c_sliced: dict = {}
        ref = unpack_bitmatrix(
            bmv_bin_bin_bin_multi_masked(
                A, pack_bitmatrix(F, d), V, complement=True,
                skip=skip, counters=c_tile,
            ),
            d, SLICED_N,
        ).astype(bool)
        yw = bmv_bin_bin_bin_sliced_masked(
            A, pack_batch_words(F), pack_batch_words(V), k,
            skip=skip, counters=c_sliced,
        )
        assert np.array_equal(unpack_batch_words(yw, k), ref)
        assert c_sliced == c_tile

    @pytest.mark.parametrize("kind", ("mixed", "edgeless"))
    @pytest.mark.parametrize("skip_inactive", (True, False, "auto"))
    @pytest.mark.parametrize(("d", "k"), SLICED_CASES)
    def test_multi_source_bfs_equals_tile_sweep(
        self, d, k, skip_inactive, kind
    ):
        from repro.algorithms import multi_source_bfs

        g = sliced_graph(kind)
        sources = np.random.default_rng(k).integers(0, SLICED_N, k)
        sliced = BitEngine(g, tile_dim=d, skip_inactive=skip_inactive)
        tile = TileSweepEngine(g, tile_dim=d, skip_inactive=skip_inactive)
        depth, rep = multi_source_bfs(sliced, sources)
        ref_depth, ref_rep = multi_source_bfs(tile, sources)
        assert np.array_equal(depth, ref_depth)
        assert rep == ref_rep
        assert sliced.auto_dense_rounds == tile.auto_dense_rounds

    def test_auto_certifies_dense_rounds(self):
        """The auto policy's dense rounds (certified fully active) are
        taken on the same rounds as with the tile sweep — and do occur."""
        from repro.algorithms import multi_source_bfs

        g = dot_pattern(256, 0.05, seed=2)
        sources = np.random.default_rng(0).choice(g.n, 16, replace=False)
        for d in (16, 32):
            sliced = BitEngine(g, tile_dim=d)
            tile = TileSweepEngine(g, tile_dim=d)
            _, rep = multi_source_bfs(sliced, sources)
            _, ref_rep = multi_source_bfs(tile, sources)
            assert rep == ref_rep
            assert sliced.auto_dense_rounds == tile.auto_dense_rounds > 0

    def test_activity_is_per_tile_plane_not_per_word(self):
        """At d=4 a 40-wide batch spans ten 4-column planes inside one
        64-bit word; only plane 1 (column 5) is active, and only in
        column block 0, so exactly block 0's tiles count, once."""
        g = sliced_graph("mixed")
        A = g.b2sr_t(4)
        k = 40
        F = np.zeros((SLICED_N, k), dtype=bool)
        F[:4, 5] = True
        V = np.zeros_like(F)
        c_tile: dict = {}
        c_sliced: dict = {}
        bmv_bin_bin_bin_multi_masked(
            A, pack_bitmatrix(F, 4), V, complement=True, skip=True,
            counters=c_tile,
        )
        bmv_bin_bin_bin_sliced_masked(
            A, pack_batch_words(F), pack_batch_words(V), k,
            skip=True, counters=c_sliced,
        )
        block0 = int(np.count_nonzero(A.indices == 0))
        assert block0 > 0
        expected = {
            "active_tiles": float(block0),
            "tile_visits": float(A.n_tiles * 10),
        }
        assert c_tile == expected
        assert c_sliced == expected

    def test_operand_validation(self):
        A = sliced_graph("mixed").b2sr_t(8)
        ok = np.zeros((SLICED_N, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            bmv_bin_bin_bin_sliced_masked(A, ok[:-1], ok, 3)
        with pytest.raises(ValueError):
            bmv_bin_bin_bin_sliced_masked(A, ok, ok, 65)
        with pytest.raises(ValueError):
            bmv_bin_bin_bin_sliced_masked(A, ok.astype(np.int64), ok, 3)


# ---------------------------------------------------------------------------
# Push and pull routes of the set-bit sweep
# ---------------------------------------------------------------------------
PUSH_WIDTHS = (1, 63, 64, 65, 130)

#: ``_PUSH_SHARE`` values that force a route through the public kernel
#: (``"auto"`` keeps the measured threshold).
ROUTES = {
    "auto": bmv_mod._PUSH_SHARE, "push": math.inf, "pull": -math.inf,
}


def push_operands(n: int, k: int, seed: int):
    """Frontiers from empty to dense (column 0 empty, column 1 full) and
    a random visited set, as ``(n, k)`` bools."""
    rng = np.random.default_rng(seed)
    F = rng.random((n, k)) < rng.random(k) * 0.3
    F[:, 0] = False
    if k > 1:
        F[:, 1] = True
    V = rng.random((n, k)) < 0.4
    return F, V


class TestPushRoute:
    @pytest.mark.parametrize("kind", ("mixed", "edgeless", "empty"))
    @pytest.mark.parametrize("skip", (True, False))
    @pytest.mark.parametrize("k", PUSH_WIDTHS)
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_routes_equal_tile_sweep(self, d, k, skip, kind, monkeypatch):
        """Push route, pull route and the tile sweep give the same words
        for sparse, dense and empty frontiers; the public kernel's
        counters are the tile sweep's whichever route it is forced to."""
        A = sliced_graph(kind).b2sr_t(d)
        n = A.nrows
        pl = A.plan()
        F, V = push_operands(n, k, d * 1000 + k)
        nwords = (k + 63) // 64
        sparse = F.copy()
        sparse[n // 3:] = False
        for F_case in (F, sparse, np.zeros_like(F)):
            c_tile: dict = {}
            ref = pack_batch_words(
                unpack_bitmatrix(
                    bmv_bin_bin_bin_multi_masked(
                        A, pack_bitmatrix(F_case, d), V, complement=True,
                        skip=skip, counters=c_tile,
                    ),
                    d, n,
                )
            )
            xw, vw = pack_batch_words(F_case), pack_batch_words(V)
            cols = np.flatnonzero(xw.any(axis=1))
            pushed = np.zeros((n, nwords), dtype=np.uint64)
            bmv_mod._sliced_push(pl, xw, cols, pushed)
            pulled = np.zeros((n, nwords), dtype=np.uint64)
            bmv_mod._sliced_pull(pl, xw, pulled)
            assert np.array_equal(pushed & ~vw, ref)
            assert np.array_equal(pulled & ~vw, ref)
            for share in ROUTES.values():
                monkeypatch.setattr(bmv_mod, "_PUSH_SHARE", share)
                c_sliced: dict = {}
                yw = bmv_bin_bin_bin_sliced_masked(
                    A, xw, vw, k, skip=skip, counters=c_sliced
                )
                assert np.array_equal(yw, ref)
                assert c_sliced == c_tile

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("kind", ("mixed", "edgeless"))
    @pytest.mark.parametrize("skip_inactive", (True, False, "auto"))
    @pytest.mark.parametrize("k", PUSH_WIDTHS)
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_algorithms_equal_tile_sweep(
        self, d, k, skip_inactive, kind, route, monkeypatch
    ):
        """``bfs`` (the ``k = 1`` column), ``multi_source_bfs`` and
        ``landmark_diameter`` give the tile sweep's depths, reports and
        auto dense rounds on either route."""
        from repro.algorithms import bfs, landmark_diameter, multi_source_bfs

        monkeypatch.setattr(bmv_mod, "_PUSH_SHARE", ROUTES[route])
        g = sliced_graph(kind)
        sources = np.random.default_rng(k).integers(0, SLICED_N, k)
        sliced = BitEngine(g, tile_dim=d, skip_inactive=skip_inactive)
        tile = TileSweepEngine(g, tile_dim=d, skip_inactive=skip_inactive)
        runs = [
            lambda e: multi_source_bfs(e, sources),
            lambda e: landmark_diameter(e, landmarks=k, seed=k),
        ]
        if k == 1:
            runs += [lambda e, s=s: bfs(e, int(s)) for s in (0, 5, 95)]
        for run in runs:
            got, rep = run(sliced)
            want, ref_rep = run(tile)
            assert np.array_equal(got, want)
            assert rep == ref_rep
            assert sliced.auto_dense_rounds == tile.auto_dense_rounds

    def test_single_and_batched_keep_their_own_skip_history(self):
        """The k = 1 expand shares the batched level code but not its
        "auto" history: a fully active batched round does not make the
        next single-source round dense."""
        g = dot_pattern(256, 0.05, seed=2)
        full = pack_batch_words(np.ones((g.n, 3), dtype=bool))
        none = np.zeros_like(full)
        for engine in (
            BitEngine(g, tile_dim=16), TileSweepEngine(g, tile_dim=16)
        ):
            engine.frontier_expand_multi(full, none, 3)
            engine.frontier_expand_multi(full, none, 3)
            assert engine.auto_dense_rounds == 1
            engine.frontier_expand(np.ones(g.n), np.zeros(g.n))
            assert engine.auto_dense_rounds == 1

    def test_sparse_frontier_takes_push(self, monkeypatch):
        """A one-vertex frontier pushes, a full one pulls, and only a
        push launch touches the column-order index's rows."""
        A = sliced_graph("mixed").b2sr_t(8)
        routes = []
        for name in ("_sliced_push", "_sliced_pull"):
            real = getattr(bmv_mod, name)
            monkeypatch.setattr(
                bmv_mod, name,
                lambda *a, _n=name, _f=real: (routes.append(_n), _f(*a)),
            )
        V = np.zeros((SLICED_N, 1), dtype=np.uint64)
        for frontier in (np.arange(SLICED_N) == 3, np.ones(SLICED_N)):
            xw = pack_batch_words(frontier[:, None])
            bmv_bin_bin_bin_sliced_masked(A, xw, V, 1)
        assert routes == ["_sliced_push", "_sliced_pull"]


# ---------------------------------------------------------------------------
# Engines and algorithms
# ---------------------------------------------------------------------------
class TestBatchedAlgorithms:
    @pytest.mark.parametrize("tile_dim", (8, 32))
    def test_multi_source_bfs_equals_singles(self, tile_dim):
        from repro.algorithms import bfs, multi_source_bfs

        g = hybrid_pattern(300, seed=5)
        rng = np.random.default_rng(1)
        sources = rng.choice(g.n, size=16, replace=False)
        engine = BitEngine(g, tile_dim=tile_dim)
        depth, rep = multi_source_bfs(engine, sources)
        # One kernel sweep (= one launch) per level, whatever k is.
        assert rep.kernel_stats.launches == rep.iterations
        for j, s in enumerate(sources):
            ref, _ = bfs(engine, int(s))
            assert np.array_equal(depth[:, j], ref)

    def test_multi_source_bfs_backends_agree(self):
        from repro.algorithms import multi_source_bfs

        g = dot_pattern(200, 0.02, seed=2)
        sources = np.array([0, 3, 11, 42])
        db, _ = multi_source_bfs(BitEngine(g, tile_dim=16), sources)
        dg, _ = multi_source_bfs(GraphBLASTEngine(g), sources)
        assert np.array_equal(db, dg)

    def test_multi_source_bfs_validates_sources(self):
        from repro.algorithms import multi_source_bfs

        g = dot_pattern(50, 0.05, seed=3)
        engine = BitEngine(g, tile_dim=8)
        with pytest.raises(ValueError):
            multi_source_bfs(engine, np.array([0, g.n]))
        with pytest.raises(ValueError):
            multi_source_bfs(engine, np.empty(0, dtype=np.int64))

    def test_pagerank_multi_matches_width_one(self):
        from repro.algorithms import pagerank_multi

        g = hybrid_pattern(200, seed=7)
        engine = BitEngine(g, tile_dim=32)
        seeds = np.array([2, 17, 101])
        ranks, rep = pagerank_multi(engine, seeds)
        assert ranks.shape == (g.n, 3)
        assert np.allclose(ranks.sum(axis=0), 1.0, atol=1e-4)
        for j, s in enumerate(seeds):
            col, _ = pagerank_multi(engine, np.array([s]))
            assert np.allclose(ranks[:, j], col[:, 0], atol=1e-6)

    def test_pagerank_multi_backends_agree(self):
        from repro.algorithms import pagerank_multi

        g = dot_pattern(150, 0.03, seed=9)
        seeds = np.array([1, 10, 20, 30])
        rb, _ = pagerank_multi(BitEngine(g, tile_dim=32), seeds)
        rg, _ = pagerank_multi(GraphBLASTEngine(g), seeds)
        assert np.allclose(rb, rg, atol=1e-4)

    def test_landmark_diameter_bounds(self):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import shortest_path

        from repro.algorithms import landmark_diameter

        g = hybrid_pattern(250, seed=11).symmetrized()
        engine = BitEngine(g, tile_dim=32)
        est, rep = landmark_diameter(engine, landmarks=12, seed=0)
        dist = shortest_path(
            sp.csr_matrix(
                (np.ones(g.nnz), g.csr.indices, g.csr.indptr),
                shape=g.csr.shape,
            ),
            method="D", unweighted=True,
        )
        true_diameter = int(dist[np.isfinite(dist)].max())
        # A valid, non-trivial lower bound, produced by batched sweeps.
        assert 0 < est <= true_diameter
        assert rep.iterations > 0

    def test_engine_base_fallback_matches_bit(self):
        """The default per-column fallback and the batched bit kernels
        produce identical expansions."""
        g = dot_pattern(120, 0.04, seed=13)
        rng = np.random.default_rng(0)
        F = np.zeros((g.n, 3), dtype=bool)
        F[rng.choice(g.n, 3), np.arange(3)] = True
        V = F.copy()
        bit = BitEngine(g, tile_dim=8)
        fw, vw = pack_batch_words(F), pack_batch_words(V)
        batched = bit.frontier_expand_multi(fw, vw, 3)
        loop = super(BitEngine, bit).frontier_expand_multi(fw, vw, 3)
        assert np.array_equal(batched, loop)


# ---------------------------------------------------------------------------
# bmm_bin_bin_b2sr chunked OR-merge
# ---------------------------------------------------------------------------
class TestBmmB2srChunking:
    def _check(self, dense_a, dense_b, d):
        from repro.kernels.bmm import bmm_bin_bin_b2sr

        A = b2sr_from_dense(dense_a, d)
        B = b2sr_from_dense(dense_b, d)
        C = bmm_bin_bin_b2sr(A, B)
        ref = ((dense_a != 0).astype(np.int64)
               @ (dense_b != 0).astype(np.int64)) > 0
        assert np.array_equal(C.to_dense() != 0, ref)

    @pytest.mark.parametrize("d", (4, 8, 32))
    def test_matches_dense_boolean_product(self, d):
        rng = np.random.default_rng(d)
        a = (rng.random((45, 37)) < 0.2).astype(np.float32)
        b = (rng.random((37, 51)) < 0.2).astype(np.float32)
        self._check(a, b, d)

    def test_chunk_boundary_merge(self):
        """Output tiles straddling the pair-chunk boundary must OR-merge
        across chunks, not duplicate."""
        import repro.kernels.bmm as bmm_mod

        rng = np.random.default_rng(0)
        a = (rng.random((40, 40)) < 0.4).astype(np.float32)
        b = (rng.random((40, 40)) < 0.4).astype(np.float32)
        old = bmm_mod._CHUNK_PAIRS
        bmm_mod._CHUNK_PAIRS = 3
        try:
            self._check(a, b, 8)
        finally:
            bmm_mod._CHUNK_PAIRS = old

    def test_dense_tile_graph_peak_scratch(self):
        """A dense tile graph produces many pairs; the chunked merge must
        handle it without materialising all pair tiles (smoke: result
        correctness on a dense-ish product)."""
        rng = np.random.default_rng(1)
        a = (rng.random((64, 64)) < 0.6).astype(np.float32)
        self._check(a, a, 4)
