"""Tests for tile/vector bit packing (repro.bitops.packing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.intrinsics import dtype_for_width
from repro.bitops.packing import (
    batch_word_count,
    nibble_pack,
    nibble_unpack,
    pack_batch_words,
    pack_bitmatrix,
    pack_bits_colmajor,
    pack_bits_rowmajor,
    pack_bitvector,
    transpose_packed,
    unpack_batch_words,
    unpack_bitmatrix,
    unpack_bits_colmajor,
    unpack_bits_rowmajor,
    unpack_bitvector,
)

DIMS = (4, 8, 16, 32)


def random_tiles(rng, d, count=5, density=0.3):
    return (rng.random((count, d, d)) < density).astype(np.uint8)


class TestRowMajorPacking:
    @pytest.mark.parametrize("d", DIMS)
    def test_roundtrip(self, d):
        rng = np.random.default_rng(d)
        tiles = random_tiles(rng, d)
        words = pack_bits_rowmajor(tiles)
        assert np.array_equal(unpack_bits_rowmajor(words, d), tiles)

    def test_lsb_first_convention(self):
        tile = np.zeros((4, 4), dtype=np.uint8)
        tile[1, 0] = 1  # row 1, column 0 -> bit 0 of word 1
        tile[1, 3] = 1  # row 1, column 3 -> bit 3 of word 1
        words = pack_bits_rowmajor(tile)
        assert words[1] == 0b1001
        assert words[0] == 0 and words[2] == 0

    @pytest.mark.parametrize("d", DIMS)
    def test_dtype_matches_width(self, d):
        tiles = np.zeros((1, d, d), dtype=np.uint8)
        words = pack_bits_rowmajor(tiles)
        assert words.dtype.itemsize * 8 >= d

    def test_nonzero_treated_as_one(self):
        tile = np.array([[0.5, 0], [0, -3]], dtype=np.float32)
        # 2x2 is not a valid dim
        with pytest.raises(ValueError):
            pack_bits_rowmajor(tile)

    def test_float_tiles_binarize(self):
        tile = np.zeros((4, 4), dtype=np.float32)
        tile[0, 0] = 2.5
        tile[3, 3] = -1.0
        words = pack_bits_rowmajor(tile)
        assert words[0] == 1 and words[3] == 0b1000

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            pack_bits_rowmajor(np.zeros((4, 8)))

    def test_batch_shapes(self):
        tiles = np.zeros((3, 2, 8, 8), dtype=np.uint8)
        words = pack_bits_rowmajor(tiles)
        assert words.shape == (3, 2, 8)


class TestColMajorPacking:
    @pytest.mark.parametrize("d", DIMS)
    def test_colmajor_is_rowmajor_of_transpose(self, d):
        rng = np.random.default_rng(d + 100)
        tiles = random_tiles(rng, d)
        cm = pack_bits_colmajor(tiles)
        rm_t = pack_bits_rowmajor(np.swapaxes(tiles, -1, -2))
        assert np.array_equal(cm, rm_t)

    @pytest.mark.parametrize("d", DIMS)
    def test_roundtrip(self, d):
        rng = np.random.default_rng(d + 200)
        tiles = random_tiles(rng, d)
        assert np.array_equal(
            unpack_bits_colmajor(pack_bits_colmajor(tiles), d), tiles
        )


class TestTransposePacked:
    @pytest.mark.parametrize("d", DIMS)
    def test_transposes_dense_content(self, d):
        rng = np.random.default_rng(d + 300)
        tiles = random_tiles(rng, d)
        tp = transpose_packed(pack_bits_rowmajor(tiles), d)
        assert np.array_equal(
            unpack_bits_rowmajor(tp, d), np.swapaxes(tiles, -1, -2)
        )

    @pytest.mark.parametrize("d", DIMS)
    def test_involution(self, d):
        rng = np.random.default_rng(d + 400)
        words = pack_bits_rowmajor(random_tiles(rng, d))
        assert np.array_equal(
            transpose_packed(transpose_packed(words, d), d), words
        )


class TestBitvector:
    @pytest.mark.parametrize("d", DIMS)
    def test_roundtrip_exact_multiple(self, d):
        rng = np.random.default_rng(d)
        v = (rng.random(4 * d) < 0.4).astype(np.uint8)
        words = pack_bitvector(v, d)
        assert words.shape == (4,)
        assert np.array_equal(unpack_bitvector(words, d, v.shape[0]), v)

    @pytest.mark.parametrize("d", DIMS)
    def test_roundtrip_with_padding(self, d):
        rng = np.random.default_rng(d + 1)
        n = 3 * d + d // 2
        v = (rng.random(n) < 0.4).astype(np.uint8)
        words = pack_bitvector(v, d)
        assert words.shape == (4,)
        assert np.array_equal(unpack_bitvector(words, d, n), v)

    def test_word_k_is_tile_column_k(self):
        v = np.zeros(64, dtype=np.float32)
        v[35] = 1.0  # word 1, bit 3 at d=32
        words = pack_bitvector(v, 32)
        assert words[0] == 0
        assert words[1] == 1 << 3

    def test_nonzero_binarizes(self):
        v = np.array([0.0, -2.0, 3.5, 0.0], dtype=np.float32)
        assert pack_bitvector(v, 4)[0] == 0b0110

    def test_unpack_too_few_words(self):
        with pytest.raises(ValueError):
            unpack_bitvector(np.zeros(1, dtype=np.uint32), 32, 64)

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError):
            pack_bitvector(np.zeros((2, 4)), 4)

    def test_empty_vector(self):
        words = pack_bitvector(np.zeros(0), 8)
        assert words.shape == (0,)
        assert unpack_bitvector(words, 8, 0).shape == (0,)


def oracle_pack(x, d):
    """Weighted-sum packing of the columns of ``x`` (``(n, k)``) into
    ``(ceil(n / d), k)`` words: word ``w`` of column ``j`` is
    ``sum_b x[w*d + b, j] << b``."""
    n, k = x.shape
    nwords = -(-n // d)
    bits = np.zeros((nwords * d, k), dtype=np.uint64)
    bits[:n] = x != 0
    weights = np.uint64(1) << np.arange(d, dtype=np.uint64)
    words = (bits.reshape(nwords, d, k) * weights[:, None]).sum(
        axis=1, dtype=np.uint64
    )
    return words.astype(dtype_for_width(d))


def oracle_unpack(words, d, n):
    """Shift-and-mask inverse of :func:`oracle_pack` (bits at or above
    ``d`` are ignored), as uint8 0/1 of shape ``(n, k)``."""
    w = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(d, dtype=np.uint64)
    bits = (w[:, None, :] >> shifts[:, None]) & np.uint64(1)
    return bits.reshape(-1, w.shape[1])[:n].astype(np.uint8)


CODEC_WIDTHS = (1, 7, 8, 9, 33, 64, 65)


class TestCodecsAgainstWeightedSum:
    """The ``np.packbits`` codecs emit exactly the words of the plain
    weighted-sum formulation, at every tile width and batch width and
    for vector lengths that are not a multiple of the tile width."""

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", CODEC_WIDTHS)
    def test_pack_bitmatrix(self, d, k):
        rng = np.random.default_rng(d * 100 + k)
        n = 5 * d + 3
        x = (rng.random((n, k)) < 0.4) * rng.integers(-3, 4, (n, k))
        words = pack_bitmatrix(x, d)
        ref = oracle_pack(x, d)
        assert words.dtype == ref.dtype and words.shape == ref.shape
        assert np.array_equal(words, ref)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", CODEC_WIDTHS)
    def test_unpack_bitmatrix(self, d, k):
        rng = np.random.default_rng(d * 100 + k + 1)
        n = 5 * d + 3
        # Arbitrary words, high bits included: they must be ignored.
        words = rng.integers(0, 2**63, (-(-n // d), k), dtype=np.uint64)
        bits = unpack_bitmatrix(words.astype(dtype_for_width(d)), d, n)
        assert bits.dtype == np.uint8 and bits.shape == (n, k)
        assert np.array_equal(bits, oracle_unpack(words, d, n))
        assert np.array_equal(unpack_bitmatrix(words, d, n), bits)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("n", (1, 3, 29, 101))
    def test_bitvector_codecs(self, d, n):
        rng = np.random.default_rng(d * 1000 + n)
        v = (rng.random(n) < 0.5) * rng.random(n)
        words = pack_bitvector(v, d)
        ref = oracle_pack(v[:, None], d)[:, 0]
        assert words.dtype == ref.dtype and np.array_equal(words, ref)
        raw = rng.integers(0, 2**63, words.shape, dtype=np.uint64)
        bits = unpack_bitvector(raw, d, n)
        assert bits.dtype == np.uint8 and bits.shape == (n,)
        assert np.array_equal(bits, oracle_unpack(raw[:, None], d, n)[:, 0])

    @pytest.mark.parametrize("d", DIMS)
    def test_zero_width_and_empty(self, d):
        assert pack_bitmatrix(np.zeros((d + 1, 0)), d).shape == (2, 0)
        assert unpack_bitmatrix(
            np.zeros((2, 0), np.uint64), d, d + 1
        ).shape == (d + 1, 0)
        assert pack_bitmatrix(np.zeros((0, 3)), d).shape == (0, 3)
        assert unpack_bitmatrix(
            np.zeros((0, 3), np.uint64), d, 0
        ).shape == (0, 3)


class TestBatchWords:
    @pytest.mark.parametrize("k", (0,) + CODEC_WIDTHS + (130,))
    def test_bit_j_of_vertex_v(self, k):
        rng = np.random.default_rng(k)
        n = 37
        x = rng.random((n, k)) < 0.5
        words = pack_batch_words(x)
        assert words.dtype == np.uint64
        assert words.shape == (n, batch_word_count(k))
        for j in range(k):
            bit = (words[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
            assert np.array_equal(bit.astype(bool), x[:, j])
        # The unused high bits of the last word stay clear.
        if k % 64:
            assert not (words[:, -1] >> np.uint64(k % 64)).any()
        out = unpack_batch_words(words, k)
        assert out.dtype == bool and np.array_equal(out, x)

    def test_nonzero_binarizes(self):
        assert pack_batch_words(np.array([[2, 0, -1]]))[0, 0] == 0b101

    def test_validation(self):
        with pytest.raises(ValueError):
            pack_batch_words(np.zeros(4))
        with pytest.raises(ValueError):
            unpack_batch_words(np.zeros((3, 1), np.uint64), 65)
        with pytest.raises(ValueError):
            unpack_batch_words(np.zeros((3, 1), np.uint32), 5)
        with pytest.raises(ValueError):
            batch_word_count(-1)


class TestNibblePacking:
    def test_roundtrip_even(self):
        rows = np.array([0x1, 0xF, 0x0, 0xA], dtype=np.uint8)
        packed = nibble_pack(rows)
        assert packed.shape == (2,)
        assert np.array_equal(nibble_unpack(packed, 4), rows)

    def test_roundtrip_odd(self):
        rows = np.array([0x3, 0x7, 0xC], dtype=np.uint8)
        packed = nibble_pack(rows)
        assert packed.shape == (2,)
        assert np.array_equal(nibble_unpack(packed, 3), rows)

    def test_layout_low_nibble_first(self):
        packed = nibble_pack(np.array([0x2, 0xB], dtype=np.uint8))
        assert packed[0] == 0xB2

    def test_rejects_values_over_nibble(self):
        """Rows ≥ 16 don't fit a nibble; the error must say so clearly
        (only B2SR-4 tile rows are nibble-packable)."""
        with pytest.raises(ValueError, match="fit in 4 bits"):
            nibble_pack(np.array([0x10], dtype=np.uint8))
        with pytest.raises(ValueError, match="B2SR-4"):
            nibble_pack(np.array([0x3, 0xFF, 0x1], dtype=np.uint8))

    def test_unpack_requires_exact_byte_count(self):
        """Round-trip discipline: the byte count must be exactly
        ceil(count/2) — surplus or missing bytes mean the caller's count
        disagrees with what was packed."""
        packed = nibble_pack(np.array([0x1, 0x2, 0x3], dtype=np.uint8))
        assert packed.shape == (2,)
        with pytest.raises(ValueError, match="exactly"):
            nibble_unpack(packed, 5)  # too few bytes for 5 rows
        with pytest.raises(ValueError, match="exactly"):
            nibble_unpack(packed, 1)  # surplus byte
        with pytest.raises(ValueError, match="exactly"):
            nibble_unpack(packed, 2)  # even count needs 1 byte, not 2
        with pytest.raises(ValueError):
            nibble_unpack(packed, -1)

    def test_b2sr4_tile_rows_roundtrip(self):
        """The B2SR-4 call-site guarantee: nibble-packing a matrix's
        packed tile rows round-trips for even *and* odd row counts (an
        odd count arises whenever a tile run is sliced mid-tile)."""
        from repro.formats.convert import b2sr_from_dense

        rng = np.random.default_rng(7)
        dense = (rng.random((23, 19)) < 0.3).astype(np.float32)
        A = b2sr_from_dense(dense, 4)
        rows = A.tiles.reshape(-1).astype(np.uint8)
        assert np.all(rows <= 0xF)
        for count in (rows.shape[0], rows.shape[0] - 1, 5, 1, 0):
            sub = rows[:count]
            assert np.array_equal(
                nibble_unpack(nibble_pack(sub), count), sub
            ), count

    def test_halves_storage(self):
        """Table I + §III.B: nibble packing gives B2SR-4 the full 32×
        saving (0.5 B per 4-bit row)."""
        rows = np.zeros(100, dtype=np.uint8)
        assert nibble_pack(rows).nbytes == 50

    @given(st.lists(st.integers(0, 15), min_size=0, max_size=64))
    @settings(max_examples=40)
    def test_roundtrip_property(self, rows):
        arr = np.array(rows, dtype=np.uint8)
        assert np.array_equal(
            nibble_unpack(nibble_pack(arr), len(rows)), arr
        )


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_bitvector_roundtrip_property(dim_idx, n, seed):
    d = DIMS[dim_idx]
    rng = np.random.default_rng(seed)
    v = (rng.random(n) < 0.5).astype(np.uint8)
    assert np.array_equal(unpack_bitvector(pack_bitvector(v, d), d, n), v)
