"""Tests for the software GPU intrinsics (repro.bitops.intrinsics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.intrinsics import (
    ballot_sync,
    brev,
    dtype_for_width,
    funnel_shift_l,
    funnel_shift_r,
    mask_for_width,
    popc,
    shfl_sync,
)


class TestDtypeForWidth:
    def test_widths_map_to_table1_dtypes(self):
        assert dtype_for_width(4) == np.uint8
        assert dtype_for_width(8) == np.uint8
        assert dtype_for_width(16) == np.uint16
        assert dtype_for_width(32) == np.uint32
        assert dtype_for_width(64) == np.uint64

    def test_intermediate_widths_round_up(self):
        assert dtype_for_width(5) == np.uint8
        assert dtype_for_width(9) == np.uint16
        assert dtype_for_width(17) == np.uint32
        assert dtype_for_width(33) == np.uint64

    def test_invalid_widths_raise(self):
        with pytest.raises(ValueError):
            dtype_for_width(0)
        with pytest.raises(ValueError):
            dtype_for_width(-3)
        with pytest.raises(ValueError):
            dtype_for_width(65)


class TestMaskForWidth:
    def test_known_masks(self):
        assert mask_for_width(4) == 0xF
        assert mask_for_width(8) == 0xFF
        assert mask_for_width(32) == 0xFFFFFFFF
        assert mask_for_width(1) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            mask_for_width(0)
        with pytest.raises(ValueError):
            mask_for_width(65)


class TestPopc:
    def test_scalar_values(self):
        assert popc(0) == 0
        assert popc(1) == 1
        assert popc(0xFF) == 8
        assert popc(0xFFFFFFFF) == 32

    def test_array_matches_bin_count(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 2**32, size=200, dtype=np.uint32)
        expect = [bin(int(v)).count("1") for v in vals]
        assert popc(vals).tolist() == expect

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            popc(np.array([1.5, 2.5]))

    def test_preserves_shape(self):
        arr = np.arange(12, dtype=np.uint32).reshape(3, 4)
        assert popc(arr).shape == (3, 4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_popc_matches_python_bitcount(self, x):
        assert popc(x) == int(x).bit_count()


class TestBrev:
    def test_known_reversals(self):
        assert brev(1, width=32) == 0x80000000
        assert brev(0x80000000, width=32) == 1
        assert brev(0b0001, width=4) == 0b1000
        assert brev(0xF0, width=8) == 0x0F

    def test_involution_all_widths(self):
        rng = np.random.default_rng(1)
        for w in (4, 8, 16, 32):
            vals = rng.integers(0, 2**w, size=64, dtype=np.uint64)
            back = brev(brev(vals, width=w), width=w)
            assert np.array_equal(back.astype(np.uint64), vals)

    def test_popcount_invariant(self):
        rng = np.random.default_rng(2)
        vals = rng.integers(0, 2**32, size=64, dtype=np.uint64)
        assert np.array_equal(
            popc(np.asarray(brev(vals, 32))), popc(vals)
        )

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            brev(1, width=0)

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=50)
    def test_brev_bit_positions(self, x):
        y = brev(x, width=16)
        for b in range(16):
            assert ((x >> b) & 1) == ((y >> (15 - b)) & 1)


class TestBallotSync:
    def test_lane_n_to_bit_n(self):
        pred = np.zeros(32, dtype=bool)
        pred[5] = True
        pred[31] = True
        word = ballot_sync(pred)
        assert word == (1 << 5) | (1 << 31)

    def test_all_and_none(self):
        assert ballot_sync(np.ones(32, dtype=bool)) == 0xFFFFFFFF
        assert ballot_sync(np.zeros(32, dtype=bool)) == 0

    def test_nonzero_is_true(self):
        pred = np.zeros(32, dtype=np.int64)
        pred[3] = 7  # any nonzero counts as a set predicate
        assert ballot_sync(pred) == 1 << 3

    def test_batched(self):
        preds = np.zeros((4, 32), dtype=bool)
        preds[2, 0] = True
        out = ballot_sync(preds)
        assert out.shape == (4,)
        assert out[2] == 1 and out[0] == 0

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            ballot_sync(np.ones(31, dtype=bool))

    @pytest.mark.parametrize("width", [1, 4, 7, 8, 12, 16, 20, 32, 33, 64])
    def test_matches_weighted_sum_every_width(self, width):
        rng = np.random.default_rng(width)
        # A strided (swapped-axes) float predicate batch, the shape the
        # batched kernels vote on.
        pred = np.swapaxes(rng.random((5, width, 3)) < 0.5, 1, 2) * 2.5
        out = ballot_sync(pred, width=width)
        want = (
            (pred != 0).astype(np.uint64)
            << np.arange(width, dtype=np.uint64)
        ).sum(axis=-1, dtype=np.uint64)
        assert out.shape == (5, 3)
        assert out.dtype == dtype_for_width(width)
        assert np.array_equal(out, want.astype(out.dtype))
        assert isinstance(ballot_sync(pred[0, 0], width=width), int)

    def test_ballot_brev_is_msb_first_packing(self):
        """§IV: brev(ballot(p)) rotates the bit-column anticlockwise — lane
        k lands at MSB-first position k."""
        pred = np.zeros(32, dtype=bool)
        pred[0] = True
        assert brev(ballot_sync(pred), 32) == 0x80000000


class TestShflSync:
    def test_broadcast_scalar_lane(self):
        vals = np.arange(32, dtype=np.uint32) * 3
        out = shfl_sync(vals, 7)
        assert np.all(out == 21)

    def test_src_lane_wraps(self):
        vals = np.arange(32, dtype=np.uint32)
        assert np.all(shfl_sync(vals, 33) == 1)

    def test_general_shuffle(self):
        vals = np.arange(32, dtype=np.int64)
        src = (np.arange(32) + 1) % 32
        out = shfl_sync(vals, src)
        assert np.array_equal(out, src)

    def test_batched_broadcast(self):
        vals = np.arange(64, dtype=np.int64).reshape(2, 32)
        out = shfl_sync(vals, 0)
        assert np.all(out[0] == 0) and np.all(out[1] == 32)

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            shfl_sync(np.arange(16), 0)


class TestFunnelShift:
    def test_zero_shift(self):
        hi = np.uint32(0xDEADBEEF)
        lo = np.uint32(0x12345678)
        assert funnel_shift_l(hi, lo, 0) == 0xDEADBEEF
        assert funnel_shift_r(hi, lo, 0) == 0x12345678

    def test_small_shifts(self):
        hi = np.uint32(0x1)
        lo = np.uint32(0x80000000)
        # (hi:lo) = 0x1_80000000; << 1 >> 32 = 0x3
        assert funnel_shift_l(hi, lo, 1) == 0x3
        # >> 31 keeps bit 31 of lo in bit 0 plus hi bits
        assert funnel_shift_r(hi, lo, 31) == 0x3

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            funnel_shift_l(np.uint32(0), np.uint32(0), 32)
        with pytest.raises(ValueError):
            funnel_shift_r(np.uint32(0), np.uint32(0), -1)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=60)
    def test_against_python_semantics(self, hi, lo, shift):
        window = (hi << 32) | lo
        assert funnel_shift_l(np.uint32(hi), np.uint32(lo), shift) == (
            ((window << shift) >> 32) & 0xFFFFFFFF
        )
        assert funnel_shift_r(np.uint32(hi), np.uint32(lo), shift) == (
            (window >> shift) & 0xFFFFFFFF
        )
