"""Bit-manipulation primitives.

Software implementations of the GPU integer intrinsics the paper's kernels
are built on (§IV): ``__popc``, ``__brev``, ``__ballot_sync``,
``__shfl_sync`` — plus the bit pack/unpack codecs used by the B2SR format
(§III.B, Figure 2).

All functions are vectorized over NumPy arrays and follow the paper's
LSB-first convention: bit ``c`` (counting from the least-significant bit) of
a packed row word corresponds to column ``c`` of the tile, and
``ballot(pred)`` places lane ``N``'s predicate in bit ``N``.
"""

from repro.bitops.intrinsics import (
    WARP_SIZE,
    ballot_sync,
    brev,
    dtype_for_width,
    funnel_shift_l,
    funnel_shift_r,
    mask_for_width,
    popc,
    shfl_sync,
)
from repro.bitops.packing import (
    batch_word_count,
    check_batch_words,
    nibble_pack,
    nibble_unpack,
    pack_batch_words,
    pack_bitmatrix,
    pack_bits_colmajor,
    pack_bits_rowmajor,
    pack_bitvector,
    plane_count,
    plane_slices,
    transpose_packed,
    unpack_batch_words,
    unpack_bitmatrix,
    unpack_bits_colmajor,
    unpack_bits_rowmajor,
    unpack_bitvector,
)
from repro.bitops.segreduce import run_starts, segment_reduce

__all__ = [
    "WARP_SIZE",
    "popc",
    "brev",
    "ballot_sync",
    "shfl_sync",
    "funnel_shift_l",
    "funnel_shift_r",
    "dtype_for_width",
    "mask_for_width",
    "pack_bits_rowmajor",
    "pack_bits_colmajor",
    "unpack_bits_rowmajor",
    "unpack_bits_colmajor",
    "pack_bitvector",
    "unpack_bitvector",
    "pack_bitmatrix",
    "unpack_bitmatrix",
    "batch_word_count",
    "check_batch_words",
    "pack_batch_words",
    "unpack_batch_words",
    "plane_count",
    "plane_slices",
    "nibble_pack",
    "nibble_unpack",
    "transpose_packed",
    "run_starts",
    "segment_reduce",
]
