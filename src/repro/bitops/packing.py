"""Bit pack/unpack codecs for B2SR tiles and binarized vectors (§III.B).

A *tile* is a ``d × d`` dense 0/1 submatrix (``d`` = tileDim ∈ {4, 8, 16,
32}).  Packing turns a tile into ``d`` unsigned words of ``d`` bits each:

* **row-major packing** — word ``r`` holds row ``r`` of the tile, with the
  bit for column ``c`` at LSB position ``c``;
* **column-major packing** — word ``c`` holds column ``c``, with the bit for
  row ``r`` at LSB position ``r``.  This is the paper's conversion-time
  default (Figure 2); it equals row-major packing of the transposed tile, so
  repacking the other way transposes for free.

A *binarized vector* packs ``d`` consecutive vector entries into one word per
tile-column block, so a tile row and the matching vector word can be combined
with ``popc(row & word)`` (Listing 1).

**Multi-word plane layout (batched operands).**  A batch of ``k`` vectors
packs into a ``(n_words, k)`` array — column ``j`` is vector ``j`` packed as
above.  The batched kernels view the ``k`` columns as ``⌈k/d⌉`` *word
planes* of at most ``d`` columns each: plane ``p`` holds batch columns
``p·d … min((p+1)·d, k)−1``.  A plane is the register budget one tile sweep
lane-group carries (``d`` words of ``d`` bits); batches wider than the tile
word width stripe across planes while the tile index and payloads — the
dominant traffic — still stream **once** per sweep, with each loaded tile
chunk reused by every plane (:mod:`repro.kernels.bmv`).
:func:`plane_count` / :func:`plane_slices` define the striping; they are the
single source of truth shared by the kernels and the cost model.

Nibble packing (§III.B) stores two 4-bit rows per byte, halving B2SR-4's
storage from Table I's 16× saving to the full 32×.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.intrinsics import dtype_for_width

_VALID_DIMS = (4, 8, 16, 32)


def _check_dim(tile_dim: int) -> None:
    if tile_dim not in _VALID_DIMS:
        raise ValueError(
            f"tile_dim must be one of {_VALID_DIMS}, got {tile_dim}"
        )


def pack_bits_rowmajor(tiles: np.ndarray) -> np.ndarray:
    """Pack dense 0/1 tiles row-major.

    Parameters
    ----------
    tiles:
        Array of shape ``(..., d, d)``; nonzero entries are treated as 1.

    Returns
    -------
    Array of shape ``(..., d)`` with dtype from :func:`dtype_for_width`;
    element ``[..., r]`` packs row ``r`` (column ``c`` → bit ``c``).
    """
    arr = np.asarray(tiles)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (..., d, d) tiles, got shape {arr.shape}")
    d = arr.shape[-1]
    _check_dim(d)
    bits = (arr != 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(d, dtype=np.uint64)
    words = (bits * weights).sum(axis=-1, dtype=np.uint64)
    return words.astype(dtype_for_width(d))


def pack_bits_colmajor(tiles: np.ndarray) -> np.ndarray:
    """Pack dense 0/1 tiles column-major (Figure 2's default order).

    Element ``[..., c]`` packs column ``c`` (row ``r`` → bit ``r``).
    Equivalent to ``pack_bits_rowmajor`` of the transposed tile.
    """
    arr = np.asarray(tiles)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (..., d, d) tiles, got shape {arr.shape}")
    return pack_bits_rowmajor(np.swapaxes(arr, -1, -2))


def unpack_bits_rowmajor(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_rowmajor`; returns uint8 0/1 tiles."""
    _check_dim(tile_dim)
    arr = np.asarray(words, dtype=np.uint64)
    if arr.shape[-1] != tile_dim:
        raise ValueError(
            f"last axis must have length {tile_dim}, got shape {arr.shape}"
        )
    shifts = np.arange(tile_dim, dtype=np.uint64)
    bits = (arr[..., None] >> shifts) & np.uint64(1)
    return bits.astype(np.uint8)


def unpack_bits_colmajor(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_colmajor`; returns uint8 0/1 tiles."""
    return np.swapaxes(unpack_bits_rowmajor(words, tile_dim), -1, -2)


def transpose_packed(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Transpose packed tiles without materialising a full dense array.

    Because column-major packing of a tile equals row-major packing of its
    transpose, B2SR supports transpose by storing the alternate layout
    (§III.B).  This helper converts between the two layouts.
    """
    dense = unpack_bits_rowmajor(words, tile_dim)
    return pack_bits_rowmajor(np.swapaxes(dense, -1, -2))


def _pack_rows(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack each row of a ``(rows, nwords · width)`` bool array into
    ``nwords`` little-endian words of ``width`` ∈ {4, 8, 16, 32, 64}
    bits: entry ``i`` of a row lands in word ``i // width`` at bit
    ``i % width``.

    ``np.packbits(bitorder="little")`` packs the bits into bytes; for
    ``width ≥ 8`` the bytes of a word are consecutive, so a
    ``width``-bit view is the word array, and B2SR-4 splits every byte
    into its two nibble words.
    """
    rows, nbits = bits.shape
    if width == 4:
        b = np.packbits(bits, axis=1, bitorder="little")
        # ``packbits`` zero-pads an odd word count's last byte.
        words = np.empty((rows, 2 * b.shape[1]), dtype=np.uint8)
        np.bitwise_and(b, 0xF, out=words[:, 0::2])
        np.right_shift(b, 4, out=words[:, 1::2])
        return words[:, : nbits // 4]
    # Rows are whole bytes, so one flat pack serves them all (a per-row
    # ``axis=1`` pack of many short rows is several times slower).
    b = np.packbits(bits.reshape(-1), bitorder="little")
    return b.reshape(rows, nbits // 8).view(np.dtype(f"<u{width // 8}"))


def _unpack_columns(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Unpack ``(nwords, k)`` ``uint64`` words into the ``(nwords · d, k)``
    uint8 0/1 array whose row ``w·d + b`` is bit ``b`` of word row ``w``
    (bits at or above ``d`` are ignored).

    The words' bytes are laid out along the row axis — word row ``w``,
    byte ``c`` becomes byte row ``w·d/8 + c`` — so one
    ``np.unpackbits(axis=0, bitorder="little")`` emits the rows in order
    (B2SR-4 unpacks a byte per word and keeps its low nibble).
    """
    nwords, k = words.shape
    if tile_dim == 4:
        bits = np.unpackbits(
            words.astype(np.uint8), axis=0, bitorder="little"
        )
        return bits.reshape(nwords, 8, k)[:, :4].reshape(nwords * 4, k)
    nb = tile_dim // 8
    b = words.astype(np.dtype(f"<u{nb}"))[..., None].view(np.uint8)
    b = np.ascontiguousarray(b.transpose(0, 2, 1)).reshape(nwords * nb, k)
    return np.unpackbits(b, axis=0, bitorder="little")


def pack_bitvector(x: np.ndarray, tile_dim: int) -> np.ndarray:
    """Binarize and bit-pack a vector into ``tile_dim``-bit words.

    Entry ``j`` of the vector lands in word ``j // tile_dim`` at bit
    ``j % tile_dim`` (nonzero → 1).  The vector is zero-padded to a multiple
    of ``tile_dim``; word ``k`` therefore aligns with tile column ``k`` of a
    B2SR matrix with the same ``tile_dim`` (Listing 1's ``Bsub``).
    """
    _check_dim(tile_dim)
    v = np.asarray(x)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    n = v.shape[0]
    nwords = (n + tile_dim - 1) // tile_dim
    bits = np.zeros((1, nwords * tile_dim), dtype=bool)
    bits[0, :n] = v != 0
    return _pack_rows(bits, tile_dim)[0].astype(dtype_for_width(tile_dim))


def unpack_bitvector(words: np.ndarray, tile_dim: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bitvector`; returns a 0/1 uint8 vector of
    length ``n``.

    The word count must be exactly ``ceil(n / tile_dim)`` — the length
    :func:`pack_bitvector` produces.  Under- *and* over-length inputs are
    rejected: a surplus word almost always means the vector was packed at a
    different ``tile_dim`` than the caller is unpacking at.
    """
    _check_dim(tile_dim)
    arr = np.asarray(words, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D packed words, got shape {arr.shape}")
    nwords = (n + tile_dim - 1) // tile_dim
    if arr.shape[0] != nwords:
        raise ValueError(
            f"packed vector must hold exactly {nwords} words of {tile_dim} "
            f"bits for {n} entries, got {arr.shape[0]} words"
        )
    return _unpack_columns(arr[:, None], tile_dim)[:n, 0]


def plane_count(k: int, tile_dim: int) -> int:
    """Number of word planes a ``k``-wide batch stripes across: ``⌈k/d⌉``.

    Plane ``p`` holds batch columns ``p·d … min((p+1)·d, k)−1``; batches up
    to the tile word width fit a single plane, wider batches add one plane
    per ``tile_dim`` extra columns (see the module docstring).
    """
    _check_dim(tile_dim)
    if k < 0:
        raise ValueError(f"batch width k must be >= 0, got {k}")
    return (k + tile_dim - 1) // tile_dim


def plane_slices(k: int, tile_dim: int) -> list[slice]:
    """Column slices of the ``plane_count(k, tile_dim)`` word planes.

    ``plane_slices(k, d)[p]`` selects plane ``p``'s batch columns from a
    ``(n_words, k)`` packed matrix (or any ``(…, k)`` batched operand).  The
    last plane may be partial — no physical padding columns are stored.
    """
    _check_dim(tile_dim)
    if k < 0:
        raise ValueError(f"batch width k must be >= 0, got {k}")
    return [
        slice(lo, min(lo + tile_dim, k)) for lo in range(0, k, tile_dim)
    ]


def pack_bitmatrix(x: np.ndarray, tile_dim: int) -> np.ndarray:
    """Binarize and bit-pack ``k`` vectors side-by-side (columns of ``x``).

    ``x`` has shape ``(n, k)`` — one vector per column, e.g. ``k`` BFS
    frontiers or ``k`` PageRank restart vectors.  The result has shape
    ``(ceil(n / tile_dim), k)``: column ``j`` is exactly
    ``pack_bitvector(x[:, j], tile_dim)``, so word row ``w`` aligns with
    tile column ``w`` of a B2SR matrix and one gather of row ``w`` serves
    all ``k`` vectors at once (the batched-BMV layout).

    ``k`` may exceed ``tile_dim``: the batched kernels then stripe the
    columns across ``plane_count(k, tile_dim)`` word planes (plane ``p`` =
    columns ``p·d … min((p+1)·d, k)−1``) inside one tile sweep.
    """
    _check_dim(tile_dim)
    v = np.asarray(x)
    if v.ndim != 2:
        raise ValueError(f"expected an (n, k) matrix, got shape {v.shape}")
    n, k = v.shape
    nwords = (n + tile_dim - 1) // tile_dim
    # Vector j is row j of the bit stream, contiguous for ``packbits``.
    bits = np.zeros((k, nwords * tile_dim), dtype=bool)
    bits[:, :n] = v.T != 0
    return np.ascontiguousarray(
        _pack_rows(bits, tile_dim).T, dtype=dtype_for_width(tile_dim)
    )


def unpack_bitmatrix(words: np.ndarray, tile_dim: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmatrix`; returns a 0/1 uint8 array of
    shape ``(n, k)``.

    Like :func:`unpack_bitvector`, the word-row count must be exactly
    ``ceil(n / tile_dim)``.
    """
    _check_dim(tile_dim)
    arr = np.asarray(words, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D packed words, got shape {arr.shape}")
    nwords = (n + tile_dim - 1) // tile_dim
    if arr.shape[0] != nwords:
        raise ValueError(
            f"packed matrix must hold exactly {nwords} word rows of "
            f"{tile_dim} bits for {n} entries, got {arr.shape[0]}"
        )
    return _unpack_columns(arr, tile_dim)[:n]


def batch_word_count(k: int) -> int:
    """``uint64`` words per vertex of a ``k``-wide batch: ``⌈k/64⌉``."""
    if k < 0:
        raise ValueError(f"batch width k must be >= 0, got {k}")
    return (k + 63) // 64


def pack_batch_words(x: np.ndarray) -> np.ndarray:
    """Bit-slice ``k`` vectors along the batch axis (*batch-major* words).

    ``x`` has shape ``(n, k)``; the result is ``(n, ⌈k/64⌉)`` ``uint64``
    whose bit ``j % 64`` of word ``j // 64`` in row ``v`` is
    ``x[v, j] != 0`` (the unused high bits of the last word are 0).  One
    word per vertex thus records which of the ``k`` vectors hold it — the
    bit-sliced frontier of multi-source BFS — independently of the tile
    dimension, in contrast to :func:`pack_bitmatrix`'s vertex-major words.
    """
    v = np.asarray(x)
    if v.ndim != 2:
        raise ValueError(f"expected an (n, k) matrix, got shape {v.shape}")
    n, k = v.shape
    nwords = batch_word_count(k)
    bits = np.zeros((n, 64 * nwords), dtype=bool)
    bits[:, :k] = v
    return _pack_rows(bits, 64).astype(np.uint64, copy=False)


def unpack_batch_words(words: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`pack_batch_words`: the ``(n, k)`` bool array of
    the low ``k`` bits of each row (higher bits are ignored).  The word
    count per row must be exactly ``⌈k/64⌉``."""
    arr = np.asarray(words)
    nwords = batch_word_count(k)
    if arr.ndim != 2 or arr.shape[1] != nwords or arr.dtype != np.uint64:
        raise ValueError(
            f"batch-major words for k={k} must be uint64 of shape "
            f"(n, {nwords}), got {arr.dtype} {arr.shape}"
        )
    b = np.ascontiguousarray(arr, dtype=np.dtype("<u8")).view(np.uint8)
    bits = np.unpackbits(b, axis=1, count=k, bitorder="little")
    return bits.view(bool)


def nibble_pack(rows: np.ndarray) -> np.ndarray:
    """Pack 4-bit tile rows two-per-byte (§III.B nibble packing).

    ``rows`` is a 1-D uint8 array whose elements each use only their low
    nibble.  Rows ``2k`` and ``2k+1`` share byte ``k`` (low nibble = even
    row).  An odd count is padded with an empty nibble; the pad is never
    observable because :func:`nibble_unpack` takes the true ``count`` —
    ``nibble_unpack(nibble_pack(rows), len(rows))`` round-trips for every
    length, odd counts included.
    """
    arr = np.asarray(rows, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D rows, got shape {arr.shape}")
    if np.any(arr > 0xF):
        bad = int(arr[arr > 0xF][0])
        raise ValueError(
            f"nibble rows must fit in 4 bits (values 0..15); got {bad} — "
            "only B2SR-4 tile rows are nibble-packable"
        )
    n = arr.shape[0]
    padded = np.zeros(n + (n % 2), dtype=np.uint8)
    padded[:n] = arr
    pairs = padded.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


def nibble_unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`nibble_pack`; returns ``count`` 4-bit rows.

    The byte count must be exactly ``ceil(count / 2)`` — the length
    :func:`nibble_pack` produces.  Under- *and* over-length inputs are
    rejected (same discipline as :func:`unpack_bitvector`): a surplus byte
    almost always means ``count`` disagrees with the rows that were packed,
    which would silently drop or invent tile rows at the B2SR-4 call sites.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D packed bytes, got shape {arr.shape}")
    nbytes = (count + 1) // 2
    if arr.shape[0] != nbytes:
        raise ValueError(
            f"packed nibbles must hold exactly {nbytes} bytes for {count} "
            f"rows, got {arr.shape[0]} bytes"
        )
    out = np.empty(arr.shape[0] * 2, dtype=np.uint8)
    out[0::2] = arr & 0xF
    out[1::2] = arr >> 4
    return out[:count]
