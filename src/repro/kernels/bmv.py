"""Binarized Matrix-Vector (BMV) kernel schemes — paper Table II, §IV.

The three schemes are named after their operand precisions (matrix /
input / output).  Each has **one** sweep implementation, the batched
form: ``k`` vectors are served with one sweep over the stored tiles —
the tile index and payloads are read once and every tile is combined
with all ``k`` packed words / value segments of its column block
(multi-source BFS, batched landmark BFS, batched PageRank, SSSP):

=============================  ======  ==========  ==========
scheme                         A       X (n × k)   Y (n × k)
=============================  ======  ==========  ==========
``bmv_bin_bin_bin_multi``      1-bit   1-bit       1-bit
``bmv_bin_bin_full_multi``     1-bit   1-bit       32-bit
``bmv_bin_full_full_multi``    1-bit   32-bit      32-bit
=============================  ======  ==========  ==========

The single-vector names without the ``_multi`` suffix
(``bmv_bin_bin_bin``, ``bmv_bin_bin_full``, ``bmv_bin_full_full``) are
the ``k = 1`` forms: they validate a vector operand, run the scheme's
sweep on it as an ``(n, 1)`` column and return column 0, so a
single-vector launch is bitwise column ``j`` of a batched one by
construction.  ``_masked`` variants apply an output mask (one per vector
for ``bmv_bin_bin_bin_multi_masked``).

Packed multi operands come from :func:`repro.bitops.packing.pack_bitmatrix`
(word row ``w``, column ``j`` holds bits ``w*d … w*d+d-1`` of vector ``j``).

**Multi-word planes (k > tile word width).**  A batch of ``k`` vectors is
viewed as ``⌈k/d⌉`` *word planes*: plane ``p`` spans batch columns
``p·d … min((p+1)·d, k)−1`` (:func:`repro.bitops.packing.plane_slices`).
One plane is what a lane group carries in registers per stored tile —
``d`` words of ``d`` bits (binary operands) or ``d`` value rows (numeric
operands).  Batches wider than ``d`` therefore stripe across planes
*inside* the tile sweep: each tile chunk is loaded once and every plane
combines against the same resident chunk, so the tile index and payload
traffic stays independent of ``k`` while per-plane combine work scales
with the batch.  Striping is per-column-independent, so results are
bitwise identical whether a column lands in plane 0 or plane 7.

**Value dtypes.**  The semiring schemes compute in ``float32`` (the
paper's precision) unless the vector operand arrives as ``float64``, which
is preserved end to end — numeric-label algorithms (FastSV CC) carry
vertex ids that overflow ``float32``'s exact-integer range at 2²⁴, while
``float64`` is exact through 2⁵³.

**Segment-reduce layout.**  B2SR's upper level is CSR over tile rows, so
the stored tiles are already sorted by output tile row and ``indptr``
delimits each row's run.  Every scheme therefore computes a per-tile
contribution array (a packed word, a popcount row, or a semiring-reduced
value row) and folds contributions into the output with one
``ufunc.reduceat`` over each tile chunk's row runs (the plan's chunk
tables) — a buffered, contiguous, word-parallel pass, exactly the access
pattern Listing 1 exploits on the GPU.  Masking is applied right before
the output store — *not* via early exit, which the paper rejects because
of warp divergence (§V BFS).

**Sweep plans.**  Every scheme executes against the matrix's memoized
:class:`repro.kernels.plan.SweepPlan`: the tile-row expansion, chunk
tables (boundaries, run starts, output rows), value-gather indices and
zero-padded operand scratch are computed once per matrix instead of once
per launch.  Pass ``plan=`` to supply a custom plan (e.g. a different
bits budget); results are bitwise independent of plan warmth.

**Semiring tile sweep.**  The tile sweep of ``bmv_bin_full_full*`` has
one index: the plan's fused masked gather
(:meth:`~repro.kernels.plan.SweepPlan.masked_gather`, cached under the
bits budget), which points each set bit of a tile at its operand value
and each unset bit at an identity sentinel slot.  Every batch column
gathers its ``(m, d, d)`` block through it and reduces the last axis, so
each column's float summation tree is the single-vector one.

**Active-tile skip (``skip=True``).**  The sweep consults the input
operand and elides stored tiles whose input word / value segment is the
add identity — the frontier-sparsity the serving BFS/SSSP rounds have in
abundance.  Exactness is structural, not approximate: every fold keeps
its shape and the elided slots are pre-filled with the identity the
dense sweep would have computed (compute elision) — see
:mod:`repro.kernels.plan` for the argument.
Every kernel returns bitwise-identical results with skip on or off;
``counters=`` receives ``active_tiles`` / ``tile_visits`` so the cost
model can charge only the work actually done.

**Set-bit execution.**  The tile sweep of the semiring schemes expands
every stored tile to a ``d × d`` masked gather per column, although a
binary tile only needs its set bits.  When the add monoid is
``np.minimum`` or ``np.maximum`` (min-plus SSSP, min-second FastSV CC,
max-times), the semiring scheme instead gathers ``mult(1, x)`` at one
entry per stored bit, folds each output row's entries with one
``ufunc.reduceat`` and scatters the result into the identity-initialised
output — the plan's
:class:`~repro.kernels.plan.SetBitIndex`, built on the first such launch.
A min/max returns one of its operands, so fold order cannot change the
value and the answer is bit-identical to the tile sweep — except for
NaN (which NaN's sign and payload survives) and ``-0.0`` (which signed
zero wins), where it does depend on order; an operand containing either
takes the tile sweep.  The arithmetic semiring (PageRank) always takes
the tile sweep: its float sums are order-sensitive and the tile sweep's
fold order is the contract.  The kernels report the tile sweep's
``active_tiles`` / ``tile_visits`` on either path, so the modeled cost
is independent of the host strategy.

The boolean scheme takes the same route for BFS,
:func:`bmv_bin_bin_bin_sliced_masked`, on *batch-major* words
(:func:`repro.bitops.packing.pack_batch_words`): bit ``j`` of vertex
``v``'s word is column ``j`` of the ``(n, k)`` frontier, ``⌈k/64⌉``
``uint64`` words per vertex — the bit-sliced frontier of multi-source
BFS (MS-BFS); a single-source BFS is its ``k = 1`` column.  A level
takes one of two routes, the direction-optimizing choice of Beamer et
al. (SC'12) made for host time only:

* **pull** — gather the frontier words at every stored bit (CSR order),
  OR-fold each output row's run with one ``reduceat`` and scatter into a
  zeroed output;
* **push** — take the vertices whose frontier word is non-zero, expand
  their runs in the column-order index
  (:class:`~repro.kernels.plan.ColumnBitIndex`) and OR their words into
  the rows they reach with ``np.bitwise_or.at``, touching only the
  frontier's stored bits.

Push is taken when the frontier's columns hold at most
:data:`_PUSH_SHARE` of the stored bits.  Both routes then clear the
visited words, all ``k`` traversals 64 to a word op, with no
vertex-major pack, mask pack or unpack.  OR on bits is exact, idempotent
and order-free, so both routes give the same words, no operand needs the
NaN / ``-0.0`` guard of the min/max path, and every bit equals the tile
sweep's.  The counters are again the tile sweep's — whatever the route —
counted per ``d``-wide word plane from the column blocks' OR-ed words;
with ``skip`` they change, the work does not.

The min/max semirings take the same two routes in
:func:`bmv_bin_full_full_relax`, one round ``add(X, A ⊕.⊗ X)`` of a
fixed-point iteration such as SSSP's Bellman-Ford, told which
``(vertex, column)`` pairs of ``X`` changed since the last round.  The
**push** takes the changed pairs' runs in the column-order index and
folds their ``mult(1, x)`` into a copy of ``X`` with one ``add_at``
scatter over the flat slots ``row·k + j``; the **pull** is the set-bit
sweep above, folded into ``X``.  An unchanged pair's contribution is
already folded into every row it reaches, so the push returns the pull's
bits — on operands the set-bit path accepts; the rest take the tile
sweep.  Push is taken when the changed pairs' columns hold at most
:data:`_RELAX_PUSH_SHARE` of the stored bits times ``k``; the counters
are the tile sweep's over the whole operand on every route.

The only Python-level loops are the tile-chunk loops bounding dense-unpack
scratch (``_CHUNK_TILES`` elements per plane) and, in the semiring tile
sweep, the per-column gathers of each plane.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.intrinsics import ballot_sync, mask_for_width
from repro.bitops.packing import (
    batch_word_count,
    check_batch_words,
    pack_bitmatrix,
    pack_bitvector,
    plane_count,
    plane_slices,
)
from repro.formats.b2sr import B2SRMatrix
from repro.kernels.plan import (
    SweepPlan,
    batch_block_words,
    batch_plane_activity,
    note_active,
    value_activity,
    word_activity,
)
from repro.semiring import ARITHMETIC, Semiring, value_dtype

#: Dense-unpack scratch budget per chunk, in tile-row elements; the chunk
#: loops divide this by the *plane width* ``min(k, d)`` — wider batches
#: stripe plane-by-plane over each resident chunk — so peak scratch stays
#: at roughly chunk × d² floats regardless of the batch size.
_CHUNK_TILES = 8192

#: The boolean set-bit sweep pushes (:func:`_sliced_push`) when the
#: frontier's columns hold at most this share of the stored bits, and
#: pulls over every stored bit (:func:`_sliced_pull`) otherwise.  On
#: ``hybrid_pattern(2048, seed=4)`` at B2SR-32 (33,135 stored bits;
#: 2-vCPU Intel Xeon, NumPy 2.4) the routes cross at ~15% of the stored
#: bits for k = 1 and k = 32: push 20 µs against 74 µs for pull at 1%,
#: 420 µs against 74 µs at 100%.  With two words per vertex (k = 128)
#: they cross at ~11%.
_PUSH_SHARE = 0.15

#: The min/max relaxation (:func:`bmv_bin_full_full_relax`) pushes from
#: the changed pairs when their columns hold at most this share of the
#: stored bits times ``k``, and pulls over every stored bit otherwise.
#: On ``hybrid_pattern(512, seed=4)`` at B2SR-32 (3,288 stored bits;
#: 2-vCPU Intel Xeon, NumPy 2.4) the routes cross at ~20% for k = 32
#: (push 496 µs against 844 µs for pull at 15%, 734 against 734 at 20%)
#: and ~25% for k = 64; at k = 8 and k = 1 push still wins at 30%.  On
#: ``hybrid_pattern(2048, seed=4)`` (33,135 stored bits) they cross at
#: ~30% or above for every k in {1, 8, 32}.  SSSP's rounds change 0.6%
#: (k = 1) to 13% (k = 32) of the stored bits on average.
_RELAX_PUSH_SHARE = 0.20


def _check_vec_words(A: B2SRMatrix, x_words: np.ndarray) -> np.ndarray:
    """Validate a packed vector operand: exact word count, compatible
    packing width.

    The word count must be exactly ``A.n_tile_cols`` — the length
    :func:`repro.bitops.packing.pack_bitvector` produces at ``A.tile_dim``.
    Wider dtypes are narrowed only when every word fits in ``tile_dim``
    bits; surplus high bits mean the vector was packed at a different
    width, and silently truncating them would drop set bits.
    """
    xw = np.asarray(x_words)
    if xw.ndim != 1 or xw.shape[0] != A.n_tile_cols:
        raise ValueError(
            f"packed vector must hold exactly {A.n_tile_cols} words of "
            f"{A.tile_dim} bits, got shape {xw.shape}"
        )
    return _narrow_words(A, xw)


def _check_mat_words(A: B2SRMatrix, x_words: np.ndarray) -> np.ndarray:
    """Validate a packed multi-vector operand of shape
    ``(n_tile_cols, k)`` (see :func:`_check_vec_words`)."""
    xw = np.asarray(x_words)
    if xw.ndim != 2 or xw.shape[0] != A.n_tile_cols:
        raise ValueError(
            f"packed multi-vector must hold exactly {A.n_tile_cols} word "
            f"rows of {A.tile_dim} bits, got shape {xw.shape}"
        )
    return _narrow_words(A, xw)


def _narrow_words(A: B2SRMatrix, xw: np.ndarray) -> np.ndarray:
    if xw.dtype.kind not in "ui":
        raise ValueError(
            f"packed words must have an integer dtype, got {xw.dtype}"
        )
    want = A.tiles.dtype
    if xw.dtype != want or A.tile_dim < 8 * want.itemsize:
        # A negative word is a sign bit, i.e. a bit beyond tile_dim too.
        out_of_range = xw.size and (
            int(xw.max()) > mask_for_width(A.tile_dim)
            or (xw.dtype.kind == "i" and int(xw.min()) < 0)
        )
        if out_of_range:
            raise ValueError(
                f"packed words carry bits beyond tile_dim={A.tile_dim} "
                f"(dtype {xw.dtype}); the vector was packed at a "
                "different tile_dim"
            )
        xw = xw.astype(want, copy=False)
    return xw


def _resolve_mask(
    mask: np.ndarray, n: int, complement: bool
) -> np.ndarray:
    m = np.asarray(mask)
    if m.shape != (n,):
        raise ValueError(f"mask must have shape ({n},), got {m.shape}")
    valid = m != 0
    return ~valid if complement else valid


def _resolve_mask_matrix(
    masks: np.ndarray, n: int, k: int, complement: bool
) -> np.ndarray:
    m = np.asarray(masks)
    if m.shape != (n, k):
        raise ValueError(
            f"masks must have shape ({n}, {k}), got {m.shape}"
        )
    valid = m != 0
    return ~valid if complement else valid


def _chunk(k: int) -> int:
    """Tiles per chunk so scratch stays ~``_CHUNK_TILES`` row-elements.

    The batched kernels pass the *plane width* ``min(k, d)`` rather than
    the full batch width: planes stripe sequentially over each resident
    chunk, so peak scratch is bounded by one plane regardless of ``k``.
    """
    return max(1, _CHUNK_TILES // max(k, 1))


def _row_aligned_chunks(A: B2SRMatrix, step: int):
    """Yield ``(lo, hi)`` tile ranges of ~``step`` tiles whose boundaries
    coincide with tile-row boundaries.

    Row alignment means every tile row is folded by exactly one chunk, so
    the per-chunk segment reduction combines contributions in the same
    left-to-right order as the old global scatter — a row straddling two
    chunks would re-associate the (non-associative) float accumulation.  A
    single row longer than ``step`` becomes one oversized chunk.
    """
    lo = 0
    while lo < A.n_tiles:
        j = int(np.searchsorted(A.indptr, lo + step, side="left"))
        hi = min(int(A.indptr[min(j, A.n_tile_rows)]), A.n_tiles)
        yield lo, hi
        lo = hi


def _resolve_plan(A: B2SRMatrix, plan: SweepPlan | None) -> SweepPlan:
    """The matrix's memoized plan, or a caller-supplied one (validated)."""
    if plan is None:
        return A.plan()
    if plan.matrix is not A:
        raise ValueError("plan was built for a different matrix")
    return plan


def _active_subset(
    act: np.ndarray | None, cols: np.ndarray, counters: dict | None
) -> np.ndarray | None:
    """The tiles of a chunk one plane must compute, recording the skip
    accounting: ``None`` for all of them (skip off — ``act is None`` — or
    every tile active), else the index array of the active tiles, which
    may be empty."""
    if act is None:
        note_active(counters, cols.size, cols.size)
        return None
    sub = np.nonzero(act[cols])[0]
    note_active(counters, sub.size, cols.size)
    return None if sub.size == cols.size else sub


# ---------------------------------------------------------------------------
# Binary output
# ---------------------------------------------------------------------------
def bmv_bin_bin_bin(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Boolean SpMV: ``y = A ∨.∧ x`` with all operands bit-packed — the
    ``k = 1`` column of :func:`bmv_bin_bin_bin_multi`.

    Parameters
    ----------
    A:
        B2SR matrix.
    x_words:
        Vector packed with :func:`repro.bitops.packing.pack_bitvector` at
        ``A.tile_dim`` (word ``k`` ↔ tile column ``k``).
    plan, skip, counters:
        Sweep plan override, active-tile skip mode and skip accounting
        (module docstring).  With ``skip=True`` tiles whose vector word
        is zero are not computed; they contribute the OR identity 0 —
        bitwise exact.

    Returns
    -------
    Packed output words (``n_tile_rows`` words of ``tile_dim`` bits).
    """
    xw = _check_vec_words(A, x_words)
    return _bmv_bin_bin_bin_core(A, xw[:, None], plan, skip, counters)[:, 0]


def bmv_bin_bin_bin_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    mask: np.ndarray,
    *,
    complement: bool = False,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Masked boolean SpMV (BFS's kernel, §V).

    ``mask`` is a length-``nrows`` 0/1 vector of positions allowed to be
    written; with ``complement=True`` the negation is used — BFS passes the
    visited vector with ``complement=True`` ("bit-wise AND with the negation
    of visited").
    """
    valid = _resolve_mask(mask, A.nrows, complement)
    yw = bmv_bin_bin_bin(
        A, x_words, plan=plan, skip=skip, counters=counters
    )
    # Mask applied right before the output store, in the packed domain.
    return yw & pack_bitvector(valid, A.tile_dim)


def bmv_bin_bin_bin_multi(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched boolean SpMV: ``Y[:, j] = A ∨.∧ X[:, j]`` for ``k`` packed
    vectors in one tile sweep.

    ``x_words`` has shape ``(n_tile_cols, k)`` from
    :func:`repro.bitops.packing.pack_bitmatrix`; the result has shape
    ``(n_tile_rows, k)`` — column ``j`` equals
    ``bmv_bin_bin_bin(A, x_words[:, j])``.  ``k`` may exceed the tile word
    width: the batch stripes across ``⌈k/d⌉`` word planes inside the one
    tile sweep (see the module docstring).  With ``skip=True`` a tile is
    elided *per plane* when all its plane words are zero.
    """
    xw = _check_mat_words(A, x_words)
    return _bmv_bin_bin_bin_core(A, xw, plan, skip, counters)


def _bmv_bin_bin_bin_core(
    A: B2SRMatrix,
    xw: np.ndarray,
    plan: SweepPlan | None,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    k = xw.shape[1]
    out = np.zeros((A.n_tile_rows, k), dtype=A.tiles.dtype)
    if A.n_tiles == 0 or k == 0:
        note_active(counters, 0, 0)
        return out
    d = A.tile_dim
    pl = _resolve_plan(A, plan)
    stripes = plane_slices(k, d)
    acts = [word_activity(xw[:, sl]) if skip else None for sl in stripes]
    for ch in pl.chunks(min(k, d), row_aligned=False):
        tiles = A.tiles[ch.lo:ch.hi]
        cols = A.indices[ch.lo:ch.hi]
        # The chunk's tiles stay resident while every word plane combines
        # against them — one tile sweep however wide the batch.
        for sl, act in zip(stripes, acts):
            sub = _active_subset(act, cols, counters)
            if sub is None:
                # (m, d, kp): tile row r of tile t against vector j's word.
                hits = (tiles[:, :, None] & xw[:, sl][cols, None, :]) != 0
                contrib = ballot_sync(np.swapaxes(hits, 1, 2), width=d)
            elif sub.size == 0:
                continue
            else:
                # Elided tiles contribute the OR identity 0.
                hits = (
                    tiles[sub][:, :, None] & xw[:, sl][cols[sub], None, :]
                ) != 0
                contrib = np.zeros((ch.size, sl.stop - sl.start), out.dtype)
                contrib[sub] = ballot_sync(np.swapaxes(hits, 1, 2), width=d)
            out[ch.rows, sl] |= np.bitwise_or.reduceat(
                contrib, ch.starts, axis=0
            )
    return out


def bmv_bin_bin_bin_multi_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    masks: np.ndarray,
    *,
    complement: bool = False,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched masked boolean SpMV — multi-source BFS's kernel.

    ``masks`` has shape ``(nrows, k)``: one independent mask per vector
    (each BFS source carries its own visited vector).
    """
    xw = _check_mat_words(A, x_words)
    valid = _resolve_mask_matrix(masks, A.nrows, xw.shape[1], complement)
    yw = _bmv_bin_bin_bin_core(A, xw, plan, skip, counters)
    return yw & pack_bitmatrix(valid, A.tile_dim)


def _sliced_pull(pl: SweepPlan, xw: np.ndarray, out: np.ndarray) -> None:
    """Pull route of the boolean set-bit sweep: gather the frontier word
    at every stored bit (:attr:`SweepPlan.set_bits`, CSR order) and
    OR-fold each row's run into ``out`` with one ``reduceat``."""
    index = pl.set_bits
    if index.starts.size:
        # Every index is in range, so ``clip`` only skips the bounds
        # check (``raise`` would buffer the ``out=`` gather).
        vals = np.take(
            xw, index.gather, axis=0, mode="clip",
            out=pl.set_bit_scratch(xw.shape[1]),
        )
        out[index.rows] = np.bitwise_or.reduceat(
            vals, index.starts, axis=0
        )


def _sliced_push(
    pl: SweepPlan, xw: np.ndarray, cols: np.ndarray, out: np.ndarray
) -> None:
    """Push route of the boolean set-bit sweep: expand the runs of the
    columns ``cols`` (the vertices whose frontier word is non-zero) in
    the column-order index (:attr:`SweepPlan.set_bit_columns`) and OR
    each column's word into the rows it reaches.  Only those columns'
    stored bits are touched."""
    index = pl.set_bit_columns
    lo = index.ptr[cols]
    lengths = index.ptr[cols + 1] - lo
    ends = np.cumsum(lengths)
    if ends.size == 0 or ends[-1] == 0:
        return
    # Position of every active stored bit in ``index.rows``: run i
    # covers lo[i] … lo[i] + lengths[i] - 1.
    pos = np.arange(ends[-1]) + np.repeat(lo - ends + lengths, lengths)
    rows = index.rows[pos]
    nwords = out.shape[1]
    if nwords > 1:
        # Word w of row r is flat slot r·nwords + w of ``out`` (in intp:
        # the int32 rows times nwords may not fit in int32).
        rows = rows.astype(np.intp)[:, None] * nwords + np.arange(nwords)
        rows = rows.reshape(-1)
    vals = np.repeat(xw[cols], lengths, axis=0)
    np.bitwise_or.at(out.reshape(-1), rows, vals.reshape(-1))  # repro-lint: ignore[hot-path-scatter] — push route: OR is exact and order-free, and the scatter touches only the frontier's stored bits (measured faster than a fold below _PUSH_SHARE)


def bmv_bin_bin_bin_sliced_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    visited_words: np.ndarray,
    k: int,
    *,
    blocks: np.ndarray | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched masked boolean SpMV on bit-sliced operands — the set-bit
    sweep of the boolean scheme, batched BFS's kernel (module docstring,
    "Set-bit execution").

    ``x_words`` (shape ``(ncols, ⌈k/64⌉)``) and ``visited_words`` (shape
    ``(nrows, ⌈k/64⌉)``) are batch-major words from
    :func:`repro.bitops.packing.pack_batch_words`; so is the result, whose
    batch column ``j`` equals column ``j`` of
    ``bmv_bin_bin_bin_multi_masked(A, X, visited, complement=True)``:
    the rows reached from frontier ``j`` that it has not visited.

    A launch pushes from the frontier's vertices when their columns hold
    at most :data:`_PUSH_SHARE` of the stored bits and pulls over every
    stored bit otherwise (module docstring); both routes give the same
    words.  The sweep does the same work whatever ``skip`` is; ``counters``
    receive what the tile sweep would report — ``n_tiles`` visits per
    word plane, and with ``skip=True`` as active the stored tiles whose
    column block holds a set bit in the plane.  ``blocks`` may pass in
    :func:`repro.kernels.plan.batch_block_words` of ``x_words`` when the
    caller has already computed it.
    """
    xw = check_batch_words(x_words, A.ncols, k, "x_words")
    vw = check_batch_words(visited_words, A.nrows, k, "visited_words")
    return sliced_masked_words(A, xw, vw, k, blocks, skip, counters)


def sliced_masked_words(
    A: B2SRMatrix,
    xw: np.ndarray,
    vw: np.ndarray,
    k: int,
    blocks: np.ndarray | None,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    """:func:`bmv_bin_bin_bin_sliced_masked` on operands the caller has
    already validated with :func:`repro.bitops.packing.check_batch_words`
    — the engine's BFS level, which checks its words once on entry."""
    d = A.tile_dim
    nwords = batch_word_count(k)
    out = np.zeros((A.nrows, nwords), dtype=np.uint64)
    if A.n_tiles == 0 or k == 0:
        note_active(counters, 0, 0)
        return out
    if counters is not None:
        visits = A.n_tiles * plane_count(k, d)
        active = visits
        if skip:
            if blocks is None:
                blocks = batch_block_words(xw, d)
            planes = batch_plane_activity(blocks, d, k)
            active = int(np.count_nonzero(planes[A.indices]))
        note_active(counters, active, visits)
    pl = A.plan()
    cols = (
        xw.reshape(-1) != 0 if nwords == 1 else xw.any(axis=1)
    ).nonzero()[0]
    if cols.size:
        ptr = pl.set_bit_columns.ptr
        pushed = int((ptr[cols + 1] - ptr[cols]).sum())
        if pushed <= _PUSH_SHARE * pl.set_bits.gather.size:
            _sliced_push(pl, xw, cols, out)
        else:
            _sliced_pull(pl, xw, out)
    out &= ~vw
    return out


# ---------------------------------------------------------------------------
# Full-precision output, binary inputs
# ---------------------------------------------------------------------------
def bmv_bin_bin_full(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Counting SpMV: ``y_i = popc(A_i & x)`` — Listing 1 verbatim, the
    ``k = 1`` column of :func:`bmv_bin_bin_full_multi`.

    Returns a float32 vector of per-row overlap counts (the bit-dot-product
    of each matrix row with the binarized vector).  With ``skip=True`` the
    popcount work runs only on tiles whose vector word is non-zero; the
    elided slots stay exactly +0.0 — the value the dense sweep computes —
    so the float sums are bit-identical (compute elision,
    :mod:`repro.kernels.plan`).
    """
    xw = _check_vec_words(A, x_words)
    return _bmv_bin_bin_full_core(A, xw[:, None], plan, skip, counters)[:, 0]


def bmv_bin_bin_full_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    mask: np.ndarray,
    *,
    complement: bool = False,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Masked counting SpMV; masked-out rows read 0."""
    valid = _resolve_mask(mask, A.nrows, complement)
    y = bmv_bin_bin_full(
        A, x_words, plan=plan, skip=skip, counters=counters
    )
    y[~valid] = 0.0
    return y


def bmv_bin_bin_full_multi(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched counting SpMV: ``Y[i, j] = popc(A_i & X_j)`` in one tile
    sweep; returns float32 of shape ``(nrows, k)``.  Batches wider than
    the tile word width stripe across word planes over each resident tile
    chunk (module docstring)."""
    xw = _check_mat_words(A, x_words)
    return _bmv_bin_bin_full_core(A, xw, plan, skip, counters)


def _bmv_bin_bin_full_core(
    A: B2SRMatrix,
    xw: np.ndarray,
    plan: SweepPlan | None,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    k = xw.shape[1]
    d = A.tile_dim
    y = np.zeros((A.n_tile_rows, d, k), dtype=np.float32)
    if A.n_tiles == 0 or k == 0:
        note_active(counters, 0, 0)
        return y.reshape(A.n_tile_rows * d, k)[: A.nrows]
    pl = _resolve_plan(A, plan)
    stripes = plane_slices(k, d)
    acts = [word_activity(xw[:, sl]) if skip else None for sl in stripes]
    for ch in pl.chunks(min(k, d), row_aligned=False):
        tiles = A.tiles[ch.lo:ch.hi]
        cols = A.indices[ch.lo:ch.hi]
        for sl, act in zip(stripes, acts):
            sub = _active_subset(act, cols, counters)
            if sub is None:
                counts = np.bitwise_count(
                    tiles[:, :, None] & xw[:, sl][cols, None, :]
                ).astype(np.float32)  # (m, d, kp)
            elif sub.size == 0:
                # All contributions are exactly +0.0; the counts are
                # non-negative, so y += 0.0 is the identity bit for bit
                # and the whole update can be dropped.
                continue
            else:
                counts = np.zeros(
                    (ch.size, d, sl.stop - sl.start), dtype=np.float32
                )
                counts[sub] = np.bitwise_count(
                    tiles[sub][:, :, None] & xw[:, sl][cols[sub], None, :]
                )
            y[ch.rows, :, sl] += np.add.reduceat(counts, ch.starts, axis=0)
    return y.reshape(A.n_tile_rows * d, k)[: A.nrows]


# ---------------------------------------------------------------------------
# Full-precision vector (semiring) schemes
# ---------------------------------------------------------------------------
def _set_bit_exact(semiring: Semiring, xv: np.ndarray) -> bool:
    """Whether the set-bit sweep reproduces the dense sweep bit for bit.

    Only min/max add monoids qualify — their fold picks one of its
    operands, so the order of the fold cannot change the value — and
    only for operands free of NaN and ``-0.0``: which NaN (sign and
    payload) or which signed zero a min/max returns does depend on the
    order.  ``xv`` is non-empty.
    """
    if semiring.add not in (np.minimum, np.maximum):
        return False
    if np.isnan(xv.min()):
        return False
    # -0.0 is the one bit pattern with only the sign bit set.
    bits = xv.view(f"u{xv.itemsize}")
    return not (bits == 1 << (8 * xv.itemsize - 1)).any()


def _note_tile_sweep(
    A: B2SRMatrix, acts: list[np.ndarray | None], counters: dict | None
) -> None:
    """Report what the tile sweep over the planes' column activities
    ``acts`` (``None`` without skip) would report, so the modeled cost
    does not depend on the host strategy."""
    visits = A.n_tiles * len(acts)
    if acts[0] is None:
        note_active(counters, visits, visits)
    else:
        active = sum(int(np.count_nonzero(act[A.indices])) for act in acts)
        note_active(counters, active, visits)


def _set_bit_sweep(
    A: B2SRMatrix,
    pl: SweepPlan,
    semiring: Semiring,
    xv: np.ndarray,
    y: np.ndarray,
    acts: list[np.ndarray | None],
    counters: dict | None,
) -> None:
    """Set-bit execution (module docstring): gather ``mult(1, x)`` at
    every stored bit, fold each row's run with one ``reduceat`` and
    scatter into ``y``, the identity-initialised output viewed as
    ``(n_tile_rows·d, k)``.  ``counters`` receive the tile sweep's
    (:func:`_note_tile_sweep`).
    """
    _note_tile_sweep(A, acts, counters)
    index = pl.set_bits
    if index.starts.size:
        # ``take`` rather than fancy indexing: same values, and several
        # times faster for the 2-D batch operand.
        vals = np.take(semiring.mult_matrix_one(xv), index.gather, axis=0)
        y[index.rows] = semiring.add.reduceat(vals, index.starts, axis=0)


def _tile_values(
    semiring: Semiring, src: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Per-tile contribution rows of one value plane, ``(m, d, kp)``.

    ``src`` holds the plane's ``kp`` rows of the sentinel buffer
    (:meth:`~repro.kernels.plan.SweepPlan.sentinel_scratch`) and ``G``
    the chunk's ``(m, d, d)`` fused masked-gather index
    (:meth:`~repro.kernels.plan.SweepPlan.masked_gather`).  Every batch
    column gathers and reduces one C-contiguous ``(m, d, d)`` block over
    its last axis, exactly as at ``k = 1``, so each column's summation
    tree (and every float bit) is that of the single-vector launch.
    """
    vals = np.empty((src.shape[0],) + G.shape[:2], dtype=src.dtype)
    for j, row in enumerate(src):
        # Fancy indexing a 1-D row beats ``np.take`` on these indices.
        vals[j] = semiring.add_reduce(row[G], axis=-1)
    return vals.transpose(1, 2, 0)


def bmv_bin_full_full(
    A: B2SRMatrix,
    x: np.ndarray,
    semiring: Semiring = ARITHMETIC,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Semiring SpMV with a full-precision multiplier vector (§IV Fig 4) —
    the ``k = 1`` column of :func:`bmv_bin_full_full_multi`.

    ``y_i = ⊕_{j : A_ij = 1} mult(1, x_j)`` where ⊕/mult come from the
    semiring: arithmetic gives the weighted sums PageRank needs, min-plus
    treats absent bits as +∞ and stored bits as weight-1 edges (SSSP's
    relaxation, §V).

    A ``float64`` vector is computed in ``float64`` end to end (exact
    integer payloads through 2⁵³ — FastSV's label pulls); every other
    dtype computes in the native ``float32``.

    The sweep runs against the matrix's plan: chunk tables, the fused
    masked-gather index (within budget) and operand scratch are reused
    across launches.  With ``skip=True`` tiles whose value segment is
    bit-identical to the semiring identity are compute-elided — their
    contribution slots are pre-filled with the identity the dense sweep
    would produce, so the fold is bit-for-bit unchanged (exact for every
    semiring, SSSP's +∞-heavy early rounds included).

    Min/max semirings on NaN- and ``-0.0``-free operands run the
    set-bit path instead, with the same result bits and counters
    (module docstring, "Set-bit execution").
    """
    dt = value_dtype(x)
    xv = np.asarray(x).astype(dt, copy=False)
    if xv.shape != (A.ncols,):
        raise ValueError(
            f"vector must have shape ({A.ncols},), got {xv.shape}"
        )
    return _bmv_bin_full_full_core(
        A, xv[:, None], semiring, plan, skip, counters
    )[:, 0]


def bmv_bin_full_full_masked(
    A: B2SRMatrix,
    x: np.ndarray,
    mask: np.ndarray,
    *,
    semiring: Semiring = ARITHMETIC,
    complement: bool = False,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Masked semiring SpMV; masked-out rows read the semiring identity."""
    valid = _resolve_mask(mask, A.nrows, complement)
    y = bmv_bin_full_full(
        A, x, semiring=semiring, plan=plan, skip=skip, counters=counters
    )
    y[~valid] = semiring.zero
    return y


def bmv_bin_full_full_multi(
    A: B2SRMatrix,
    x: np.ndarray,
    semiring: Semiring = ARITHMETIC,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched semiring SpMV over ``k`` full-precision vectors (columns of
    ``x``, shape ``(ncols, k)``) in one tile sweep — batched PageRank's,
    SSSP's and FastSV's kernel.  Returns shape ``(nrows, k)`` in the
    operand's value dtype (float32, or float64 when ``x`` is float64).

    ``k`` may exceed the tile word width: value planes of at most ``d``
    columns stripe over each resident tile chunk, so scratch stays one
    plane deep and the tile payloads stream once per sweep.  With
    ``skip=True`` a tile is compute-elided per plane when every value of
    its segment across the plane's columns is bit-identical to the
    semiring identity (see :func:`bmv_bin_full_full`, also for the
    set-bit path of the min/max semirings).
    """
    dt = value_dtype(x)
    xv = np.asarray(x).astype(dt, copy=False)
    if xv.ndim != 2 or xv.shape[0] != A.ncols:
        raise ValueError(
            f"vectors must have shape ({A.ncols}, k), got {xv.shape}"
        )
    return _bmv_bin_full_full_core(A, xv, semiring, plan, skip, counters)


def _value_acts(
    A: B2SRMatrix,
    pl: SweepPlan,
    semiring: Semiring,
    xv: np.ndarray,
    skip: bool,
) -> list[np.ndarray | None]:
    """Per value plane, which column blocks hold a non-identity value
    (``None`` per plane without skip)."""
    d = A.tile_dim
    if not skip:
        return [None] * plane_count(xv.shape[1], d)
    # Pad x to whole tiles for the per-block activity test.
    xpad = pl.value_scratch(xv.dtype, xv.shape[1])
    xpad[: A.ncols] = xv
    return [
        value_activity(xpad[:, sl], d, semiring.zero)
        for sl in plane_slices(xv.shape[1], d)
    ]


def _bmv_bin_full_full_core(
    A: B2SRMatrix,
    xv: np.ndarray,
    semiring: Semiring,
    plan: SweepPlan | None,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    dt = xv.dtype
    k = xv.shape[1]
    d = A.tile_dim
    y = semiring.empty_output(A.n_tile_rows * d * k, dtype=dt).reshape(
        A.n_tile_rows, d, k
    )
    if A.n_tiles == 0 or k == 0:
        note_active(counters, 0, 0)
        return y.reshape(A.n_tile_rows * d, k)[: A.nrows]

    pl = _resolve_plan(A, plan)
    stripes = plane_slices(k, d)
    acts = _value_acts(A, pl, semiring, xv, skip)
    if _set_bit_exact(semiring, xv):
        _set_bit_sweep(A, pl, semiring, xv, y.reshape(-1, k), acts, counters)
        return y.reshape(A.n_tile_rows * d, k)[: A.nrows]
    zero = dt.type(semiring.zero)
    # Row j holds mult(1, x[:, j]) and then the identity sentinel that
    # the fused masked gather points unset bits at: ``ext[j][G]`` is
    # element for element the seed's ``np.where(bits, mult(seg), zero)``
    # (mult is elementwise, so applying it before the gather changes
    # nothing).  The pad slots between ``ncols`` and the sentinel are
    # never gathered: their matrix bits are structurally absent.
    ext = pl.sentinel_scratch(dt, k)
    ext[:, : A.ncols] = semiring.mult_matrix_one(xv).T
    ext[:, -1] = zero
    for ch in pl.chunks(min(k, d), row_aligned=True):
        cols = A.indices[ch.lo:ch.hi]
        G = None
        for sl, act in zip(stripes, acts):
            sub = _active_subset(act, cols, counters)
            if sub is None:
                if G is None:
                    G = pl.masked_gather(ch)
                vals = _tile_values(semiring, ext[sl], G)
            elif sub.size == 0:
                # Every contribution is the add identity; folding it
                # into the identity-initialised output is a no-op for
                # every semiring (row-aligned chunks touch each row
                # once).
                continue
            else:
                vals = np.full(
                    (ch.size, d, sl.stop - sl.start), zero, dtype=dt
                )
                vals[sub] = _tile_values(
                    semiring, ext[sl], pl.masked_gather(ch, sub)
                )
            # Chunks are row-aligned, so each output row is folded once.
            y[ch.rows, :, sl] = semiring.add(
                y[ch.rows, :, sl], pl.fold_runs(semiring, vals, ch)
            )
    return y.reshape(A.n_tile_rows * d, k)[: A.nrows]


def bmv_bin_full_full_relax(
    A: B2SRMatrix,
    x: np.ndarray,
    changed: np.ndarray,
    semiring: Semiring,
    *,
    plan: SweepPlan | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """One round ``add(X, A ⊕.⊗ X)`` of a min/max fixed-point iteration
    (SSSP's Bellman-Ford relaxation) over a square matrix, given which
    entries of ``X`` (shape ``(n, k)``) changed since the last round.

    ``changed`` (a bool array of ``X``'s shape) must cover every pair
    ``(v, j)`` whose ``mult(1, X[v, j])`` is not yet folded into the
    ``X`` column ``j`` of each row ``v`` reaches: the vertices that
    improved in the last round, and in the first round every entry that
    is not the add identity.  The kernel then pushes only from those
    pairs (module docstring, "Set-bit execution") and returns, bit for
    bit, the pull ``add(X, bmv_bin_full_full_multi(A, X))``: an
    unchanged pair cannot move a row it reaches, and a min/max is
    order-free on operands without NaN or ``-0.0``.

    It pulls instead when the changed pairs hold more than
    :data:`_RELAX_PUSH_SHARE` of the stored bits times ``k``, and when
    the semiring or operand fails the set-bit rule.  ``skip`` and
    ``counters`` are those of :func:`bmv_bin_full_full_multi`, computed
    from the whole operand whatever the route.
    """
    dt = value_dtype(x)
    xv = np.asarray(x).astype(dt, copy=False)
    if A.nrows != A.ncols:
        raise ValueError(
            f"relaxation needs a square matrix, got {A.nrows}×{A.ncols}"
        )
    if xv.ndim != 2 or xv.shape[0] != A.ncols:
        raise ValueError(
            f"vectors must have shape ({A.ncols}, k), got {xv.shape}"
        )
    ch = np.asarray(changed)
    if ch.shape != xv.shape or ch.dtype != bool:
        raise ValueError(
            f"changed must be a bool array of shape {xv.shape}, got "
            f"{ch.dtype} {ch.shape}"
        )
    k = xv.shape[1]
    if A.n_tiles and k and _set_bit_exact(semiring, xv):
        pl = _resolve_plan(A, plan)
        # Changed pair (v, j) is flat slot v·k + j; the 1-D
        # ``flatnonzero`` is several times faster than a 2-D ``nonzero``.
        pairs = np.flatnonzero(ch)
        verts = pairs // k if k > 1 else pairs
        ptr = pl.set_bit_columns.ptr
        lo = ptr[verts]
        lengths = ptr[verts + 1] - lo
        if lengths.sum() <= _RELAX_PUSH_SHARE * k * pl.set_bits.gather.size:
            _note_tile_sweep(
                A, _value_acts(A, pl, semiring, xv, skip), counters
            )
            y = xv.copy()
            _relax_push(pl, semiring, pairs, verts, lo, lengths, y)
            return y
    return semiring.add(
        xv, _bmv_bin_full_full_core(A, xv, semiring, plan, skip, counters)
    )


def _relax_push(
    pl: SweepPlan,
    semiring: Semiring,
    pairs: np.ndarray,
    verts: np.ndarray,
    lo: np.ndarray,
    lengths: np.ndarray,
    y: np.ndarray,
) -> None:
    """Push route of :func:`bmv_bin_full_full_relax`.  ``y`` holds a
    C-ordered copy of the ``(n, k)`` operand; fold ``mult(1, y[v, j])``
    of every changed pair — flat slot ``pairs[i] = v·k + j``, vertex
    ``verts[i]`` — into ``y[r, j]`` for each row ``r`` of its column run
    ``lo[i] … lo[i] + lengths[i] - 1`` in
    :attr:`SweepPlan.set_bit_columns`, as one scatter over the flat
    slots ``r·k + j``.  Only the changed pairs' stored bits are
    touched."""
    ends = np.cumsum(lengths)
    if ends.size == 0 or ends[-1] == 0:
        return
    pos = np.arange(ends[-1]) + np.repeat(lo - ends + lengths, lengths)
    rows = pl.set_bit_columns.rows[pos]
    k = y.shape[1]
    flat = y.reshape(-1)
    # Read the pushed values before the scatter writes into ``y``.
    vals = np.repeat(semiring.mult_matrix_one(flat[pairs]), lengths)
    if k > 1:
        # In intp: the int32 rows times k may not fit in int32.
        cols = pairs - verts * k
        rows = rows.astype(np.intp) * k + np.repeat(cols, lengths)
    # A scatter, not a fold: min/max is exact and order-free on these
    # operands, and it touches only the changed pairs' stored bits
    # (measured faster than the pull below _RELAX_PUSH_SHARE).
    semiring.add_at(flat, rows, vals)


# ---------------------------------------------------------------------------
# Reference implementation (dense; used only by tests)
# ---------------------------------------------------------------------------
def bmv_reference(
    dense: np.ndarray, x: np.ndarray, semiring: Semiring = ARITHMETIC
) -> np.ndarray:
    """O(n²) dense oracle: the semiring product over an explicit 0/1 matrix.

    Exists so every scheme can be checked against unambiguous semantics.
    """
    a = np.asarray(dense) != 0
    xv = np.asarray(x, dtype=np.float32)
    m = semiring.mult_matrix_one(xv)
    vals = np.broadcast_to(m[None, :], a.shape)
    return semiring.reduce_masked(vals, a, axis=-1).astype(np.float32)
