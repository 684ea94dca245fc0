"""Reusable sweep plans — launch-invariant precomputation for B2SR kernels.

The paper's pitch is that B2SR turns SpMV into cheap, regular bit-sweeps;
the host-side kernels, however, used to re-derive the sweep *layout* on
every launch: the tile-row expansion of ``indptr``, the row-aligned chunk
boundaries, each chunk's run starts / output rows, the value-gather index
``indices·d + col_offsets``, and (for the semiring path) the unpacked
per-tile bits.  A serving cluster launches the same kernels against
the same registered graphs thousands of times per run, so that per-launch
overhead dominates the host wall-clock.

:class:`SweepPlan` memoizes everything that depends only on the matrix:

* **chunk tables** — one per ``(plane_width, row_aligned)`` pair, each
  chunk carrying ``(lo, hi, trows, starts, rows)`` exactly as the seed
  kernels computed them (bitwise-compatibility requires identical chunk
  boundaries and fold order);
* **gather index** — the full ``indices[:, None]·d + arange(d)`` array,
  sliced per chunk;
* **fused masked-gather index** — per row-aligned chunk, the gather
  index with every unset bit pointed at an identity sentinel slot
  (:meth:`SweepPlan.masked_gather`), cached under a byte budget
  (:data:`DEFAULT_BITS_BUDGET_BYTES`); the one tile-sweep index of the
  semiring schemes;
* **value scratch** — zero-padded operand buffers per ``(dtype, k)``
  (the pad tail past ``ncols`` is written once and never dirtied) and
  the per-plane sentinel buffers the masked gather reads;
* **set-bit index** — :class:`SetBitIndex`, the stored bits in CSR
  order as a ``(gather, starts, rows)`` triple, built on the first
  min/max-semiring or bit-sliced boolean launch (the set-bit execution
  paths of :mod:`repro.kernels.bmv`), not by :meth:`SweepPlan.warm`,
  plus the set-bit sweep's reusable gather buffer;
* **column-order set-bit index** — :class:`ColumnBitIndex`, the same
  bits grouped by column for the boolean set-bit sweep's push route,
  derived from :attr:`SweepPlan.set_bits` (so a matrix attached without
  its :class:`~repro.graph.Graph` gets it too) on the first launch with
  a non-empty frontier, whose route choice reads its column pointers —
  not by :meth:`SweepPlan.warm`;

(The BMM contraction operand — the column-major tile repacking — is
memoized on the matrix itself, :meth:`B2SRMatrix.colmajor_tiles`.)

Plans attach to the matrix (:meth:`repro.formats.b2sr.B2SRMatrix.plan`)
and can never go stale: B2SR is immutable (the arrays are frozen at
construction), so a warm plan is valid for the lifetime of the matrix.

**Active-tile skip mode.**  The plan also hosts the helpers for the
kernels' frontier-sparsity-aware sweeps: a stored tile whose input word
(packed schemes) or input value segment (semiring schemes) is the add
identity contributes nothing, so the expensive per-tile work can be
elided.  Every scheme uses **compute elision**, which keeps results
bitwise identical to the dense sweep: the fold *shape* is preserved —
inactive tiles' contribution slots are pre-filled with the add identity
(0 for the OR and counting folds), which is exactly the value the dense
sweep would compute for them — and only the per-tile
gather/unpack/combine work is elided.  Because the folded array is
value-identical element-for-element, even non-associative float
accumulation reproduces the dense sweep bit for bit.

Value-operand activity is tested with *bit-level* equality
(:func:`value_activity`): ``-0.0`` is not bit-identical to the
``+0.0`` arithmetic identity and therefore stays active, which is what
makes compute elision provably exact for float sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.bitops.packing import unpack_bits_rowmajor
from repro.bitops.segreduce import (
    SequentialFoldPlan,
    run_starts,
    segment_sum_sequential,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.formats.b2sr import B2SRMatrix
    from repro.semiring import Semiring

#: Default byte budget for the cached fused masked-gather indices per plan.
#: A chunk's index costs ``(hi - lo) · d²`` native ints; chunks past the
#: budget are built on the fly instead of cached.  Serving deployments
#: that pin many large graphs can lower this per plan via
#: ``SweepPlan(bits_budget=…)``.
DEFAULT_BITS_BUDGET_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class SweepChunk:
    """One tile chunk of a sweep: boundaries plus the fold structure the
    seed kernels re-derived per launch."""

    lo: int
    hi: int
    #: Tile-row id of each tile in ``[lo, hi)`` (view into the matrix's
    #: memoized expansion).
    trows: np.ndarray
    #: Run starts of equal ``trows`` values, chunk-relative.
    starts: np.ndarray
    #: Output tile row of each run (``trows[starts]``).
    rows: np.ndarray

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class SetBitIndex:
    """Every stored bit of a matrix in CSR order (row-major, columns
    ascending within a row) — the index of the set-bit sweep.

    The output row ``rows[i]`` folds ``x[gather[starts[i]:starts[i+1]]]``
    (the last run extends to the end of ``gather``); rows with no set
    bit are absent.  All three arrays are read-only (``int32`` unless
    the matrix is too large for it).
    """

    #: Column of every set bit.
    gather: np.ndarray
    #: Offset of each non-empty row's run in :attr:`gather`.
    starts: np.ndarray
    #: Row of each run.
    rows: np.ndarray


@dataclass(frozen=True)
class ColumnBitIndex:
    """Every stored bit of a matrix in column order — the index of the
    boolean set-bit sweep's push route.

    Column ``c``'s set bits lie in rows ``rows[ptr[c]:ptr[c+1]]``
    (ascending), for every padded column ``c < n_tile_cols · d``.  Both
    arrays are read-only, with :class:`SetBitIndex`'s dtype rule.
    """

    #: Offset of each column's run in :attr:`rows` (one entry more than
    #: the padded column count).
    ptr: np.ndarray
    #: Row of every set bit.
    rows: np.ndarray


def _index_dtype(A: "B2SRMatrix", nbits: int) -> type:
    """``int32`` for the set-bit indices (half the memory, launches no
    slower) unless some index or position does not fit in it."""
    d = A.tile_dim
    span = max(nbits, A.n_tile_rows * d, A.n_tile_cols * d)
    return np.int32 if span < 2**31 else np.int64


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class SweepPlan:
    """Memoized launch-invariant state for one :class:`B2SRMatrix`.

    Everything is built lazily on first use and cached forever (the
    matrix is immutable).  Not thread-safe: the scratch buffers are
    per-plan singletons, matching the single-threaded launch model of
    the host kernels.
    """

    def __init__(
        self,
        matrix: "B2SRMatrix",
        *,
        bits_budget: int = DEFAULT_BITS_BUDGET_BYTES,
    ) -> None:
        if bits_budget < 0:
            raise ValueError(f"bits_budget must be >= 0, got {bits_budget}")
        self.matrix = matrix
        self.bits_budget = int(bits_budget)
        self._chunk_tables: dict[tuple[int, bool], tuple[SweepChunk, ...]] = {}
        self._gather: np.ndarray | None = None
        self._masked: dict[tuple[int, int], np.ndarray] = {}
        self._masked_bytes = 0
        self._scratch: dict[tuple, np.ndarray] = {}
        self._folds: dict[tuple, SequentialFoldPlan] = {}
        self._set_bits: SetBitIndex | None = None
        self._set_bit_columns: ColumnBitIndex | None = None

    # ------------------------------------------------------------------
    # Chunk tables
    # ------------------------------------------------------------------
    def chunks(
        self, plane_width: int, *, row_aligned: bool
    ) -> tuple[SweepChunk, ...]:
        """The chunk table for a sweep whose plane carries ``plane_width``
        vectors (``min(k, d)``; scratch is bounded per plane).

        Boundaries reproduce the seed kernels exactly: ``row_aligned``
        chunks snap to tile-row boundaries (the semiring path, whose
        float folds must not split a row across chunks); unaligned
        chunks are fixed ``step``-tile ranges (the packed paths, which
        OR/add partial rows across chunk boundaries in chunk order).
        """
        if plane_width < 1:
            raise ValueError(
                f"plane_width must be >= 1, got {plane_width}"
            )
        from repro.kernels.bmv import _chunk, _row_aligned_chunks

        # Keyed by the resolved chunk step (not the plane width) so the
        # table tracks the kernels' live ``_CHUNK_TILES`` setting and
        # plane widths that resolve to one step share a table.
        step = _chunk(plane_width)
        key = (step, bool(row_aligned))
        table = self._chunk_tables.get(key)
        if table is None:
            A = self.matrix
            if row_aligned:
                bounds = list(_row_aligned_chunks(A, step))
            else:
                bounds = [  # repro-lint: ignore[hot-path-scatter] — plan construction is launch-invariant cold path; result is memoized per (matrix, step)
                    (lo, min(lo + step, A.n_tiles))
                    for lo in range(0, A.n_tiles, step)
                ]
            trows_all = A.tile_row_of()
            parts = []
            for lo, hi in bounds:
                trows = trows_all[lo:hi]
                starts = _freeze(run_starts(trows))
                rows = _freeze(trows[starts])
                parts.append(SweepChunk(lo, hi, trows, starts, rows))
            table = tuple(parts)
            self._chunk_tables[key] = table
        return table

    # ------------------------------------------------------------------
    # Gather indices (semiring path)
    # ------------------------------------------------------------------
    @property
    def gather_index(self) -> np.ndarray:
        """``indices[:, None] * d + arange(d)`` — the value-vector gather
        of the semiring schemes, precomputed once for all launches."""
        if self._gather is None:
            A = self.matrix
            d = A.tile_dim
            self._gather = _freeze(
                A.indices[:, None] * d + np.arange(d, dtype=np.int64)
            )
        return self._gather

    def adopt_gather(self, gather: np.ndarray) -> None:
        """Install a precomputed gather index without rebuilding it.

        The shared-memory attach path (:mod:`repro.formats.shm`) maps
        the exporter's frozen :attr:`gather_index` into the worker as a
        read-only view; adopting it here makes the first semiring launch
        as warm as the exporter's.  The view must be read-only and match
        exactly what :attr:`gather_index` would compute.
        """
        A = self.matrix
        want = (A.n_tiles, A.tile_dim)
        if gather.shape != want or gather.dtype != np.int64:
            raise ValueError(
                f"gather must be int64 with shape {want}, got "
                f"{gather.dtype} {gather.shape}"
            )
        if gather.flags.writeable:
            raise ValueError("gather must be read-only to be adopted")
        self._gather = gather

    @property
    def bits_cached_bytes(self) -> int:
        """Bytes currently held by the masked-gather cache."""
        return self._masked_bytes

    def masked_gather(
        self, chunk: SweepChunk, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused gather index of the semiring tile sweep, ``(m, d, d)``.

        ``G[t, r, c]`` is the padded-operand position of tile ``t``'s
        column ``c`` where bit ``(r, c)`` is set, else the sentinel slot
        ``n_tile_cols · d`` (which :meth:`sentinel_scratch` keeps loaded
        with the semiring identity).  Gathering a value plane through
        ``G`` therefore materialises *the exact array* the seed kernel
        builds with ``np.where(bits, broadcast(mult(seg)), zero)`` in one
        fancy-index gather, so the reduction tree (and every float bit)
        is unchanged while the per-launch broadcast/where work disappears.

        Cached per chunk under :attr:`bits_budget` (native ints: 8 bytes
        per bit cell); with ``subset`` (an index array into the chunk)
        only those tiles are returned.
        """
        A = self.matrix
        d = A.tile_dim
        key = (chunk.lo, chunk.hi)
        cached = self._masked.get(key)
        if cached is not None:
            return cached if subset is None else cached[subset]
        # Native index width: narrower dtypes would halve the cache
        # cost but numpy re-casts non-intp fancy indices on *every*
        # launch, which costs more than the memory saves.
        cost = chunk.size * d * d * np.dtype(np.intp).itemsize
        build = self._masked_bytes + cost <= self.bits_budget
        sentinel = np.intp(A.n_tile_cols * d)
        if not build and subset is not None:
            # Over budget: restrict the transient unpack + index build
            # to the requested tiles.
            bits = unpack_bits_rowmajor(
                A.tiles[chunk.lo:chunk.hi][subset], d
            ).astype(bool)
            idx = self.gather_index[chunk.lo:chunk.hi][subset]
            return np.where(
                bits, idx[:, None, :].astype(np.intp), sentinel
            )
        # Transient unpack — cache the fused index, not the masks.
        bits = unpack_bits_rowmajor(
            A.tiles[chunk.lo:chunk.hi], d
        ).astype(bool)
        idx = self.gather_index[chunk.lo:chunk.hi]
        G = np.where(bits, idx[:, None, :].astype(np.intp), sentinel)
        if build:
            G = _freeze(G)
            self._masked[key] = G
            self._masked_bytes += cost
        return G if subset is None else G[subset]

    @property
    def set_bits(self) -> SetBitIndex:
        """The stored bits in CSR order (:class:`SetBitIndex`), derived
        from the tiles on first use and memoized."""
        if self._set_bits is None:
            A = self.matrix
            d = A.tile_dim
            # One (tile, tile row r) word per pair, visited in output-row
            # order: tile row, then r, then tile — the tiles of a tile
            # row are sorted by column block, so the set bits come out
            # in ascending column order within every output row.
            pair_row = (
                A.tile_row_of()[:, None] * d + np.arange(d, dtype=np.int64)
            ).ravel()
            order = np.argsort(pair_row, kind="stable")
            words = A.tiles.ravel()[order]
            shifts = np.arange(d, dtype=words.dtype)
            pair, col = np.nonzero((words[:, None] >> shifts) & 1)
            src = order[pair]
            row = pair_row[src]
            gather = A.indices[src // d] * d + col
            starts = run_starts(row)
            dt = _index_dtype(A, gather.size)
            self._set_bits = SetBitIndex(
                gather=_freeze(gather.astype(dt)),
                starts=_freeze(starts.astype(dt)),
                rows=_freeze(row[starts].astype(dt)),
            )
        return self._set_bits

    @property
    def set_bit_columns(self) -> ColumnBitIndex:
        """The stored bits in column order (:class:`ColumnBitIndex`),
        regrouped from :attr:`set_bits` on first use and memoized."""
        if self._set_bit_columns is None:
            A = self.matrix
            sb = self.set_bits
            ncols = A.n_tile_cols * A.tile_dim
            lengths = np.diff(sb.starts, append=sb.gather.size)
            row = np.repeat(sb.rows, lengths)
            # Stable, so each column's rows stay in ascending order.
            order = np.argsort(sb.gather, kind="stable")
            ptr = np.zeros(ncols + 1, dtype=np.int64)
            np.cumsum(np.bincount(sb.gather, minlength=ncols), out=ptr[1:])
            dt = _index_dtype(A, sb.gather.size)
            self._set_bit_columns = ColumnBitIndex(
                ptr=_freeze(ptr.astype(dt)),
                rows=_freeze(row[order].astype(dt)),
            )
        return self._set_bit_columns

    def seq_fold(self, chunk: SweepChunk) -> SequentialFoldPlan:
        """The chunk's precompiled sequential segment-sum
        (:class:`~repro.bitops.segreduce.SequentialFoldPlan`) — the
        arithmetic semiring's ``add_reduceat`` with its per-launch
        control-structure derivation hoisted into the plan."""
        key = ("fold", chunk.lo, chunk.hi)
        prog = self._folds.get(key)
        if prog is None:
            prog = SequentialFoldPlan(chunk.starts, chunk.size)
            self._folds[key] = prog
        return prog

    def fold_runs(
        self,
        semiring: "Semiring",
        values: np.ndarray,
        chunk: SweepChunk,
    ) -> np.ndarray:
        """Fold per-tile contribution rows into per-tile-row results with
        the semiring's add monoid — through the chunk's precompiled
        sequential plan when the semiring requires strict sequential
        order (arithmetic), else the ufunc ``reduceat`` hook."""
        if semiring.add_reduceat is segment_sum_sequential:
            return self.seq_fold(chunk)(values)
        return semiring.add_reduceat(values, chunk.starts)

    # ------------------------------------------------------------------
    # Scratch buffers
    # ------------------------------------------------------------------
    def value_scratch(self, dtype: np.dtype, k: int) -> np.ndarray:
        """A reusable zero-padded value operand buffer of shape
        ``(n_tile_cols · d, k)``.  The caller overwrites ``[:ncols]``
        every launch; the pad tail past ``ncols`` is zeroed at allocation
        and never written, so reuse is safe.
        """
        A = self.matrix
        return self._buffer("value", dtype, (A.n_tile_cols * A.tile_dim, k))

    def sentinel_scratch(self, dtype: np.dtype, k: int) -> np.ndarray:
        """Reusable ``(k, n_tile_cols · d + 1)`` buffer the fused masked
        gather reads: row ``j`` holds the multiplied padded operand of
        batch column ``j`` followed by the identity sentinel slot
        :meth:`masked_gather` points unset bits at, so a value plane's
        rows are one contiguous ``(kp, n_tile_cols · d + 1)`` block.  The
        caller refills every row and the sentinel each launch."""
        A = self.matrix
        return self._buffer(
            "sentinel", dtype, (k, A.n_tile_cols * A.tile_dim + 1)
        )

    def set_bit_scratch(self, nwords: int) -> np.ndarray:
        """Reusable ``(n_set_bits, nwords)`` ``uint64`` buffer the
        bit-sliced boolean sweep gathers frontier words into (one row
        per stored bit of :attr:`set_bits`).  Reusing it keeps a launch
        from allocating, and page-faulting in, a fresh gather array of
        every stored bit; the caller overwrites all of it each launch."""
        return self._buffer(
            "set_bits", np.dtype(np.uint64),
            (self.set_bits.gather.size, nwords),
        )

    def _buffer(
        self, kind: str, dtype: np.dtype, shape: tuple[int, int]
    ) -> np.ndarray:
        dt = np.dtype(dtype)
        key = (kind, dt.str, shape)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.zeros(shape, dtype=dt)
            self._scratch[key] = buf
        return buf

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------
    def warm(self, plane_widths: tuple[int, ...] = (1,)) -> "SweepPlan":
        """Eagerly build the launch-invariant state for the given plane
        widths (both chunk-table flavours, the gather index, and the
        row-aligned chunks' fused masked-gather indices within budget) so
        the first serving launch runs at warm speed."""
        d = self.matrix.tile_dim
        _ = self.matrix.tile_row_of()
        _ = self.gather_index
        for width in plane_widths:
            pw = min(max(int(width), 1), d)
            self.chunks(pw, row_aligned=False)
            for chunk in self.chunks(pw, row_aligned=True):
                self.masked_gather(chunk)
        return self

    def stats(self) -> dict[str, float]:
        """Introspection for benches/reports."""
        return {
            "chunk_tables": float(len(self._chunk_tables)),
            "bits_cached_bytes": float(self._masked_bytes),
            "bits_cached_chunks": float(len(self._masked)),
            "scratch_buffers": float(len(self._scratch)),
            "gather_cached": float(self._gather is not None),
            "set_bits_cached": float(self._set_bits is not None),
            "set_bit_columns_cached": float(
                self._set_bit_columns is not None
            ),
        }


# ----------------------------------------------------------------------
# Active-tile skip helpers
# ----------------------------------------------------------------------
def word_activity(xw: np.ndarray) -> np.ndarray:
    """Per-tile-column activity of a packed operand: ``True`` where any
    word of the batch row carries a set bit.

    ``xw`` is ``(n_tile_cols, kp)`` — one word plane.  A stored tile in
    an inactive column ANDs against all-zero words, so its contribution
    is the OR/add identity.
    """
    return (xw != 0).any(axis=1)


def batch_block_words(xw: np.ndarray, tile_dim: int) -> np.ndarray:
    """OR of each column block's batch-major words
    (:func:`repro.bitops.packing.pack_batch_words`).

    ``xw`` is ``(ncols, ⌈k/64⌉)``; the result is ``(n_tile_cols,
    ⌈k/64⌉)``, whose bit ``j`` in row ``b`` says whether vector ``j`` has
    a set bit in column block ``b`` — :func:`word_activity`'s ``!= 0``
    test of every vertex-major word ``pack_bitmatrix(x, d)[b, j]``, kept
    bit-sliced.
    """
    if xw.shape[0] == 0:
        return np.zeros((0, xw.shape[1]), dtype=np.uint64)
    return np.bitwise_or.reduceat(
        xw, np.arange(0, xw.shape[0], tile_dim), axis=0
    )


def batch_plane_activity(
    blocks: np.ndarray, tile_dim: int, k: int
) -> np.ndarray:
    """Per-(tile column, word plane) activity of a ``k``-wide batch from
    its :func:`batch_block_words`: the ``(n_tile_cols, ⌈k/d⌉)`` bool
    array whose ``[b, p]`` says whether any vector of plane ``p`` has a
    set bit in column block ``b`` — the tile sweep's per-plane
    activity.

    A ``d``-wide plane never straddles two 64-bit words, so it is one
    ``d``-bit lane of a block word (two nibbles per byte at ``d = 4``).
    """
    b = np.ascontiguousarray(blocks, dtype="<u8")
    if tile_dim >= 8:
        lanes = b.view(f"<u{tile_dim // 8}")
    else:
        nib = b.view(np.uint8)
        lanes = np.stack((nib & 0xF, nib >> 4), axis=-1).reshape(
            b.shape[0], -1
        )
    return lanes[:, :-(-k // tile_dim)] != 0


def value_activity(
    xpad: np.ndarray, tile_dim: int, zero: float
) -> np.ndarray:
    """Per-tile-column activity of a padded value operand
    ``(n_tile_cols · d, kp)`` — one value plane.

    A column block is *inactive* when every one of its ``d`` values (for
    every batch column) is **bit-identical** to the semiring
    add identity ``zero`` — equality alone is not enough because
    ``-0.0 == +0.0`` yet contributes a different bit pattern to a float
    sum, so signed zeros are kept active.  ``NaN`` never equals the
    identity and stays active.  Pad entries past ``ncols`` are +0.0,
    which for non-zero identities (min-plus ∞) conservatively marks the
    final block active — harmless, never wrong.
    """
    dt = xpad.dtype
    z = dt.type(zero)
    neq = xpad != z
    if z == 0.0:
        # Bit-level: -0.0 compares equal to +0.0 but must stay active.
        neq |= np.signbit(xpad) != np.signbit(z)
    blocks = neq.reshape(-1, tile_dim, xpad.shape[1])
    return blocks.any(axis=(1, 2))


def note_active(
    counters: dict | None, active: float, visits: float
) -> None:
    """Accumulate active-tile accounting into a caller-supplied dict
    (``active_tiles`` / ``tile_visits``, summed across planes/chunks)."""
    if counters is None:
        return
    counters["active_tiles"] = counters.get("active_tiles", 0.0) + float(
        active
    )
    counters["tile_visits"] = counters.get("tile_visits", 0.0) + float(
        visits
    )


__all__ = [
    "ColumnBitIndex",
    "DEFAULT_BITS_BUDGET_BYTES",
    "SetBitIndex",
    "SweepChunk",
    "SweepPlan",
    "batch_block_words",
    "batch_plane_activity",
    "note_active",
    "value_activity",
    "word_activity",
]
