"""Analytic kernel cost model.

Every kernel in the evaluation has a ``*_stats`` function here that derives
its :class:`repro.gpusim.counters.KernelStats` from format metadata alone —
no execution needed — so the 521-matrix sweeps of Figures 6/7 run in
seconds.  The per-warp behaviour encoded in these formulas is validated
against the SIMT executor (:mod:`repro.kernels.simt`) on small matrices.

Cost intuition (what makes the paper's numbers):

* CSR SpMV moves ≥ 8 B per nonzero (value + column index) plus a gather
  from ``x``; B2SR moves ``tile_bytes / nnz_per_tile`` per nonzero — 32×
  less when tiles are well filled, *more* when each nonzero sits in its own
  tile (the sub-1× region of Figure 6 at very low density).
* cuSPARSE SpGEMM pays ~10 warp instructions and an 8-byte gather per
  intermediate product; BMM pays ~3 instructions per *tile-row pair lane*,
  i.e. one popc covers up to 32 products — the orders-of-magnitude BMM
  speedups of Figures 6d/7d.
* Volta multiplies `_sync` intrinsic cost by the §VI.E penalty, which is
  why BMM gains shrink there while the baseline (no warp intrinsics)
  speeds up with bandwidth.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.packing import plane_count
from repro.formats.b2sr import B2SRMatrix, bytes_per_tile
from repro.formats.csr import CSRMatrix
from repro.formats.stats import bandwidth_profile
from repro.gpusim.cache import gather_hit_fraction, hit_fraction
from repro.gpusim.counters import KernelStats
from repro.gpusim.device import DeviceSpec
from repro.kernels.bmm import bmm_pair_count
from repro.kernels.csr_spgemm import spgemm_flops

#: BMV scheme names accepted by :func:`bmv_stats`.
BMV_SCHEMES = (
    "bin_bin_bin",
    "bin_bin_full",
    "bin_full_full",
    "bin_bin_bin_masked",
    "bin_bin_full_masked",
    "bin_full_full_masked",
)


#: Average stall cycles between dependent instructions of one warp.
_WARP_STALL_CYCLES = 4.0


def _latency_bound_us(
    insts: float, warps: float, device: DeviceSpec
) -> float:
    """Critical-path microseconds of the longest warp: per-warp
    instructions × stall cycles at the device clock."""
    if warps <= 0:
        return 0.0
    per_warp = insts / warps
    return per_warp * _WARP_STALL_CYCLES / (device.clock_ghz * 1e3)


def _locality(csr: CSRMatrix) -> float:
    """Spatial locality of the column gather, from the offset profile."""
    prof = bandwidth_profile(csr)
    return float(np.clip(prof["diag_fraction"], 0.0, 1.0))


# ---------------------------------------------------------------------------
# Baseline: cuSPARSE CSR SpMV
# ---------------------------------------------------------------------------
def csr_spmv_stats(
    csr: CSRMatrix,
    device: DeviceSpec,
    *,
    locality: float | None = None,
    value_bytes: float = 4.0,
) -> KernelStats:
    """Modeled cost of ``cusparseScsrmv`` (warp-per-row vector kernel).

    ``value_bytes`` is the vector element width — 4 for the float32
    default, 8 when the pull carries float64 payloads (numeric labels).
    """
    if locality is None:
        locality = _locality(csr)
    lens = np.diff(csr.indptr).astype(np.float64)
    nnz = float(csr.nnz)
    stats = KernelStats(launches=1, tag="csr_spmv")

    # Row pointers and output vector: streamed; each processed row also
    # pays a small fixed fetch (row extent pair).
    stats.dram_bytes += 8.0 * (csr.nrows + 1) + value_bytes * csr.nrows
    # Column indices + values: 8 B per nonzero (merge-path style balance,
    # which is what cuSPARSE's csrmv achieves).
    stats.dram_bytes += 8.0 * nnz
    # x gather: hit rate from working set + locality; misses fetch sectors.
    ws = value_bytes * csr.ncols
    hit = gather_hit_fraction(ws, device.l2_bytes, locality)
    stats.dram_bytes += nnz * 32.0 * (1.0 - hit) * 0.5
    stats.l2_bytes += nnz * value_bytes * hit
    stats.l1_bytes += nnz * value_bytes * hit * 0.5

    # Instructions: per-row setup + per-32-nnz segment work + warp reduce.
    seg = np.ceil(lens / 32.0)
    stats.warp_instructions += float(
        8.0 * csr.nrows + 6.0 * seg.sum() + 5.0 * (lens > 0).sum()
    )
    stats.min_compute_us += _latency_bound_us(
        stats.warp_instructions, max(csr.nrows, 1), device
    )
    stats.flops += 2.0 * nnz
    return stats


# ---------------------------------------------------------------------------
# B2SR BMV
# ---------------------------------------------------------------------------
def bmv_stats(
    A: B2SRMatrix,
    scheme: str,
    device: DeviceSpec,
    *,
    locality: float = 0.5,
    k: int = 1,
    value_bytes: float = 4.0,
    active_tiles: float | None = None,
) -> KernelStats:
    """Modeled cost of a B2SR BMV scheme (Listing 1 / Figure 4 mapping).

    ``locality`` describes the tile-column access pattern (reuse of vector
    words across a tile row); B2SR's tile-row-major traversal gives decent
    locality by construction (§III.A merit 2).

    ``value_bytes`` is the full-precision element width — 4 for the
    float32 default, 8 when the pull carries float64 payloads (numeric
    labels); it scales the value-vector gather and the full-precision
    output store (packed binary operands are unaffected).

    ``k > 1`` models one *batched* sweep serving ``k`` vectors (the
    ``bmv_*_multi`` kernels): the tile index and payloads — the dominant
    traffic of every scheme — stream **once**, while the per-vector
    operands (packed words / value segments, outputs, masks) and the
    combine instructions scale with ``k``.  Against ``k`` separate
    launches this saves ``(k-1)×`` the matrix traffic and ``k-1`` launch
    overheads, and amortizes the per-tile indexing work across the batch.

    Batches wider than the tile word width stripe across
    ``⌈k/d⌉`` word planes (:func:`repro.bitops.packing.plane_count`): each
    plane beyond the first re-issues the per-tile word fetch/indexing
    instructions against the resident chunk — a small per-plane term on
    top of the ``k``-proportional combine work.  ``k ≤ d`` costs are
    unchanged (one plane).

    ``active_tiles`` models the kernels' active-tile skip mode: the
    per-plane sum of tiles whose input word/segment was not the semiring
    identity (the kernels report it via their ``counters`` argument, out
    of ``n_tiles × planes`` visits).  Skipped tiles pay the index lookup
    and the one-word activity test but not the payload fetch, combine
    instructions or value gather, so those terms scale by the active
    fraction.  ``None`` (or a fully-active count) reproduces the dense
    sweep's cost exactly.
    """
    if scheme not in BMV_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; valid: {BMV_SCHEMES}")
    if k < 1:
        raise ValueError(f"batch width k must be >= 1, got {k}")
    d = A.tile_dim
    n_tiles = float(A.n_tiles)
    visits = n_tiles * plane_count(k, d)
    if active_tiles is None:
        frac = 1.0
    else:
        if active_tiles < 0:
            raise ValueError(
                f"active_tiles must be >= 0, got {active_tiles}"
            )
        frac = min(1.0, active_tiles / visits) if visits else 1.0
    word_bytes = max(1.0, d / 8.0)
    tile_bytes = bytes_per_tile(d)
    binary_vec = scheme.startswith(("bin_bin_bin", "bin_bin_full"))
    binary_out = scheme.startswith("bin_bin_bin")
    full_vec = scheme.startswith("bin_full_full")

    tag = f"bmv_{scheme}" if k == 1 else f"bmv_multi_{scheme}_k{k}"
    stats = KernelStats(launches=1, tag=tag)
    # Tile index: row pointers + column indices — read once per sweep,
    # however many vectors are in flight (the skip mode's activity test
    # still touches every index entry).
    stats.dram_bytes += 4.0 * (A.n_tile_rows + 1) + 4.0 * n_tiles
    # Tile payloads: streamed, coalesced (consecutive within a tile row);
    # skipped tiles' payloads are never fetched.
    stats.dram_bytes += n_tiles * tile_bytes * frac

    if binary_vec:
        # Packed vector(s): tiny working set — overwhelmingly cache
        # resident; the k word rows of a packed matrix are contiguous, so
        # one tile's gather serves all k lanes.  The skip test reads the
        # same words, so this term does not scale down.
        ws = A.n_tile_cols * word_bytes * k
        hit = gather_hit_fraction(ws, device.l1_bytes, locality)
        stats.dram_bytes += n_tiles * word_bytes * k * (1.0 - hit)
        stats.l1_bytes += n_tiles * word_bytes * k * hit
    if full_vec:
        # Full-precision vector(s), d consecutive values per tile; the
        # 32-warp shared-memory layout (§IV) boosts reuse across
        # neighbouring rows.  Only active tiles gather their segments
        # (the activity test reads one flag per tile column, charged to
        # the per-plane indexing term below).
        ws = value_bytes * A.ncols * k
        hit = gather_hit_fraction(
            ws, device.l2_bytes, min(1.0, locality + 0.3)
        )
        requested = n_tiles * d * value_bytes * k * frac
        stats.dram_bytes += requested * (1.0 - hit)
        stats.l2_bytes += requested * hit * 0.5
        stats.l1_bytes += requested * hit * 0.5

    # Output vector(s) and, when masked, the per-vector mask loads —
    # packed (binary) or byte (full) representation.
    if binary_out:
        stats.dram_bytes += A.n_tile_rows * word_bytes * k
    else:
        stats.dram_bytes += value_bytes * A.nrows * k
    if scheme.endswith("_masked"):
        stats.dram_bytes += (
            A.nrows / 8.0 if binary_out else A.nrows * 1.0
        ) * k

    # Instructions: Figure 4's lane mapping — d lanes per tile, so a warp
    # retires 32/d tiles per instruction group; small tiles additionally
    # pay fixed per-tile indexing work ("the indexing array may carry more
    # unit workloads", §III.C), paid once per tile while the combine lanes
    # scale with k.
    lanes_fraction = d / 32.0
    per_tile_combine = (6.0 if binary_vec else 10.0) * lanes_fraction
    # Multi-word planes: each plane beyond the first replays the per-tile
    # word fetch/indexing against the resident chunk (§III.C's fixed
    # per-tile term, paid once per plane rather than once per vector).
    # The combine lanes run only for active tiles; the per-plane fixed
    # term covers the indexing *and* the skip mode's word test, so it is
    # paid for every visit.
    planes = plane_count(k, d)
    stats.warp_instructions += (
        6.0 * A.n_tile_rows
        + (per_tile_combine * k * frac + 1.5 * planes) * n_tiles
    )
    # Sub-warp tiles need atomic combines in the full-precision schemes
    # (§V: atomicMin/atomicAdd for B2SR-4/8/16) — one combine per
    # lane-group result.
    if full_vec and d < 32:
        stats.atomics += n_tiles * lanes_fraction * k * frac
    stats.min_compute_us += _latency_bound_us(
        stats.warp_instructions, max(A.n_tile_rows, 1), device
    )
    # Each popc covers up to d bit-MACs (scaled to the tiles actually
    # combined when the sweep skips inactive tiles).
    stats.flops += 2.0 * float(A.nnz) * k * frac
    return stats


def bmv_skip_crossover(
    A: B2SRMatrix,
    scheme: str,
    device: DeviceSpec,
    *,
    locality: float = 0.5,
    k: int = 1,
    value_bytes: float = 4.0,
) -> float:
    """Active-tile fraction at which a dense sweep stops losing to skip.

    Skip mode's modeled cost grows linearly in the active fraction
    ``f`` (every ``frac``-scaled term of :func:`bmv_stats`), while the
    dense sweep's cost is the ``f = 1`` point of the same line shifted
    by whatever the model charges skip *alone* — today nothing: the
    per-plane fixed term covers the word test for both modes, so the
    crossover sits exactly at ``1.0`` and an adaptive engine may only
    go dense on provably fully-active rounds.  The helper solves for
    the crossover from the modeled times rather than hard-coding that
    fact, so a future skip-only charge (scan setup, subset compaction)
    moves it below 1.0 without touching the engines.
    """
    from repro.gpusim.timing import time_us

    visits = float(A.n_tiles * plane_count(max(k, 1), A.tile_dim))
    if visits <= 0:
        return 1.0

    def modeled(active: float | None) -> float:
        return time_us(
            bmv_stats(
                A, scheme, device,
                locality=locality, k=k, value_bytes=value_bytes,
                active_tiles=active,
            ),
            device,
        )

    dense = modeled(None)
    skip_empty = modeled(0.0)
    skip_full = modeled(visits)
    slope = skip_full - skip_empty
    if slope <= 0.0:  # pragma: no cover - degenerate model
        return 1.0
    return float(np.clip((dense - skip_empty) / slope, 0.0, 1.0))


# ---------------------------------------------------------------------------
# B2SR delta build + plan re-warm (dynamic graphs)
# ---------------------------------------------------------------------------
def delta_rewarm_stats(
    A: B2SRMatrix,
    device: DeviceSpec,
    *,
    rebuilt_fraction: float = 1.0,
    k: int = 1,
) -> KernelStats:
    """Modeled one-time cost of installing a new graph version: the
    copy-on-write delta build plus warming the version's sweep plan.

    ``A`` is the *new* version's matrix and ``rebuilt_fraction`` the
    touched-tile share its :class:`~repro.formats.delta.DeltaStats`
    reports.  Tile payloads split by fate: the rebuilt fraction pays an
    unpack/edit/repack round trip (read + write), the carried fraction
    streams once into the new tile array (copy-on-write shares *array
    slices*, but the concatenated layout of the fresh immutable matrix
    still writes them).  The index (indptr + tile keys) is rebuilt in
    full whatever the fraction — canonicalization sorts every key.  The
    plan warm then sweeps the new tile index once per word plane of the
    target batch width ``k`` (plans memoize per matrix and share nothing
    across versions — that is what makes them safe to reuse).

    A full rebuild is the ``rebuilt_fraction=1.0`` special case, so the
    delta-vs-rebuild crossover the dynamic bench sweeps falls out of one
    formula.
    """
    if not 0.0 <= rebuilt_fraction <= 1.0:
        raise ValueError(
            f"rebuilt_fraction must be in [0, 1], got {rebuilt_fraction}"
        )
    if k < 1:
        raise ValueError(f"batch width k must be >= 1, got {k}")
    d = A.tile_dim
    n_tiles = float(A.n_tiles)
    tile_bytes = bytes_per_tile(d)
    stats = KernelStats(launches=2, tag="delta_rewarm")

    # Rebuilt tiles: read old words, edit bits, write new words (the
    # scatter path of the tile editor); carried tiles: stream once into
    # the new concatenated tile array.
    rebuilt = n_tiles * rebuilt_fraction
    carried = n_tiles - rebuilt
    stats.dram_bytes += rebuilt * tile_bytes * 2.0
    stats.dram_bytes += carried * tile_bytes
    # Index rebuild: sort/merge every tile key, write indptr + indices.
    stats.dram_bytes += 8.0 * n_tiles + 4.0 * (A.n_tile_rows + 1)
    stats.warp_instructions += 12.0 * n_tiles / 32.0  # sort/merge lanes
    stats.warp_instructions += 5.0 * rebuilt  # per-tile bit edits

    # Plan warm: one pass over the tile index per word plane — chunk
    # tables, gather indices, masked-gather indices (SweepPlan.warm).
    planes = plane_count(k, d)
    stats.dram_bytes += planes * (4.0 * n_tiles + 4.0 * (A.n_tile_rows + 1))
    stats.warp_instructions += planes * 4.0 * n_tiles / 32.0
    stats.min_compute_us += _latency_bound_us(
        stats.warp_instructions, max(A.n_tile_rows, 1), device
    )
    # One host-side allocation/synchronisation per installed version.
    stats.host_us += 25.0
    return stats


# ---------------------------------------------------------------------------
# Baseline: cuSPARSE CSR SpGEMM
# ---------------------------------------------------------------------------
def csr_spgemm_stats(
    A: CSRMatrix,
    B: CSRMatrix,
    device: DeviceSpec,
    *,
    flops: int | None = None,
    nnz_c: int | None = None,
) -> KernelStats:
    """Modeled cost of ``cusparseScsrgemm`` (CUDA 10 two-phase hash
    SpGEMM).

    ``flops`` (intermediate products) and ``nnz_c`` can be passed in when
    already known; otherwise flops is computed and nnz_c conservatively
    approximated by ``min(flops, nrows·ncols)``.
    """
    if flops is None:
        flops = spgemm_flops(A, B)
    if nnz_c is None:
        nnz_c = min(flops, A.nrows * B.ncols)
    f = float(flops)
    stats = KernelStats(launches=4, tag="csr_spgemm")
    # cuSPARSE csrgemm (CUDA 10) allocates its workspace and synchronises
    # between the nnz and value phases on the host.
    stats.host_us += 55.0

    # Phase traffic: A read twice (nnz pass + value pass), B rows gathered
    # per product with cache help, C written twice (row sizes + values).
    stats.dram_bytes += 2.0 * (8.0 * A.nnz + 4.0 * (A.nrows + 1))
    ws_b = 8.0 * B.nnz + 4.0 * (B.nrows + 1)
    hit = hit_fraction(ws_b, device.l2_bytes)
    stats.dram_bytes += 2.0 * f * 8.0 * (1.0 - hit)
    stats.l2_bytes += 2.0 * f * 8.0 * hit
    stats.dram_bytes += 2.0 * 8.0 * float(nnz_c)

    # Hash-table insertion: ~10 instructions per product, inflated when
    # many products collapse into each output entry (collision chains).
    collision = f / max(float(nnz_c), 1.0)
    inflation = 1.0 + 0.15 * np.log2(max(collision, 1.0))
    stats.warp_instructions += 10.0 * f * inflation + 12.0 * A.nrows
    stats.min_compute_us += _latency_bound_us(
        stats.warp_instructions, max(A.nrows, 1), device
    )
    stats.atomics += float(nnz_c) * 0.25
    stats.flops += 2.0 * f
    return stats


# ---------------------------------------------------------------------------
# B2SR BMM
# ---------------------------------------------------------------------------
def bmm_stats(
    A: B2SRMatrix,
    B: B2SRMatrix,
    device: DeviceSpec,
    *,
    pairs: int | None = None,
    masked: bool = False,
) -> KernelStats:
    """Modeled cost of ``bmm_bin_bin_sum[_masked]`` (Listing 2).

    Work scales with tile-row pairs, not with intermediate products: one
    ``popc`` lane-step covers up to ``d`` bit-MACs and a full pair covers
    ``d³`` — the bit-parallelism behind Figure 6d.
    """
    if A.tile_dim != B.tile_dim:
        raise ValueError("tile dims must match")
    d = A.tile_dim
    if pairs is None:
        pairs = bmm_pair_count(A, B)
    p = float(pairs)
    tile_bytes = bytes_per_tile(d)
    stats = KernelStats(launches=1, tag="bmm_bin_bin_sum")

    # A tiles streamed once; B tiles gathered per pair with L2 reuse.
    stats.dram_bytes += A.n_tiles * tile_bytes + 4.0 * A.n_tiles
    stats.dram_bytes += 4.0 * (A.n_tile_rows + 1) + 4.0 * (B.n_tile_rows + 1)
    ws_b = B.n_tiles * tile_bytes
    hit = hit_fraction(ws_b, device.l2_bytes)
    stats.dram_bytes += p * tile_bytes * (1.0 - hit) + 4.0 * p * (1.0 - hit)
    stats.l2_bytes += p * tile_bytes * hit
    if masked:
        stats.dram_bytes += p * tile_bytes * 0.25  # mask tile lookups

    # Per pair: d shuffle broadcasts + d AND/popc/accumulate lane groups,
    # scaled by the d/32 lane occupancy of sub-warp tiles.
    lanes_fraction = d / 32.0
    per_pair = (3.0 * d + 8.0) * lanes_fraction
    stats.warp_instructions += per_pair * p + 8.0 * A.n_tile_rows
    stats.sync_intrinsics += d * lanes_fraction * p
    stats.min_compute_us += _latency_bound_us(
        stats.warp_instructions * device.sync_intrinsic_penalty,
        max(A.n_tile_rows, 1),
        device,
    )
    stats.atomics += float(A.n_tile_rows)
    stats.flops += 2.0 * p * d * d  # upper bound of covered bit-MACs
    return stats


# ---------------------------------------------------------------------------
# Elementwise / frontier helper kernels (algorithm-level modeling)
# ---------------------------------------------------------------------------
def ewise_dense_stats(
    n: int, device: DeviceSpec, *, vectors: int = 2, bytes_per: float = 4.0
) -> KernelStats:
    """A dense elementwise kernel over ``vectors`` length-``n`` operands
    (assign/compare/select steps between iterations)."""
    stats = KernelStats(launches=1, tag="ewise")
    stats.dram_bytes += vectors * bytes_per * n
    stats.warp_instructions += 3.0 * n / 32.0
    return stats


def frontier_compact_stats(
    n: int, frontier: int, device: DeviceSpec
) -> KernelStats:
    """GraphBLAST's sparse-frontier maintenance (scan + compact): a prefix
    sum over ``n`` plus a scatter of the ``frontier`` survivors."""
    stats = KernelStats(launches=2, tag="frontier_compact")
    stats.dram_bytes += 8.0 * n + 8.0 * frontier
    stats.warp_instructions += 6.0 * n / 32.0 + 2.0 * frontier / 32.0
    return stats


def spmspv_stats(
    csr: CSRMatrix,
    frontier_size: int,
    frontier_edges: float,
    device: DeviceSpec,
    *,
    locality: float | None = None,
) -> KernelStats:
    """GraphBLAST push-direction masked SpMSpV over an active frontier.

    Traffic scales with the frontier's edges, not the whole matrix — the
    input-sparsity exploitation of §II — but pays gather irregularity and
    per-row setup for every active vertex.
    """
    if locality is None:
        locality = _locality(csr)
    stats = KernelStats(launches=3, tag="spmspv")
    stats.dram_bytes += 8.0 * frontier_size  # frontier list + row extents
    sectors = max(1.0, frontier_edges * 4.0 / 32.0)
    stats.dram_bytes += 2.0 * 32.0 * sectors
    # Dense full-precision mask/visited vector scanned every call.
    stats.dram_bytes += 4.0 * csr.nrows
    ws = 4.0 * csr.ncols
    hit = gather_hit_fraction(ws, device.l2_bytes, locality)
    stats.dram_bytes += frontier_edges * 32.0 * (1.0 - hit) * 0.5
    stats.l2_bytes += frontier_edges * 4.0 * hit
    # Gather + radix-sort + reduce-by-key over the expanded neighbourhood
    # (GraphBLAST's sparse-output vxm pipeline).
    stats.warp_instructions += (
        8.0 * frontier_size
        + 30.0 * frontier_edges / 32.0
        + 4.0 * csr.nrows / 32.0
    )
    stats.atomics += frontier_edges * 0.5
    stats.min_compute_us += _latency_bound_us(
        stats.warp_instructions,
        max(frontier_size + csr.nrows / 32.0, 1.0),
        device,
    )
    # Frontier size read-back (cudaMemcpy sync) plus thrust radix-sort
    # passes whose temporary setup scales with the vector length.
    stats.host_us += 18.0 + 0.004 * csr.nrows
    return stats
