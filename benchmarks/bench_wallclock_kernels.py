"""E14 — wall-clock kernel benchmarks (pytest-benchmark).

Honest Python-level timings of the functional kernels against
``scipy.sparse`` equivalents (compiled C).  These numbers do **not**
reproduce the paper's GPU speedups — the modeled-latency benches do that —
they document what the pure-NumPy implementation actually costs on the
host, as EXPERIMENTS.md discusses.

The ``*_planless`` variants time the preserved seed kernels
(:mod:`repro.kernels.planless`), which re-derive the sweep layout and
re-unpack matrix bits on every launch; the plain variants run against the
matrix's warm :class:`~repro.kernels.plan.SweepPlan` — the repeated-launch
regime a serving graph lives in.  ``--json PATH`` writes every measured
median as machine-readable ``BENCH_wallclock_kernels.json`` rows.

The ``*_min_plus`` cases time SSSP's relaxation kernels on
``hybrid_pattern(2048, seed=4)`` at B2SR-32 (the engine's transposed
operand, 226 tiles) with a half-unreached distance operand — the
set-bit path of the min/max semirings.  The ``*_arithmetic`` cases time
PageRank's tile sweep (the fused masked gather) on the same matrix, and
``bmv_bin_bin_bin_masked`` BFS's masked boolean pull at ``k = 1``.
``frontier_expand_multi`` times the bit engine's batched BFS level on
the same matrix: one case replays every level (batch-major frontier and
visited words) recorded from a seeded ``k``-source ``multi_source_bfs``;
``frontier_expand`` replays every level of a single-source ``bfs``.
``multi_source_sssp`` times a seeded ``k``-source batched SSSP end to end
on ``hybrid_pattern(512, seed=4)`` at B2SR-32 — the serving graph size —
replaying the same relaxation rounds every call.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bitops.packing import pack_bitvector
from repro.datasets.generators import (
    block_pattern,
    diagonal_pattern,
    hybrid_pattern,
)
from repro.engines.bit import BitEngine
from repro.kernels import planless
from repro.kernels.bmm import bmm_bin_bin_sum
from repro.kernels.bmv import (
    bmv_bin_bin_bin,
    bmv_bin_bin_bin_masked,
    bmv_bin_bin_full,
    bmv_bin_full_full,
    bmv_bin_full_full_multi,
)
from repro.kernels.csr_spmv import csr_spmv
from repro.semiring import ARITHMETIC, MIN_PLUS

BENCH = "wallclock_kernels"


def emit_benchmark(json_report, benchmark, case: str, **config) -> None:
    """Record a pytest-benchmark median as a JSON row (no-op when the
    stats are unavailable, e.g. ``--benchmark-disable``)."""
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", None)
    median = getattr(stats, "median", None)
    if median is None:
        return
    json_report.emit(
        BENCH, {"case": case, **config}, "median_s", float(median)
    )


@pytest.fixture(scope="module")
def banded():
    g = diagonal_pattern(4096, bandwidth=4, seed=1)
    x = np.random.default_rng(0).random(g.n).astype(np.float32)
    return g, x


@pytest.fixture(scope="module")
def blocky():
    g = block_pattern(2048, block_size=32, seed=2, intra_density=0.5)
    return g


@pytest.fixture(scope="module")
def hybrid():
    g = hybrid_pattern(2048, seed=4)
    A = g.b2sr_t(32)
    A.plan().warm((1, 8, 32))
    return g, A


def distances(n: int, k: int | None) -> np.ndarray:
    """A mid-run SSSP operand: finite distances, half still +inf."""
    rng = np.random.default_rng(k or 0)
    shape = (n,) if k is None else (n, k)
    x = (rng.random(shape) * 8).astype(np.float32)
    x[rng.random(shape) < 0.5] = np.inf
    return x


def test_wallclock_bmv_bin_full_full_min_plus(benchmark, hybrid, json_report):
    g, A = hybrid
    x = distances(g.n, None)
    bmv_bin_full_full(A, x, MIN_PLUS)  # first launch builds plan state
    benchmark(bmv_bin_full_full, A, x, MIN_PLUS)
    emit_benchmark(
        json_report, benchmark, "bmv_bin_full_full_min_plus",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=1,
    )


@pytest.mark.parametrize("k", (1, 8, 32))
def test_wallclock_bmv_bin_full_full_multi_min_plus(
    benchmark, hybrid, json_report, k
):
    g, A = hybrid
    X = distances(g.n, k)
    bmv_bin_full_full_multi(A, X, MIN_PLUS)
    benchmark(bmv_bin_full_full_multi, A, X, MIN_PLUS)
    emit_benchmark(
        json_report, benchmark, "bmv_bin_full_full_multi_min_plus",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=k,
    )


def test_wallclock_bmv_bin_full_full_arithmetic(
    benchmark, hybrid, json_report
):
    g, A = hybrid
    x = np.random.default_rng(0).random(g.n).astype(np.float32)
    bmv_bin_full_full(A, x, ARITHMETIC)
    benchmark(bmv_bin_full_full, A, x, ARITHMETIC)
    emit_benchmark(
        json_report, benchmark, "bmv_bin_full_full_arithmetic",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=1,
    )


@pytest.mark.parametrize("k", (1, 8, 32))
def test_wallclock_bmv_bin_full_full_multi_arithmetic(
    benchmark, hybrid, json_report, k
):
    g, A = hybrid
    X = np.random.default_rng(k).random((g.n, k)).astype(np.float32)
    bmv_bin_full_full_multi(A, X, ARITHMETIC)
    benchmark(bmv_bin_full_full_multi, A, X, ARITHMETIC)
    emit_benchmark(
        json_report, benchmark, "bmv_bin_full_full_multi_arithmetic",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=k,
    )


def test_wallclock_bmv_bin_bin_bin_masked(benchmark, hybrid, json_report):
    """One BFS pull: a 30% frontier, half the vertices visited."""
    g, A = hybrid
    rng = np.random.default_rng(0)
    xw = pack_bitvector(rng.random(g.n) < 0.3, 32)
    visited = rng.random(g.n) < 0.5
    benchmark(bmv_bin_bin_bin_masked, A, xw, visited, complement=True)
    emit_benchmark(
        json_report, benchmark, "bmv_bin_bin_bin_masked",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=1,
    )


def record_levels(engine, name: str, run) -> tuple:
    """Run ``run()`` with ``engine.<name>`` recording a copy of every
    call's arguments; returns the real method and the recorded calls."""
    real = getattr(engine, name)
    levels = []

    def record(*args):
        levels.append(
            tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        )
        return real(*args)

    setattr(engine, name, record)
    try:
        run()
    finally:
        delattr(engine, name)
    return real, levels


def replay_levels(benchmark, engine, real, levels) -> None:
    def replay():
        engine.reset_stats()
        for args in levels:
            real(*args)

    benchmark(replay)


@pytest.mark.parametrize("k", (1, 8, 32))
def test_wallclock_frontier_expand_multi(benchmark, hybrid, json_report, k):
    """Every level (batch-major frontier and visited words) of a seeded
    k-source BFS, replayed through the engine."""
    from repro.algorithms import multi_source_bfs

    g, _ = hybrid
    engine = BitEngine(g, tile_dim=32)
    sources = np.random.default_rng(k).choice(g.n, k, replace=False)
    real, levels = record_levels(
        engine, "frontier_expand_multi",
        lambda: multi_source_bfs(engine, sources),
    )
    replay_levels(benchmark, engine, real, levels)
    emit_benchmark(
        json_report, benchmark, "frontier_expand_multi",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=k,
        levels=len(levels),
    )


@pytest.mark.parametrize("k", (1, 8, 32))
def test_wallclock_multi_source_sssp(benchmark, json_report, k):
    """Every relaxation round of a seeded k-source SSSP batch."""
    from repro.algorithms import multi_source_sssp

    g = hybrid_pattern(512, seed=4)
    engine = BitEngine(g, tile_dim=32)
    engine.warm_plans((k,))
    sources = np.random.default_rng(k).choice(g.n, k, replace=False)
    _, report = multi_source_sssp(engine, sources)
    benchmark(multi_source_sssp, engine, sources)
    emit_benchmark(
        json_report, benchmark, "multi_source_sssp",
        graph="hybrid_pattern(512, seed=4)", tile_dim=32, k=k,
        rounds=report.iterations,
    )


@pytest.mark.parametrize("skip_inactive", (False, "auto"))
def test_wallclock_frontier_expand(
    benchmark, hybrid, json_report, skip_inactive
):
    """Every level of a single-source BFS from vertex 0, replayed
    through the engine's k = 1 expand."""
    from repro.algorithms import bfs

    g, _ = hybrid
    engine = BitEngine(g, tile_dim=32, skip_inactive=skip_inactive)
    real, levels = record_levels(
        engine, "frontier_expand", lambda: bfs(engine, 0)
    )
    replay_levels(benchmark, engine, real, levels)
    emit_benchmark(
        json_report, benchmark, "frontier_expand",
        graph="hybrid_pattern(2048, seed=4)", tile_dim=32, k=1,
        skip_inactive=skip_inactive, levels=len(levels),
    )


def test_wallclock_bmv_bin_bin_bin(benchmark, banded, json_report):
    g, x = banded
    A = g.b2sr(32)
    xw = pack_bitvector(x, 32)
    benchmark(bmv_bin_bin_bin, A, xw)
    emit_benchmark(json_report, benchmark, "bmv_bin_bin_bin")


def test_wallclock_bmv_bin_bin_full(benchmark, banded, json_report):
    g, x = banded
    A = g.b2sr(32)
    xw = pack_bitvector(x, 32)
    benchmark(bmv_bin_bin_full, A, xw)
    emit_benchmark(json_report, benchmark, "bmv_bin_bin_full")


def test_wallclock_bmv_bin_full_full(benchmark, banded, json_report):
    g, x = banded
    A = g.b2sr(32)
    A.plan().warm()
    benchmark(bmv_bin_full_full, A, x, ARITHMETIC)
    emit_benchmark(json_report, benchmark, "bmv_bin_full_full_warm")


def test_wallclock_bmv_bin_full_full_planless(benchmark, banded, json_report):
    """The seed kernel's repeated-launch cost (re-unpacks bits, re-derives
    chunk structure every call) — the baseline the plan layer beats."""
    g, x = banded
    A = g.b2sr(32)
    benchmark(planless.bmv_bin_full_full, A, x, ARITHMETIC)
    emit_benchmark(json_report, benchmark, "bmv_bin_full_full_planless")


def test_wallclock_our_csr_spmv(benchmark, banded, json_report):
    g, x = banded
    benchmark(csr_spmv, g.csr, x)
    emit_benchmark(json_report, benchmark, "csr_spmv")


def test_wallclock_scipy_spmv(benchmark, banded, json_report):
    g, x = banded
    m = sp.csr_matrix(
        (g.csr.data, g.csr.indices.astype(np.int32),
         g.csr.indptr.astype(np.int32)),
        shape=g.csr.shape,
    )
    benchmark(lambda: m @ x)
    emit_benchmark(json_report, benchmark, "scipy_spmv")


def test_wallclock_bmm_sum(benchmark, blocky, json_report):
    A = blocky.b2sr(32)
    benchmark(bmm_bin_bin_sum, A, A)
    emit_benchmark(json_report, benchmark, "bmm_bin_bin_sum")


def test_wallclock_scipy_spgemm_sum(benchmark, blocky, json_report):
    g = blocky
    m = sp.csr_matrix(
        (g.csr.data, g.csr.indices.astype(np.int32),
         g.csr.indptr.astype(np.int32)),
        shape=g.csr.shape,
    )
    benchmark(lambda: (m @ m).sum())
    emit_benchmark(json_report, benchmark, "scipy_spgemm_sum")


def test_wallclock_conversion_csr_to_b2sr(benchmark, banded, json_report):
    g, _ = banded
    from repro.formats.convert import b2sr_from_csr

    benchmark(b2sr_from_csr, g.csr, 32)
    emit_benchmark(json_report, benchmark, "conversion_csr_to_b2sr")
