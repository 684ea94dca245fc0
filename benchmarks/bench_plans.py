"""E19 — kernel sweep plans + frontier-sparsity-aware sweeps (wall-clock).

The serving cluster launches the same BMV kernels against the same
registered graphs thousands of times per run; this bench measures what
the :class:`repro.kernels.plan.SweepPlan` subsystem actually saves on
that repeated-launch regime, against the preserved seed kernels
(:mod:`repro.kernels.planless`) that re-derive the sweep layout and
re-unpack matrix bits every call.

Three experiments, all best-of-3 wall-clock and all *bitwise verified*
(every planned / skip-mode result is compared ``array_equal`` at the bit
level against the planless seed kernel before its timing counts):

* **warm-plan repeated launches** — the Figures 6/7 BMV workloads (the
  stratified evaluation-suite subset, swept over every tile dim) plus
  the E14 wallclock workloads; acceptance: the suite-aggregate warm
  speedup is ≥ 2× at every tile dim;
* **sparse-frontier sweeps** — BFS-round (masked boolean) launches
  with empty / single-bit / 1% / full frontiers and a sparse
  arithmetic pull round, dense sweep vs active-tile skip; acceptance:
  the sparse arithmetic round gains ≥ 2× from skip while every answer
  stays bit-identical.  The sparse SSSP (min-plus) round runs the
  set-bit path in both modes — skip changes only its counters there —
  so it is timed against the planless tile sweep instead; acceptance:
  ≥ 2×;
* **warm serving flush** — a `GraphRegistry` entry (which warms its
  plans at registration) serving a mixed BFS/SSSP/CC batch, first flush
  vs steady-state flush, with one ``flush(verify=True)`` exactness
  smoke.

``--json PATH`` writes every measurement as ``BENCH_plans.json`` rows.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_artifact
from repro.bench import suite_subset
from repro.bitops.packing import pack_bitvector
from repro.datasets.generators import block_pattern, diagonal_pattern
from repro.formats.b2sr import TILE_DIMS
from repro.kernels import bmv, planless
from repro.semiring import ARITHMETIC, MIN_PLUS
from repro.serving import GraphRegistry

BENCH = "plans"


def best_of(fn, *, rounds: int = 3, reps: int = 3) -> float:
    """Best-of-``rounds`` mean seconds per call over ``reps`` calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _assert_bitwise(a: np.ndarray, b: np.ndarray, label: str) -> None:
    if a.dtype != b.dtype:
        raise AssertionError(f"{label}: dtype {a.dtype} vs {b.dtype}")
    view = f"u{a.dtype.itemsize}" if a.dtype.kind == "f" else None
    av, bv = (a.view(view), b.view(view)) if view else (a, b)
    assert np.array_equal(av, bv), (
        f"{label}: planned/skip result is not bitwise identical to the "
        "planless seed kernel"
    )


# ----------------------------------------------------------------------
# Warm-plan repeated launches (fig6/7 BMV workloads)
# ----------------------------------------------------------------------
def test_warm_plan_repeated_launches(results_dir, json_report):
    rng = np.random.default_rng(7)
    lines = [
        "E19a — warm-plan repeated BMV launches vs planless seed kernels",
        "(best-of-3 wall-clock; every warm result verified bitwise)",
        "",
        f"{'workload':>26s} {'scheme':>12s} {'planless':>12s} "
        f"{'warm':>12s} {'speedup':>8s}",
    ]
    entries = suite_subset(20, max_n=2048)
    graphs = [e.build() for e in entries]

    aggregate = {}
    for d in TILE_DIMS:
        cold_s = warm_s = 0.0
        for g in graphs:
            A = g.b2sr(d)
            A.plan().warm()
            x = rng.random(g.n).astype(np.float32)
            _assert_bitwise(
                bmv.bmv_bin_full_full(A, x, ARITHMETIC),
                planless.bmv_bin_full_full(A, x, ARITHMETIC),
                f"fff/arith d={d} {g.name}",
            )
            cold_s += best_of(
                lambda: planless.bmv_bin_full_full(A, x, ARITHMETIC)
            )
            warm_s += best_of(
                lambda: bmv.bmv_bin_full_full(A, x, ARITHMETIC)
            )
        speedup = cold_s / warm_s
        aggregate[d] = speedup
        lines.append(
            f"{'fig6/7 suite (20 mats)':>26s} {f'fff/arith d{d}':>12s} "
            f"{cold_s * 1e3:10.2f} ms {warm_s * 1e3:10.2f} ms "
            f"{speedup:7.2f}x"
        )
        json_report.emit(
            BENCH,
            {"case": "warm_repeated", "workload": "fig67_suite",
             "scheme": "bin_full_full", "semiring": "arithmetic",
             "tile_dim": d},
            "speedup", speedup,
        )

    # The E14 wallclock workloads, for continuity with the kernel bench.
    extra = [
        ("banded4096", diagonal_pattern(4096, bandwidth=4, seed=1)),
        ("blocky2048",
         block_pattern(2048, block_size=32, seed=2, intra_density=0.5)),
    ]
    for name, g in extra:
        A = g.b2sr(32)
        A.plan().warm()
        x = rng.random(g.n).astype(np.float32)
        for sem_name, sem in (("arithmetic", ARITHMETIC),
                              ("min_plus", MIN_PLUS)):
            _assert_bitwise(
                bmv.bmv_bin_full_full(A, x, sem),
                planless.bmv_bin_full_full(A, x, sem),
                f"fff/{sem_name} {name}",
            )
            tc = best_of(lambda: planless.bmv_bin_full_full(A, x, sem))
            tw = best_of(lambda: bmv.bmv_bin_full_full(A, x, sem))
            lines.append(
                f"{name:>26s} {('fff/' + sem_name[:5]):>12s} "
                f"{tc * 1e3:10.3f} ms {tw * 1e3:10.3f} ms {tc / tw:7.2f}x"
            )
            json_report.emit(
                BENCH,
                {"case": "warm_repeated", "workload": name,
                 "scheme": "bin_full_full", "semiring": sem_name,
                 "tile_dim": 32},
                "speedup", tc / tw,
            )

    lines.append("")
    lines.append(
        "acceptance: suite-aggregate warm speedup >= 2.0x per tile dim — "
        + ", ".join(f"d{d}: {s:.2f}x" for d, s in aggregate.items())
    )
    write_artifact(results_dir, "plans_warm_launches.txt", "\n".join(lines))
    for d, s in aggregate.items():
        assert s >= 2.0, (
            f"warm-plan speedup on the fig6/7 suite at tile_dim={d} is "
            f"{s:.2f}x, below the 2x acceptance bar"
        )


# ----------------------------------------------------------------------
# Sparse-frontier sweeps (active-tile skip)
# ----------------------------------------------------------------------
def test_sparse_frontier_skip(results_dir, json_report):
    g = diagonal_pattern(4096, bandwidth=4, seed=1)
    A = g.b2sr(32)
    A.plan().warm()
    n = g.n
    rng = np.random.default_rng(0)
    lines = [
        "E19b — active-tile skip vs dense sweep (best-of-3 wall-clock)",
        "(skip results are bitwise identical to the dense sweep)",
        "",
        f"{'round':>22s} {'dense':>11s} {'skip':>11s} {'speedup':>8s}",
    ]

    visited = np.zeros(n, dtype=bool)
    single = np.zeros(n, dtype=bool)
    single[7] = True
    frontiers = [
        ("bfs_empty", np.zeros(n, dtype=bool)),
        ("bfs_single_bit", single),
        ("bfs_1pct", rng.random(n) < 0.01),
        ("bfs_full", np.ones(n, dtype=bool)),
    ]
    for label, frontier in frontiers:
        fw = pack_bitvector(frontier, 32)
        dense = bmv.bmv_bin_bin_bin_masked(
            A, fw, visited, complement=True, skip=False
        )
        skipped = bmv.bmv_bin_bin_bin_masked(
            A, fw, visited, complement=True, skip=True
        )
        _assert_bitwise(dense, skipped, label)
        td = best_of(
            lambda: bmv.bmv_bin_bin_bin_masked(
                A, fw, visited, complement=True, skip=False
            ),
            reps=10,
        )
        ts = best_of(
            lambda: bmv.bmv_bin_bin_bin_masked(
                A, fw, visited, complement=True, skip=True
            ),
            reps=10,
        )
        lines.append(
            f"{label:>22s} {td * 1e6:9.1f} us {ts * 1e6:9.1f} us "
            f"{td / ts:7.2f}x"
        )
        json_report.emit(
            BENCH, {"case": "skip", "round": label}, "speedup", td / ts
        )

    # Sparse pull round: a handful of non-zero values, the rest the
    # +0.0 identity — the identity-heavy operand the compute elision of
    # the tile sweep targets (the arithmetic semiring always sweeps
    # tiles).
    x = np.zeros(n, dtype=np.float32)
    x[:40] = rng.random(40).astype(np.float32)
    dense = bmv.bmv_bin_full_full(A, x, ARITHMETIC, skip=False)
    skipped = bmv.bmv_bin_full_full(A, x, ARITHMETIC, skip=True)
    _assert_bitwise(dense, skipped, "arith_sparse")
    td = best_of(lambda: bmv.bmv_bin_full_full(A, x, ARITHMETIC, skip=False))
    ts = best_of(lambda: bmv.bmv_bin_full_full(A, x, ARITHMETIC, skip=True))
    pull_speedup = td / ts
    lines.append(
        f"{'arith_sparse_round':>22s} {td * 1e6:9.1f} us "
        f"{ts * 1e6:9.1f} us {pull_speedup:7.2f}x"
    )
    json_report.emit(
        BENCH, {"case": "skip", "round": "arith_sparse_round"},
        "speedup", pull_speedup,
    )

    # SSSP early round: a handful of settled distances, the rest +inf.
    # Min-plus takes the set-bit path with skip on or off; the baseline
    # is the planless tile sweep.
    x = np.full(n, np.inf, dtype=np.float32)
    x[:40] = rng.random(40).astype(np.float32)
    seed = planless.bmv_bin_full_full(A, x, MIN_PLUS)
    for skip in (False, True):
        _assert_bitwise(
            bmv.bmv_bin_full_full(A, x, MIN_PLUS, skip=skip), seed,
            f"sssp_sparse skip={skip}",
        )
    tp = best_of(lambda: planless.bmv_bin_full_full(A, x, MIN_PLUS))
    td = best_of(lambda: bmv.bmv_bin_full_full(A, x, MIN_PLUS, skip=False))
    ts = best_of(lambda: bmv.bmv_bin_full_full(A, x, MIN_PLUS, skip=True))
    sssp_speedup = tp / max(td, ts)
    lines.append("")
    lines.append(
        f"{'sssp_sparse_round':>22s} planless tile sweep "
        f"{tp * 1e6:9.1f} us, set-bit {td * 1e6:9.1f} us (skip "
        f"{ts * 1e6:9.1f} us) {sssp_speedup:7.2f}x"
    )
    json_report.emit(
        BENCH, {"case": "set_bit", "round": "sssp_sparse_round"},
        "speedup_vs_planless", sssp_speedup,
    )
    write_artifact(results_dir, "plans_sparse_skip.txt", "\n".join(lines))
    assert pull_speedup >= 2.0, (
        f"sparse arithmetic round skip speedup {pull_speedup:.2f}x below 2x"
    )
    assert sssp_speedup >= 2.0, (
        f"sparse SSSP round set-bit speedup {sssp_speedup:.2f}x over the "
        "planless tile sweep below 2x"
    )


# ----------------------------------------------------------------------
# Warm serving flush
# ----------------------------------------------------------------------
def test_warm_serving_flush(results_dir, json_report):
    g = diagonal_pattern(1024, bandwidth=6, seed=3)
    registry = GraphRegistry(max_batch=32)
    t0 = time.perf_counter()
    entry = registry.add("g", g)  # warms the plans at registration
    register_s = time.perf_counter() - t0

    def submit_and_flush(verify=False):
        for s in range(24):
            entry.batcher.submit("bfs", s * 7 % g.n)
        for s in range(8):
            entry.batcher.submit("sssp", s * 13 % g.n)
        entry.batcher.submit("cc")
        return entry.batcher.flush(
            verify=verify, singles_cache=entry.singles_cache
        )

    # One verified flush: the bitwise-equal-to-solo serving contract
    # holds on the warm-plan path.
    results, reports = submit_and_flush(verify=True)
    assert all(rep.verified for rep in reports)
    queries = len(results)

    t_flush = best_of(lambda: submit_and_flush(), rounds=3, reps=2)
    qps = queries / t_flush
    lines = [
        "E19c — warm serving flush (plans built at graph registration)",
        "",
        f"registration incl. plan warm-up: {register_s * 1e3:9.2f} ms",
        f"steady-state flush ({queries} mixed queries): "
        f"{t_flush * 1e3:9.2f} ms  ({qps:,.0f} queries/s)",
        "verified: one flush(verify=True) pass, every coalesced answer "
        "bitwise identical to its standalone run",
    ]
    json_report.emit(
        BENCH, {"case": "serving", "queries": queries},
        "flush_qps", qps,
    )
    json_report.emit(
        BENCH, {"case": "serving"}, "register_warm_s", register_s
    )
    write_artifact(results_dir, "plans_serving.txt", "\n".join(lines))
