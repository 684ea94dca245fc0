"""Which functions the traced run wraps, and the per-layer metrics.

Layer names follow the repository's modules.  Each function is wrapped
in the namespace its caller resolves it from: the bit engine imports
its kernels, packing helpers and cost-model functions by name, the
batcher and the data plane import the algorithms by name, and the
registry builds B2SR through ``repro.graph``.
"""

from __future__ import annotations

from typing import Any

from perfbench.trace import Tracer

_KERNELS = {
    "bmv_bin_bin_bin_masked": "kernels.bmv.bin",
    "bmv_bin_bin_bin_multi_masked": "kernels.bmv.bin_multi",
    "bmv_bin_full_full": "kernels.bmv.full",
    "bmv_bin_full_full_multi": "kernels.bmv.full_multi",
    "bmm_bin_bin_sum_masked": "kernels.bmm",
}
_PACKING = ("pack_bitmatrix", "pack_bitvector", "unpack_bitmatrix",
            "unpack_bitvector")
_COSTMODEL_OTHER = ("bmm_stats", "bmm_pair_count", "bmv_skip_crossover",
                    "ewise_dense_stats")
_ENGINE_ROUNDS = ("frontier_expand", "pull", "frontier_expand_multi",
                  "pull_multi")
_ALGORITHMS = {
    "repro.serving.batcher": ("bfs", "sssp", "connected_components",
                              "multi_source_bfs", "multi_source_sssp"),
    "repro.serving.parallel": ("bfs", "sssp", "connected_components",
                               "multi_source_bfs", "multi_source_sssp"),
    "repro.algorithms": ("bfs", "sssp", "connected_components",
                         "pagerank"),
    "repro.algorithms.tc": ("triangle_count",),
}


def _on_kernel(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    counters = kwargs.get("counters")
    if counters:
        tr.count("active_tiles", counters.get("active_tiles", 0.0))
        tr.count("tile_visits", counters.get("tile_visits", 0.0))


def _on_bmv_stats(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("bmv_bytes_computed", result.dram_bytes)


def _on_algorithm(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("iterations", result[1].iterations)


def _on_round(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("rounds")


def install_layers(tr: Tracer) -> None:
    """Wrap every traced layer boundary (the probes are installed
    separately and always on)."""
    import importlib

    import repro.engines.bit as bit
    import repro.formats.convert as convert
    import repro.graph as graph
    from repro.kernels.plan import SweepPlan
    from repro.serving import cluster
    from repro.serving.batcher import QueryBatcher
    from repro.serving.parallel import WorkerPool

    for fn, layer in _KERNELS.items():
        tr.wrap(bit, fn, layer, _on_kernel)
    for fn in _PACKING:
        tr.wrap(bit, fn, "bitops.packing")
    tr.wrap(bit, "bmv_stats", "kernels.costmodel.bmv_stats", _on_bmv_stats)
    for fn in _COSTMODEL_OTHER:
        tr.wrap(bit, fn, "kernels.costmodel.other")
    for fn in _ENGINE_ROUNDS:
        tr.wrap(bit.BitEngine, fn, "engines.bit", _on_round)
    tr.wrap(bit.BitEngine, "tc_count", "engines.bit")
    for mod, fns in _ALGORITHMS.items():
        owner = importlib.import_module(mod)
        for fn in fns:
            tr.wrap(owner, fn, "algorithms", _on_algorithm)
    tr.wrap(QueryBatcher, "_verify", "serving.verify")
    tr.wrap(cluster, "solo_reference", "serving.verify")
    tr.wrap(cluster.Router, "run", "serving.cluster")
    tr.wrap(cluster.GraphStore, "mutate", "formats.delta")
    tr.wrap(WorkerPool, "publish", "formats.shm.publish")
    tr.wrap(SweepPlan, "warm", "kernels.plan.warm")
    tr.wrap(graph, "b2sr_from_csr", "formats.b2sr.build")
    tr.wrap(convert, "b2sr_from_csr", "formats.b2sr.build")


#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("modeled_ms", "ms"),
    ("slo_attainment", "fraction"),
    ("kernels.bmv.full_multi.s", "s"),
    ("kernels.bmv.full_multi.calls", "count"),
    ("kernels.bmv.bin_multi.s", "s"),
    ("kernels.bmv.bin_multi.calls", "count"),
    ("kernels.bmv.full.s", "s"),
    ("kernels.bmv.full.calls", "count"),
    ("kernels.bmv.bin.s", "s"),
    ("kernels.bmv.bin.calls", "count"),
    ("kernels.bmm.s", "s"),
    ("kernels.bmm.calls", "count"),
    ("kernels.bmv.active_fraction", "fraction"),
    ("kernels.bmv.bytes_computed", "B"),
    ("kernels.costmodel.bmv_stats.s", "s"),
    ("kernels.costmodel.bmv_stats.calls", "count"),
    ("kernels.costmodel.other.s", "s"),
    ("kernels.plan.warm_s", "s"),
    ("bitops.packing.s", "s"),
    ("bitops.packing.calls", "count"),
    ("engines.bit.self_s", "s"),
    ("engines.bit.rounds", "count"),
    ("algorithms.self_s", "s"),
    ("algorithms.calls", "count"),
    ("algorithms.iterations", "count"),
    ("serving.batcher.self_s", "s"),
    ("serving.batcher.flushes", "count"),
    ("serving.batcher.mean_width", "queries"),
    ("serving.verify.s", "s"),
    ("serving.verify.calls", "count"),
    ("serving.cluster.self_s", "s"),
    ("serving.cluster.mean_queue_ms", "ms"),
    ("serving.cluster.requeues", "count"),
    ("serving.cluster.batches", "count"),
    ("serving.parallel.spawn_s", "s"),
    ("serving.parallel.launches", "count"),
    ("serving.parallel.drain_wait_s", "s"),
    ("serving.parallel.worker_wall_s", "s"),
    ("serving.parallel.overhead_ms_per_launch", "ms"),
    ("serving.parallel.reexecutions", "count"),
    ("serving.parallel.worker_rss_mb", "MB"),
    ("formats.delta.mutate_s", "s"),
    ("formats.delta.mutate.calls", "count"),
    ("formats.delta.rebuilt_fraction", "fraction"),
    ("formats.shm.publish_s", "s"),
    ("formats.shm.publish.calls", "count"),
    ("formats.b2sr.build_s", "s"),
    ("formats.b2sr.build.calls", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def layer_values(tr: Tracer, collected: dict[str, float]) -> dict[str, float]:
    """One traced pass's per-layer values.  ``collected`` holds the
    values the workload read from the program's own reports."""
    incl, own, calls, counts = tr.incl_s, tr.self_s, tr.calls, tr.counts
    out: dict[str, float] = {}
    for layer in ("kernels.bmv.full_multi", "kernels.bmv.bin_multi",
                  "kernels.bmv.full", "kernels.bmv.bin", "kernels.bmm",
                  "kernels.costmodel.bmv_stats", "bitops.packing",
                  "serving.verify"):
        out[f"{layer}.s"] = incl.get(layer, 0.0)
        out[f"{layer}.calls"] = float(calls.get(layer, 0))
    visits = counts.get("tile_visits", 0.0)
    out["kernels.bmv.active_fraction"] = (
        counts.get("active_tiles", 0.0) / visits if visits else 0.0
    )
    out["kernels.bmv.bytes_computed"] = counts.get("bmv_bytes_computed", 0.0)
    out["kernels.costmodel.other.s"] = incl.get("kernels.costmodel.other", 0.0)
    out["kernels.plan.warm_s"] = incl.get("kernels.plan.warm", 0.0)
    out["engines.bit.self_s"] = own.get("engines.bit", 0.0)
    out["engines.bit.rounds"] = counts.get("rounds", 0.0)
    out["algorithms.self_s"] = own.get("algorithms", 0.0)
    out["algorithms.calls"] = float(calls.get("algorithms", 0))
    out["algorithms.iterations"] = counts.get("iterations", 0.0)
    out["serving.batcher.self_s"] = own.get("serving.batcher", 0.0)
    out["serving.batcher.flushes"] = float(calls.get("serving.batcher", 0))
    out["serving.cluster.self_s"] = own.get("serving.cluster", 0.0)
    out["serving.parallel.drain_wait_s"] = incl.get(
        "serving.parallel.drain", 0.0)
    out["formats.delta.mutate_s"] = incl.get("formats.delta", 0.0)
    out["formats.delta.mutate.calls"] = float(calls.get("formats.delta", 0))
    out["formats.shm.publish_s"] = incl.get("formats.shm.publish", 0.0)
    out["formats.shm.publish.calls"] = float(
        calls.get("formats.shm.publish", 0))
    out["formats.b2sr.build_s"] = incl.get("formats.b2sr.build", 0.0)
    out["formats.b2sr.build.calls"] = float(
        calls.get("formats.b2sr.build", 0))
    out["trace.spans"] = float(len(tr.spans))
    out.update(collected)
    return out
