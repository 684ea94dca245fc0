"""The benchmark's four workloads.

A run first makes its inputs once with ``prepare`` (untimed).  Each
*pass* then splits into ``setup`` (timed as ``setup_s``: graph
generation, B2SR build, plan warm-up, and for the shm workload the
export plus every worker answering a first launch), ``run`` (timed as
``wall_s``) and an untimed ``teardown``/``collect``.  Every pass builds
fresh serving state, so no verification cache or learned estimate
survives from one pass into the next.

Serving arrivals are an open-loop Poisson schedule in *modeled* time,
fixed before the timed phase starts.  The wall clock
measures how fast the host drains that fixed schedule, so there is no
wall-clock generator that could run late.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench.trace import Tracer

_clock = time.perf_counter

TILE_DIM = 32
MAX_BATCH = 32
SLO_MS = 5.0
URGENT_SLO_MS = 2.5
URGENT_FRACTION = 0.05
N_SERVERS = 2
PLACEMENT = "least-loaded"
#: Edge edits per mutation batch.
MUTATION_SIZE = 16
#: Seed of the workload's fixed shape: arrival timeline, kinds, lanes,
#: graphs, reference sources and mutation edits.
SCHEDULE_SEED = 1
TABLE7_MATRICES = (
    "delaunay_n14", "se", "debr",
    "ash292", "netz4504_dual", "minnesota", "jagmesh6", "uk",
    "whitaker3_dual", "rajat07", "3dtube",
    "Erdos02", "mycielskian9", "EX3", "net25", "mycielskian10",
)
PAPER_TILES = (4, 8, 16, 32)
PAPER_ALGOS = ("BFS", "SSSP", "PR", "CC", "TC")
#: Seeded candidates tried per matrix when drawing a paper-algos source.
PAPER_CANDIDATES = 64


@dataclass
class Pass:
    """What one pass measured; ``answers`` feed the oracle."""

    setups: list[float]
    wall_s: float
    attempted: int
    failed: int
    query_wall_ms: list[float]
    #: Modeled results that must repeat exactly for a seed.
    fingerprint: dict[str, float]
    answers: list[tuple[tuple, np.ndarray]]
    layer: dict[str, float] = field(default_factory=dict)
    traced: bool = False


# ----------------------------------------------------------------------
# Probes: the few always-on timings the end-to-end metrics need
# ----------------------------------------------------------------------
def _on_flush(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Each query's wall service time is the wall time of the flush it
    rode; iterations are summed for the determinism guard."""
    results, reports = result
    _, _, _, start, end = tr.spans[-1]
    tr.samples["query_wall_ms"].extend(
        [(end - start) * 1e3] * len(results)
    )
    tr.count("flush_iterations", sum(r.iterations for r in reports))


def _on_submit(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    pool, sid, spec = args
    tr.marks["submit"][spec.batch_id] = (
        tr.spans[-1][4], sid % max(pool.processes, 1)
    )


def _on_record(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.marks["receipt"][args[1].batch_id] = tr.spans[-1][4]


def _on_drain(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.samples["drain_start"].append(tr.spans[-1][3])


def install_probes(tr: Tracer) -> None:
    from repro.serving.batcher import QueryBatcher
    from repro.serving.parallel import WorkerPool

    tr.wrap(QueryBatcher, "flush", "serving.batcher", _on_flush)
    tr.wrap(WorkerPool, "submit", "serving.parallel.submit", _on_submit)
    tr.wrap(WorkerPool, "_record", "serving.parallel.record", _on_record)
    tr.wrap(WorkerPool, "drain", "serving.parallel.drain", _on_drain)


# ----------------------------------------------------------------------
# Seeded sources that keep the offered work comparable
# ----------------------------------------------------------------------
def eccentricities(graph, sources: np.ndarray | None = None) -> np.ndarray:
    """Directed hop eccentricity (deepest reachable level) of each
    source (default: every vertex)."""
    from perfbench.oracle import hop_distances

    if sources is None:
        sources = np.arange(graph.n)
    hops = hop_distances(graph, sources)
    return np.where(np.isinf(hops), -1, hops).max(axis=1).astype(np.int64)


def near_eccentricity(
    ecc: np.ndarray, reference: int, rng: np.random.Generator
) -> int:
    """A seeded source whose eccentricity is within one of
    ``reference``'s.

    A traversal from a source runs (eccentricity + 1) rounds, and a
    batch runs as many rounds as its deepest member.  On these graphs
    eccentricity ranges from a few hops to hundreds, so drawing sources
    freely makes the work offered differ by tens of percent between
    seeds.  Drawing within one hop of a fixed reference draw keeps every
    seed's work comparable while still changing which vertices are
    queried, and so which tiles each round touches.
    """
    near = np.flatnonzero(np.abs(ecc - ecc[reference]) <= 1)
    return int(rng.choice(near))


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    name: str
    why: str
    graphs: tuple[tuple[str, int, int], ...]  # (name, vertices, gen seed)
    requests: int
    rate_qps: float
    mix: tuple[float, float, float]
    processes: int = 0  # 0: in-process flushes; > 0: shm WorkerPool
    verify: bool = False
    mutation_batches: int = 0
    seeded_sources: bool = True


class ServeWorkload:
    """An open-loop arrival schedule served by a 2-server ``Router``."""

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.why = spec.why

    def prepare(self, seed: int) -> dict:
        """Make the run's inputs (untimed, once per run).

        The arrival timeline, each arrival's graph, kind and lane, the
        reference sources and the mutation edits and their times come
        from the fixed :data:`SCHEDULE_SEED`: they are the workload's
        shape.  With ``seeded_sources`` the seed replaces each source
        (see :func:`near_eccentricity`); otherwise the stream does not
        depend on the seed.
        """
        from repro.datasets.generators import hybrid_pattern
        from repro.serving import multi_graph_poisson_stream, mutation_trace

        s = self.spec
        graphs = {g: hybrid_pattern(n, seed=gs) for g, n, gs in s.graphs}
        stream = multi_graph_poisson_stream(
            {g: graph.n for g, graph in graphs.items()},
            requests=s.requests, rate_qps=s.rate_qps, mix=s.mix,
            slo_ms=SLO_MS, urgent_slo_ms=URGENT_SLO_MS,
            urgent_fraction=URGENT_FRACTION, seed=SCHEDULE_SEED,
        )
        if s.seeded_sources:
            rng = np.random.default_rng(seed)
            ecc = {g: eccentricities(graph) for g, graph in graphs.items()}
            stream = [
                a if a.source is None else dataclasses.replace(
                    a, source=near_eccentricity(ecc[a.graph], a.source, rng))
                for a in stream
            ]
        mutations = []
        gap = stream[-1].time_ms / (s.mutation_batches + 1)
        for i, gname in enumerate(graphs if s.mutation_batches else ()):
            mutations += mutation_trace(
                graphs[gname], batches=s.mutation_batches,
                batch_size=MUTATION_SIZE,
                start_ms=gap * (1.0 + i / len(graphs)), gap_ms=gap,
                seed=SCHEDULE_SEED + i, name=gname,
            )
        return {"stream": stream, "mutations": mutations}

    def setup(self, inputs: dict) -> dict:
        from repro.datasets.generators import hybrid_pattern
        from repro.gpusim import GTX1080
        from repro.serving import GraphRegistry, GraphStore, Router

        s = self.spec
        cls = GraphStore if s.mutation_batches else GraphRegistry
        registry = cls(max_batch=MAX_BATCH)
        for gname, n, gseed in s.graphs:
            registry.add(
                gname, hybrid_pattern(n, seed=gseed),
                device=GTX1080, tile_dim=TILE_DIM,
            )
        state = {
            "registry": registry, "stream": inputs["stream"],
            "mutations": inputs["mutations"], "pool": None, "spawn_s": 0.0,
            "router": Router(registry, n_servers=N_SERVERS),
        }
        if s.processes:
            state["pool"], state["spawn_s"] = self._start_pool(registry)
        return state

    def _start_pool(self, registry) -> tuple[Any, float]:
        """Spawn the workers and wait until each one has answered a
        launch, so spawn and import cost lands in set-up, not in the
        first timed drain."""
        from repro.serving import LaunchSpec, WorkerPool

        t0 = _clock()
        pool = WorkerPool(registry, processes=self.spec.processes)
        entry = registry[registry.names[0]]
        for sid in range(self.spec.processes):
            pool.submit(sid, LaunchSpec(
                batch_id=pool.next_batch_id(), graph=entry.name,
                version=entry.version, kind="bfs", sources=(0,), width=1,
            ))
        ready = pool.drain()
        errors = [r.error for r in ready.values() if r.error is not None]
        if errors or len(ready) != self.spec.processes:
            pool.close()
            raise RuntimeError(f"workers failed their first launch: {errors}")
        return pool, _clock() - t0

    def run(self, state: dict) -> Any:
        return state["router"].run(
            state["stream"], placement=PLACEMENT, verify=self.spec.verify,
            mutations=state["mutations"] or None,
            data_plane=state["pool"],
        )

    def teardown(self, state: dict) -> dict[str, float]:
        """Stop the workers; returns worker peak RSS and leaked
        segment count (shm only)."""
        pool = state["pool"]
        if pool is None:
            return {}
        from repro.formats.shm import SEGMENT_PREFIX, list_segments

        pool.close()
        mine = f"{SEGMENT_PREFIX}{os.getpid():x}-"
        leaked = [n for n in (list_segments() or []) if n.startswith(mine)]
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"leaked_segments": float(len(leaked)),
                "serving.parallel.worker_rss_mb": child_kb / 1024.0}

    def collect(self, state: dict, out: Any, tr: Tracer) -> Pass:
        outcomes, rep = out
        failed = sum(o.failed for o in outcomes)
        answers = [
            ((o.arrival.graph, o.version, o.arrival.kind, o.arrival.source),
             o.result)
            for o in outcomes if o.result is not None
        ]
        layer = {
            "serving.cluster.mean_queue_ms": rep.mean_queue_ms,
            "serving.cluster.requeues": float(rep.requeues),
            "serving.cluster.batches": float(rep.batches),
            "serving.batcher.mean_width": rep.mean_batch_width,
            "serving.parallel.spawn_s": state["spawn_s"],
        }
        iterations = tr.counts.get("flush_iterations", 0.0)
        if state["pool"] is not None:
            plane = rep.extra["data_plane"]
            samples, overheads = _pool_service_ms(tr, plane["launches"])
            iterations = float(sum(r["iterations"] for r in plane["launches"]))
            layer.update({
                "serving.parallel.launches": float(len(plane["launches"])),
                "serving.parallel.reexecutions": float(plane["reexecutions"]),
                "serving.parallel.worker_wall_s": plane["wall_ms_total"] / 1e3,
                "serving.parallel.overhead_ms_per_launch": (
                    float(np.median(overheads)) if overheads else 0.0
                ),
            })
        else:
            samples = list(tr.samples["query_wall_ms"])
        if rep.extra["swaps"]:
            layer["formats.delta.rebuilt_fraction"] = float(np.mean(
                [sw.rebuilt_fraction for sw in rep.extra["swaps"]]
            ))
        return Pass(
            setups=[], wall_s=0.0, attempted=len(outcomes), failed=failed,
            query_wall_ms=samples,
            fingerprint={
                "modeled_ms": rep.makespan_ms,
                "slo_attainment": rep.slo_attainment,
                "batches": float(rep.batches),
                "swaps": float(rep.swaps),
                "iterations": iterations,
            },
            answers=answers, layer=layer,
        )

    def reference_graphs(self, state: dict) -> dict:
        """``(graph, version) -> (Graph, BitEngine, cc BitEngine)``
        for every epoch the pass served."""
        reg = state["registry"]
        out = {}
        for gname in reg.names:
            chain = reg.history(gname) if reg.versioned else (reg[gname],)
            for e in chain:
                out[(gname, e.version)] = (e.graph, e.engine, e.cc_engine)
        return out


def _pool_service_ms(
    tr: Tracer, launches: list[dict]
) -> tuple[list[float], list[float]]:
    """Per-query wall service time on the worker data plane.

    A worker serves its queue in FIFO order, so a launch starts at the
    later of its submission and the parent's receipt of the previous
    launch on the same worker; its service time is receipt minus that
    start: the in-worker wall plus the transport round trip.  Receipts
    are only observed while the parent is blocked in ``drain``; a
    launch that finished before the drain began is charged its
    in-worker wall alone (never less).  Returns per-query samples and
    the per-launch overhead (service minus in-worker wall) of launches
    whose timing was fully observed."""
    submit, receipt = tr.marks["submit"], tr.marks["receipt"]
    drain0 = min(tr.samples["drain_start"], default=0.0)
    by_worker: dict[int, list[dict]] = {}
    for row in launches:
        by_worker.setdefault(submit[row["batch_id"]][1], []).append(row)
    samples: list[float] = []
    overheads: list[float] = []
    for rows in by_worker.values():
        rows.sort(key=lambda r: submit[r["batch_id"]][0])
        prev = -np.inf
        for row in rows:
            bid = row["batch_id"]
            start = max(submit[bid][0], prev)
            wall = row["wall_ms"]
            rt_ms = (receipt[bid] - start) * 1e3
            if start >= drain0:
                overheads.append(rt_ms - wall)
            samples.extend([max(rt_ms, wall)] * row["width"])
            prev = receipt[bid]
    return samples, overheads


SERVE_SSSP_MIXED = ServeSpec(
    name="serve-sssp-mixed",
    why=(
        "3 graphs, sssp-heavy mix served in process: the min-plus "
        "multi-vector kernel is most of the wall time, so kernel work "
        "shows here"
    ),
    graphs=(("g0", 512, 4), ("g1", 512, 9), ("g2", 512, 14)),
    requests=300, rate_qps=20000.0, mix=(0.35, 0.55, 0.10),
    seeded_sources=False,
)
SERVE_BFS_DEEP = ServeSpec(
    name="serve-bfs-deep",
    why=(
        "BFS only on a deep 2048-vertex graph: bound by the per-level "
        "round loop (packing, bitwise kernel, cost model); the "
        "min-plus kernel never runs"
    ),
    graphs=(("g0", 2048, 4),),
    requests=640, rate_qps=100000.0, mix=(1.0, 0.0, 0.0),
)
SERVE_CHURN_SHM = ServeSpec(
    name="serve-churn-shm",
    why=(
        "reads beside 16 epoch swaps on 2 real shm worker processes "
        "with verify=True: delta rebuild, publish/retire, transport "
        "and verification"
    ),
    graphs=(("g0", 512, 4), ("g1", 512, 9)),
    requests=600, rate_qps=20000.0, mix=(0.5, 0.4, 0.1),
    processes=2, verify=True, mutation_batches=8, seeded_sources=False,
)


# ----------------------------------------------------------------------
# Paper algorithms (Table VII matrices)
# ----------------------------------------------------------------------
class PaperWorkload:
    """Table VII's 16 matrices × B2SR-{4,8,16,32} × {BFS, SSSP, PR, CC,
    TC} on the bit backend, paper-faithful (``skip_inactive=False``),
    one seeded source per matrix."""

    name = "paper-algos"
    why = (
        "Table VII matrices x B2SR-4..32 x BFS/SSSP/PR/CC/TC: the "
        "only load on k=1 kernels, the arithmetic semiring, bmm and "
        "tile size"
    )

    def prepare(self, seed: int) -> dict:
        """One seeded source per matrix, within one hop of the
        eccentricity of vertex 0 (Table VII's source); up to
        :data:`PAPER_CANDIDATES` seeded candidates are tried."""
        from repro.datasets.named import load_named

        rng = np.random.default_rng(seed)
        sources = {}
        for mname in TABLE7_MATRICES:
            g = load_named(mname, cached=False)
            cand = rng.permutation(g.n)[:PAPER_CANDIDATES]
            ecc = eccentricities(g, np.concatenate(([0], cand)))
            near = cand[np.abs(ecc[1:] - ecc[0]) <= 1]
            sources[mname] = int(near[0]) if near.size else 0
        return {"sources": sources}

    def setup(self, inputs: dict) -> dict:
        from repro.datasets.named import load_named
        from repro.engines import BitEngine
        from repro.gpusim import GTX1080

        cells = []
        graphs = {}
        for mname in TABLE7_MATRICES:
            g = load_named(mname, cached=False)
            sym = g.symmetrized()
            source = inputs["sources"][mname]
            graphs[mname] = (g, sym)
            for d in PAPER_TILES:
                eng = BitEngine(g, device=GTX1080, tile_dim=d,
                                skip_inactive=False)
                sym_eng = BitEngine(sym, device=GTX1080, tile_dim=d,
                                    skip_inactive=False)
                eng.warm_plans((1,))
                sym_eng.warm_plans((1,))
                for alg in PAPER_ALGOS:
                    e = sym_eng if alg in ("CC", "TC") else eng
                    cells.append((mname, d, alg, source, e))
        return {"cells": cells, "graphs": graphs, "pool": None}

    def run(self, state: dict) -> list:
        from repro import algorithms
        from repro.algorithms import tc

        fns = {
            "BFS": lambda e, s: algorithms.bfs(e, s),
            "SSSP": lambda e, s: algorithms.sssp(e, s),
            "PR": lambda e, s: algorithms.pagerank(e),
            "CC": lambda e, s: algorithms.connected_components(e),
            "TC": lambda e, s: tc.triangle_count(e),
        }
        out = []
        for mname, d, alg, source, eng in state["cells"]:
            t0 = _clock()
            ans, rep = fns[alg](eng, source)
            out.append((mname, d, alg, source, ans, rep, _clock() - t0))
        return out

    def teardown(self, state: dict) -> dict[str, float]:
        return {}

    def collect(self, state: dict, out: list, tr: Tracer) -> Pass:
        return Pass(
            setups=[], wall_s=0.0, attempted=len(out), failed=0,
            query_wall_ms=[r[6] * 1e3 for r in out],
            fingerprint={
                "modeled_ms": float(sum(r[5].algorithm_ms for r in out)),
                "slo_attainment": 1.0,
                "runs": float(len(out)),
                "iterations": float(sum(r[5].iterations for r in out)),
            },
            answers=[((m, d, alg, s), np.asarray(a))
                     for m, d, alg, s, a, _, _ in out],
        )


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(SERVE_SSSP_MIXED),
        ServeWorkload(SERVE_BFS_DEEP),
        ServeWorkload(SERVE_CHURN_SHM),
        PaperWorkload(),
    )
}
