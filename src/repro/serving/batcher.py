"""Request batching for the multi-vector kernel layer.

The serving pattern: clients submit independent queries against one graph;
the batcher groups them by kind, coalesces each group into a single
batched launch sequence (one kernel sweep per round, every query a column
of the ``(n, k)`` operand — striped across ``⌈k/d⌉`` word planes when the
group outgrows the tile word width), and hands each client its column.
Graph-global kinds (CC) coalesce by *deduplication* instead: one run
answers every rider.

Latency accounting uses the modeled cost reports: a coalesced query's
latency is its whole batch's modeled time (each client waits for the
batch), while the k-independent baseline charges every query its own full
single-run time.  Batching wins whenever the batched sweep is cheaper
than the sum of singles — which the multi-vector layer guarantees on the
bit backend because the matrix traffic is paid once per round instead of
once per query.

Exactness is a hard contract, not a best effort: ``flush(verify=True)``
re-runs every query standalone and raises if any coalesced answer is not
bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import (
    bfs,
    connected_components,
    multi_source_bfs,
    multi_source_sssp,
    sssp,
)
from repro.engines.base import Engine

#: Query kinds the batcher can coalesce.
KINDS = ("bfs", "sssp", "cc")


@dataclass(frozen=True)
class Query:
    """One client request: a query kind plus its source vertex (``None``
    for graph-global kinds like ``cc``)."""

    qid: int
    kind: str
    source: int | None


@dataclass
class QueryResult:
    """Answer for one query, with its latency accounting.

    ``batched_ms`` is the modeled latency of the coalesced batch the query
    rode (shared by every member — each client waits for the batch);
    ``baseline_ms`` is the query's own k-independent single-run latency
    (populated when the flush verified against singles, else ``None``).
    """

    query: Query
    result: np.ndarray
    batch_width: int
    batched_ms: float
    baseline_ms: float | None = None


@dataclass
class BatchReport:
    """Aggregate accounting for one coalesced launch group."""

    kind: str
    width: int
    iterations: int
    launches: int
    batched_ms: float
    singles_launches: int | None = None
    singles_ms: float | None = None
    verified: bool = False

    @property
    def speedup(self) -> float | None:
        """k-independent baseline time over batched time (≥ 1 when
        coalescing wins); ``None`` until singles were run."""
        if self.singles_ms is None:
            return None
        return self.singles_ms / max(self.batched_ms, 1e-12)


class QueryBatcher:
    """Accumulate queries and serve them in coalesced batched launches.

    Parameters
    ----------
    engine:
        Backend answering bfs/sssp queries (its graph is the serving
        graph).
    cc_engine:
        Backend for cc queries — CC is defined on the undirected view, so
        pass an engine over the symmetrized graph when the serving graph
        is directed (defaults to ``engine``).
    max_batch:
        Cap on one coalesced group's width; a kind with more pending
        queries is served in several batches of at most this width.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        cc_engine: Engine | None = None,
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.cc_engine = cc_engine if cc_engine is not None else engine
        self.max_batch = max_batch
        self._pending: list[Query] = []
        self._next_qid = 0

    # ------------------------------------------------------------------
    def warm(self, widths: tuple[int, ...] | None = None) -> None:
        """Pre-build the engines' kernel sweep plans for the batch widths
        this batcher launches (single queries and ``max_batch``-wide
        coalesced groups), so the first flush already runs against warm
        chunk tables and masked-gather indices.  Backends without plans (the
        CSR baseline engines) are a no-op."""
        if widths is None:
            widths = (1, self.max_batch)
        engines = {id(self.engine): self.engine}
        engines.setdefault(id(self.cc_engine), self.cc_engine)
        for eng in engines.values():
            warm = getattr(eng, "warm_plans", None)
            if callable(warm):
                warm(tuple(widths))

    # ------------------------------------------------------------------
    def submit(self, kind: str, source: int | None = None) -> int:
        """Queue one query; returns its id (the key into flush results)."""
        if kind not in KINDS:
            raise ValueError(f"unknown query kind {kind!r}; valid: {KINDS}")
        if kind == "cc":
            if source is not None:
                raise ValueError("cc queries are graph-global: source=None")
        else:
            n = self.engine.n
            if source is None or not 0 <= source < n:
                raise ValueError(
                    f"{kind} query needs a source in [0, {n}), got {source}"
                )
        qid = self._next_qid
        self._next_qid += 1
        self._pending.append(Query(qid, kind, source))
        return qid

    @property
    def pending(self) -> int:
        """Number of queued queries."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def flush(
        self, *, verify: bool = False, singles_cache: dict | None = None
    ) -> tuple[dict[int, QueryResult], list[BatchReport]]:
        """Serve every queued query; returns ``(results by qid, reports)``.

        Queries are grouped by kind (submission order preserved inside a
        group) and each group is served in batches of at most
        ``max_batch``.  With ``verify=True`` every query is additionally
        run standalone; a non-bitwise-identical coalesced answer raises
        ``AssertionError`` and the singles' cost becomes the reported
        k-independent baseline.

        ``singles_cache`` lets a caller flushing repeatedly (the online
        scheduler launches one flush per batch) memoize the standalone
        runs across flushes — valid because the engines are
        deterministic.
        """
        queries, self._pending = self._pending, []
        results: dict[int, QueryResult] = {}
        reports: list[BatchReport] = []
        # Standalone runs memoized by (kind, source): the engines are
        # deterministic, so duplicate requests verify against (and are
        # billed) one execution while each still pays its own baseline ms.
        if singles_cache is None:
            singles_cache = {}
        for kind in KINDS:
            group = [q for q in queries if q.kind == kind]
            for lo in range(0, len(group), self.max_batch):
                chunk = group[lo : lo + self.max_batch]
                reports.append(
                    self._serve(chunk, results, verify, singles_cache)
                )
        return results, reports

    # ------------------------------------------------------------------
    def _serve(
        self,
        chunk: list[Query],
        results: dict[int, QueryResult],
        verify: bool,
        singles_cache: dict,
    ) -> BatchReport:
        kind = chunk[0].kind
        k = len(chunk)
        if kind == "bfs":
            sources = np.array([q.source for q in chunk], dtype=np.int64)
            out, rep = multi_source_bfs(self.engine, sources)
        elif kind == "sssp":
            sources = np.array([q.source for q in chunk], dtype=np.int64)
            out, rep = multi_source_sssp(self.engine, sources)
        else:  # cc — graph-global, so every rider shares one answer:
            # coalescing degenerates to deduplication (compute once, fan
            # out), not a k-wide lockstep batch of identical columns.
            labels, rep = connected_components(self.cc_engine)
            out = np.broadcast_to(labels[:, None], (labels.shape[0], k))
        batched_ms = rep.algorithm_ms
        report = BatchReport(
            kind=kind,
            width=k,
            iterations=rep.iterations,
            launches=rep.kernel_stats.launches,
            batched_ms=batched_ms,
        )
        for j, q in enumerate(chunk):
            results[q.qid] = QueryResult(
                query=q,
                result=out[:, j].copy(),
                batch_width=k,
                batched_ms=batched_ms,
            )
        if verify:
            self._verify(chunk, results, report, singles_cache)
        return report

    def _verify(
        self,
        chunk: list[Query],
        results: dict[int, QueryResult],
        report: BatchReport,
        cache: dict,
    ) -> None:
        """Run each query standalone (one execution per distinct query —
        the engines are deterministic); enforce bitwise equality and
        record the k-independent baseline, which charges every request
        its own run even when it shares an execution."""
        singles_ms = 0.0
        singles_launches = 0
        for q in chunk:
            key = (q.kind, q.source)
            if key not in cache:
                if q.kind == "bfs":
                    cache[key] = bfs(self.engine, q.source)
                elif q.kind == "sssp":
                    cache[key] = sssp(self.engine, q.source)
                else:
                    cache[key] = connected_components(self.cc_engine)
            ref, rep1 = cache[key]
            got = results[q.qid].result
            assert np.array_equal(got, ref, equal_nan=True), (
                f"batched {q.kind} answer for query {q.qid} is not bitwise "
                "identical to its standalone run"
            )
            singles_ms += rep1.algorithm_ms
            singles_launches += rep1.kernel_stats.launches
            results[q.qid].baseline_ms = rep1.algorithm_ms
        report.singles_ms = singles_ms
        report.singles_launches = singles_launches
        report.verified = True
