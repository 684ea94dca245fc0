"""Untimed correctness oracle.

Every answer of every pass is checked against an exact expectation
computed independently with ``scipy.sparse.csgraph``: BFS depths and
unit-weight SSSP distances are hop distances, and CC labels are the
smallest vertex id of each component.  A seeded sample of distinct
serving queries is also re-run standalone (``bfs``/``sssp``/
``connected_components`` on the epoch's own engines) and must match the
served answer bitwise.  For the paper workload, PR must agree with the
GraphBLAST engine within tolerance and TC counts exactly.  A wrong
answer counts as a failed query.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

#: Distinct serving queries re-run standalone per workload run.
STANDALONE_SAMPLE = 24
#: PageRank agreement with the GraphBLAST engine (float32 sums differ
#: in order between the backends).
PR_RTOL, PR_ATOL = 1e-4, 1e-7


def _scipy(graph) -> csr_matrix:
    csr = graph.csr
    n = graph.n
    return csr_matrix(
        (np.ones(csr.indices.shape[0]), csr.indices, csr.indptr),
        shape=(n, n),
    )


def hop_distances(graph, sources) -> np.ndarray:
    """Directed hop distance from each source (rows; +inf where
    unreachable)."""
    return np.atleast_2d(shortest_path(
        _scipy(graph), directed=True, unweighted=True,
        indices=np.asarray(sources, dtype=np.int64)))


def _hops(graph, sources: list[int]) -> dict[int, np.ndarray]:
    return dict(zip(sources, hop_distances(graph, sources), strict=True))


def _cc_labels(graph) -> np.ndarray:
    _, comp = connected_components(_scipy(graph), directed=False)
    low = np.full(comp.max() + 1, graph.n, dtype=np.int64)
    np.minimum.at(low, comp, np.arange(graph.n, dtype=np.int64))
    return low[comp]


def _expected(kind: str, hops: np.ndarray) -> np.ndarray:
    """BFS depth (-1: unreachable) or unit-weight SSSP distance."""
    if kind == "bfs":
        return np.where(np.isinf(hops), -1, hops).astype(np.int64)
    return hops.astype(np.float32)


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(got, want)


class Oracle:
    """Checks one benchmark run's passes; holds the cached expectations."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._expect: dict[tuple, np.ndarray] = {}
        self.standalone_checked = 0
        self.problems: list[str] = []

    # -- serving -------------------------------------------------------
    def check_serving(self, state: dict, answers: list, first: bool) -> int:
        graphs = self.workload.reference_graphs(state)
        need: dict[tuple, set[int]] = {}
        for (gname, ver, kind, src), _ in answers:
            key = (gname, ver, kind, src)
            if key not in self._expect and kind != "cc":
                need.setdefault((gname, ver), set()).add(int(src))
        for (gname, ver), srcs in need.items():
            order = sorted(srcs)
            for src, hops in _hops(graphs[(gname, ver)][0], order).items():
                for kind in ("bfs", "sssp"):
                    self._expect[(gname, ver, kind, src)] = _expected(
                        kind, hops)
        wrong = 0
        for (gname, ver, kind, src), got in answers:
            key = (gname, ver, kind, src)
            if key not in self._expect:
                self._expect[key] = _cc_labels(graphs[(gname, ver)][0])
            if not _same(got, self._expect[key]):
                wrong += 1
                self._note(f"{key}: served answer differs from scipy")
        if first:
            wrong += self._standalone(graphs, answers)
        return wrong

    def _standalone(self, graphs: dict, answers: list) -> int:
        from repro.algorithms import bfs, connected_components, sssp

        distinct: dict[tuple, np.ndarray] = {}
        for key, got in answers:
            distinct.setdefault(key, got)
        keys = sorted(distinct, key=repr)
        rng = np.random.default_rng(self.seed)
        pick = [k for k in keys if k[2] == "cc"]
        rest = [k for k in keys if k[2] != "cc"]
        take = min(STANDALONE_SAMPLE, len(rest))
        pick += [rest[i] for i in sorted(rng.choice(len(rest), take,
                                                    replace=False))]
        wrong = 0
        for key in pick:
            gname, ver, kind, src = key
            _, engine, cc_engine = graphs[(gname, ver)]
            if kind == "bfs":
                ref, _ = bfs(engine, src)
            elif kind == "sssp":
                ref, _ = sssp(engine, src)
            else:
                ref, _ = connected_components(cc_engine)
            self.standalone_checked += 1
            if not _same(distinct[key], ref):
                wrong += 1
                self._note(f"{key}: served answer differs from standalone")
            if not _same(ref, self._expect[key]):
                wrong += 1
                self._note(f"{key}: standalone answer differs from scipy")
        return wrong

    # -- paper algorithms ----------------------------------------------
    def check_paper(self, state: dict, answers: list) -> int:
        from repro.algorithms import pagerank
        from repro.algorithms.tc import triangle_count
        from repro.engines import GraphBLASTEngine
        from repro.gpusim import GTX1080

        wrong = 0
        for (mname, d, alg, src), got in answers:
            g, sym = state["graphs"][mname]
            key = (mname, alg, src)
            if key not in self._expect:
                if alg in ("BFS", "SSSP"):
                    hops = _hops(g, [src])[src]
                    want = _expected(alg.lower(), hops)
                elif alg == "CC":
                    want = _cc_labels(sym)
                elif alg == "PR":
                    want, _ = pagerank(GraphBLASTEngine(g, device=GTX1080))
                else:
                    want, _ = triangle_count(
                        GraphBLASTEngine(sym, device=GTX1080))
                    want = np.asarray(want)
                self._expect[key] = want
            want = self._expect[key]
            ok = (
                np.allclose(got, want, rtol=PR_RTOL, atol=PR_ATOL)
                if alg == "PR" else _same(got, want)
            )
            if not ok:
                wrong += 1
                self._note(f"{(mname, d, alg, src)}: wrong answer")
        return wrong

    def check(self, state: dict, answers: list, first: bool) -> int:
        """Count the wrong answers of one pass (``first``: also re-run
        the standalone sample)."""
        if self.workload.name == "paper-algos":
            return self.check_paper(state, answers)
        return self.check_serving(state, answers, first)

    def _note(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)
