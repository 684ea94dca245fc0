"""Engine accounting tests: stat accumulation, kernel-vs-algorithm rows,
direction optimization."""

from dataclasses import asdict

import numpy as np

from repro.algorithms import bfs
from repro.datasets.generators import (
    diagonal_pattern,
    dot_pattern,
    grid_graph,
)
from repro.engines import BitEngine, GraphBLASTEngine
from repro.gpusim import GTX1080, TITAN_V
from repro.semiring import ARITHMETIC


class TestAccounting:
    def test_reset_clears_stats(self):
        g = diagonal_pattern(128, seed=1)
        e = BitEngine(g)
        bfs(e, 0)
        assert e.algorithm_stats.launches > 0
        e.reset_stats()
        assert e.algorithm_stats.launches == 0
        assert e.kernel_stats.launches == 0

    def test_kernel_subset_of_algorithm(self):
        g = diagonal_pattern(128, seed=2)
        for Engine in (BitEngine, GraphBLASTEngine):
            e = Engine(g)
            _, rep = bfs(e, 0)
            assert (
                rep.kernel_stats.dram_bytes
                <= rep.algorithm_stats.dram_bytes
            )
            assert rep.kernel_stats.launches <= rep.algorithm_stats.launches

    def test_each_run_resets(self):
        g = diagonal_pattern(128, seed=3)
        e = BitEngine(g)
        _, r1 = bfs(e, 0)
        _, r2 = bfs(e, 0)
        assert r1.algorithm_stats.launches == r2.algorithm_stats.launches

    def test_pull_records_kernel_stats(self):
        g = diagonal_pattern(64, seed=4)
        e = BitEngine(g)
        e.pull(np.ones(g.n, dtype=np.float32), ARITHMETIC)
        assert e.kernel_stats.dram_bytes > 0

    def test_report_carries_device_and_backend(self):
        g = diagonal_pattern(64, seed=5)
        _, rep = bfs(BitEngine(g, device=TITAN_V), 0)
        assert rep.device is TITAN_V
        assert rep.backend == "bit"
        _, rep2 = bfs(GraphBLASTEngine(g), 0)
        assert rep2.backend == "graphblast"

    def test_kernel_ms_excludes_launch_overhead(self):
        """The kernel row is CUDA-event style: pure launch overhead must
        not appear in it."""
        g = diagonal_pattern(256, seed=6)
        e = BitEngine(g)
        _, rep = bfs(e, 0)
        from repro.gpusim.timing import time_ms

        with_launch = time_ms(rep.kernel_stats, rep.device)
        assert rep.kernel_ms < with_launch


class TestBitEngine:
    def test_tile_dim_configurable(self):
        g = diagonal_pattern(128, seed=7)
        for d in (4, 8, 16, 32):
            e = BitEngine(g, tile_dim=d)
            assert e.tile_dim == d
            depth, _ = bfs(e, 0)
            assert depth[0] == 0

    def test_frontier_expand_excludes_visited(self):
        g = grid_graph(8)
        e = BitEngine(g)
        frontier = np.zeros(g.n, dtype=bool)
        visited = np.zeros(g.n, dtype=bool)
        frontier[0] = visited[0] = True
        nxt = e.frontier_expand(frontier, visited)
        assert not nxt[0]
        assert nxt.sum() == 2  # grid corner has two neighbours


class TestLaunchPriceMemo:
    """The bit engine memoizes BMV launch prices per engine; the modeled
    stats must equal an unmemoized run field for field."""

    @staticmethod
    def _run_all(g, skip):
        from repro.algorithms import (
            connected_components,
            multi_source_bfs,
            multi_source_sssp,
            pagerank,
            sssp,
        )

        gs = g.symmetrized()
        e = BitEngine(g, tile_dim=8, skip_inactive=skip)
        es = BitEngine(gs, tile_dim=8, skip_inactive=skip)
        reports = []
        for run in (
            lambda: bfs(e, 0),
            lambda: sssp(e, 0),
            lambda: multi_source_bfs(e, np.arange(0, g.n, 5)),
            lambda: multi_source_sssp(e, np.arange(0, g.n, 5)),
            lambda: pagerank(e),
            lambda: connected_components(es),
            lambda: bfs(e, 3),  # repeat launches: all memo hits
        ):
            _, rep = run()
            reports.append((asdict(rep.kernel_stats),
                            asdict(rep.algorithm_stats)))
        return reports, e

    def test_memoized_stats_equal_unmemoized(self, monkeypatch):
        import repro.engines.bit as bit
        from repro.kernels import costmodel

        g = diagonal_pattern(160, bandwidth=3, seed=5)
        for skip in (False, True, "auto"):
            memo, e = self._run_all(g, skip)
            assert e._bmv_prices
            priced = dict(e._bmv_prices)
            with monkeypatch.context() as m:
                m.setattr(
                    bit, "bmv_stats",
                    lambda memo, *a, **kw: costmodel.bmv_stats(*a, **kw),
                )
                plain, _ = self._run_all(g, skip)
            assert memo == plain
            # Accumulating the memoized prices never mutated them.
            memo2, e2 = self._run_all(g, skip)
            assert memo2 == memo
            for key, stats in priced.items():
                scheme, k, value_bytes, active = key
                assert asdict(stats) == asdict(costmodel.bmv_stats(
                    e._At, scheme, e.device, locality=e._locality, k=k,
                    value_bytes=value_bytes, active_tiles=active,
                ))

    def test_hits_share_one_price(self):
        g = diagonal_pattern(160, bandwidth=3, seed=5)
        e = BitEngine(g, tile_dim=8, skip_inactive=False)
        bfs(e, 0)
        launches = e.kernel_stats.launches
        assert launches > 1
        assert len(e._bmv_prices) == 1
        assert e.kernel_stats is not next(iter(e._bmv_prices.values()))


class TestGraphBLASTEngine:
    def test_push_for_small_frontier(self):
        g = grid_graph(20)
        e = GraphBLASTEngine(g)
        frontier = np.zeros(g.n, dtype=bool)
        visited = np.zeros(g.n, dtype=bool)
        frontier[0] = visited[0] = True
        e.frontier_expand(frontier, visited)
        assert e.direction_log[-1] == "push"

    def test_pull_for_large_frontier(self):
        g = dot_pattern(256, 0.05, seed=8)
        e = GraphBLASTEngine(g, push_pull_ratio=0.01)
        frontier = np.ones(g.n, dtype=bool)
        visited = np.zeros(g.n, dtype=bool)
        e.frontier_expand(frontier, visited)
        assert e.direction_log[-1] == "pull"

    def test_direction_switch_during_bfs(self):
        """Direction optimization: a BFS from one vertex of a dense-ish
        graph starts push and flips to pull as the frontier balloons."""
        g = dot_pattern(512, 0.03, seed=9)
        e = GraphBLASTEngine(g, push_pull_ratio=0.05)
        bfs(e, 0)
        assert "push" in e.direction_log
        assert "pull" in e.direction_log

    def test_push_and_pull_give_same_frontier(self):
        g = dot_pattern(200, 0.04, seed=10)
        frontier = np.zeros(g.n, dtype=bool)
        frontier[[1, 5, 7]] = True
        visited = frontier.copy()
        push_e = GraphBLASTEngine(g, push_pull_ratio=1.0)  # always push
        pull_e = GraphBLASTEngine(g, push_pull_ratio=0.0)  # always pull
        a = push_e.frontier_expand(frontier, visited)
        b = pull_e.frontier_expand(frontier, visited)
        assert np.array_equal(a, b)


class TestCostOrdering:
    def test_bit_engine_beats_graphblast_on_banded(self):
        """The paper's central claim at engine level."""
        g = diagonal_pattern(1024, bandwidth=2, seed=11)
        _, rb = bfs(BitEngine(g, device=GTX1080), 0)
        _, rg = bfs(GraphBLASTEngine(g, device=GTX1080), 0)
        assert rg.algorithm_ms > rb.algorithm_ms
        assert rg.kernel_ms > rb.kernel_ms

    def test_volta_speeds_up_graphblast_tc_more_than_bit_tc(self):
        """§VI.E: on TC (the device-bound SpGEMM case, e.g. 3dtube's
        151.89 → 79.49 ms) the baseline gains substantially on Volta while
        Bit-GraphBLAS — leaning on the penalised _sync intrinsics — gains
        little or even slows down."""
        from repro.algorithms import triangle_count
        from repro.datasets.generators import block_pattern

        g = block_pattern(
            1024, block_size=32, n_blocks=40, seed=12, intra_density=0.6
        ).symmetrized()
        _, gp = triangle_count(GraphBLASTEngine(g, device=GTX1080))
        _, gv = triangle_count(GraphBLASTEngine(g, device=TITAN_V))
        _, bp = triangle_count(BitEngine(g, device=GTX1080))
        _, bv = triangle_count(BitEngine(g, device=TITAN_V))
        gblst_gain = gp.kernel_ms / gv.kernel_ms
        bit_gain = bp.kernel_ms / bv.kernel_ms
        assert gblst_gain > bit_gain
