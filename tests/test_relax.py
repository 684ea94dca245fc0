"""Changed-set relaxation: ``bmv_bin_full_full_relax`` and
``Engine.relax`` / ``relax_multi``.

The contract under test: pushing from the changed ``(vertex, column)``
pairs gives, bit for bit, the pull ``add(X, A ⊕.⊗ X)`` — against the
planless seed kernel and the plan-backed pull, on either route, with the
tile sweep's counters — and SSSP on the push route reports exactly what
it reported on the pull.
"""

import math

import numpy as np
import pytest

from repro.algorithms import multi_source_sssp, sssp
from repro.datasets.generators import hybrid_pattern
from repro.engines import BitEngine
from repro.engines.base import Engine
from repro.engines.graphblast import GraphBLASTEngine
from repro.formats.convert import b2sr_from_dense
from repro.graph import Graph
from repro.kernels import bmv, planless
from repro.semiring import MAX_TIMES, MIN_PLUS, MIN_SECOND

DIMS = (4, 8, 16, 32)
WIDTHS = (1, 3, 33, 64, 65)
N = 77  # not a multiple of any tile dim

#: ``_RELAX_PUSH_SHARE`` values that force a route (``"auto"`` keeps the
#: measured threshold).
ROUTES = {
    "auto": bmv._RELAX_PUSH_SHARE, "push": math.inf, "pull": -math.inf,
}


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    u = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a.view(u), b.view(u))


def edge_cases_dense(n: int = N, seed: int = 0) -> np.ndarray:
    """A sparse random 0/1 matrix with self-loops on every third vertex
    and five isolated vertices (no in- or out-edges)."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.06).astype(np.float32)
    loops = np.arange(0, n, 3)
    dense[loops, loops] = 1.0
    dense[10:15, :] = 0.0
    dense[:, 10:15] = 0.0
    return dense


def pull_relax(A, X, s):
    """The reference round: the planless seed pull folded into X."""
    return s.add(X, planless.bmv_bin_full_full_multi(A, X, s))


def improved(s, new, old):
    return new < old if s.add is np.minimum else new > old


def initial(s, k: int, seed: int) -> np.ndarray:
    """Round-one operand: identity everywhere but vertex 0 and a few
    random entries per column (min-plus: sources at 0; the others:
    random labels), with column 0 all identity when ``k > 1``."""
    rng = np.random.default_rng(seed)
    X = np.full((N, k), s.zero, dtype=np.float32)
    for j in range(k):
        seeds = np.append(rng.choice(N, j % 4, replace=False), 0)
        X[seeds, j] = (
            0.0 if s is MIN_PLUS else rng.integers(1, 50, seeds.size)
        )
    if k > 1:
        X[:, 0] = s.zero
    return X


def run_rounds(A, s, X, *, skip, rounds=60):
    """Iterate the relaxation to its fixed point, checking every round
    against the pull; returns the number of rounds."""
    C = X != s.zero
    for r in range(rounds):
        want = pull_relax(A, X, s)
        c_pull: dict = {}
        pulled = s.add(
            X, bmv.bmv_bin_full_full_multi(
                A, X, s, skip=skip, counters=c_pull
            ),
        )
        c_relax: dict = {}
        got = bmv.bmv_bin_full_full_relax(
            A, X, C, s, skip=skip, counters=c_relax
        )
        assert bitwise_equal(pulled, want)
        assert bitwise_equal(got, want), f"round {r}"
        assert c_relax == c_pull
        C = improved(s, got, X)
        if not C.any():
            return r + 1
        X = got
    return rounds


class TestRelaxKernel:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("skip", (False, True))
    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("d", DIMS)
    def test_min_plus_rounds_equal_pull(self, d, k, skip, route, monkeypatch):
        """Bellman-Ford rounds from a few sources per column (one column
        all +inf) over a matrix with isolated vertices and self-loops:
        every round equals the planless pull and the plan-backed pull
        bit for bit, with the pull's counters."""
        monkeypatch.setattr(bmv, "_RELAX_PUSH_SHARE", ROUTES[route])
        A = b2sr_from_dense(edge_cases_dense(seed=d + k), d)
        assert run_rounds(A, MIN_PLUS, initial(MIN_PLUS, k, d * k),
                          skip=skip) > 1

    @pytest.mark.parametrize("route", ("push", "pull"))
    @pytest.mark.parametrize("s", (MIN_SECOND, MAX_TIMES),
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("d", DIMS)
    def test_other_min_max_semirings(self, d, s, route, monkeypatch):
        monkeypatch.setattr(bmv, "_RELAX_PUSH_SHARE", ROUTES[route])
        A = b2sr_from_dense(edge_cases_dense(seed=d), d)
        for k in (1, 33):
            run_rounds(A, s, initial(s, k, d + k), skip=True)

    @pytest.mark.parametrize("route", ("push", "pull"))
    @pytest.mark.parametrize("d", DIMS)
    def test_route_taken(self, d, route, monkeypatch):
        """The forced route is the one that runs on clean operands."""
        monkeypatch.setattr(bmv, "_RELAX_PUSH_SHARE", ROUTES[route])
        calls = []
        for name in ("_relax_push", "_set_bit_sweep"):
            real = getattr(bmv, name)
            monkeypatch.setattr(
                bmv, name,
                lambda *a, _n=name, _f=real: (calls.append(_n), _f(*a)),
            )
        A = b2sr_from_dense(edge_cases_dense(seed=d), d)
        X = initial(MIN_PLUS, 3, d)
        bmv.bmv_bin_full_full_relax(A, X, X != np.inf, MIN_PLUS)
        want = "_relax_push" if route == "push" else "_set_bit_sweep"
        assert calls == [want]

    def test_dense_changed_set_pulls(self, monkeypatch):
        """A changed set holding every stored bit takes the pull at the
        measured threshold; a one-vertex set pushes."""
        calls = []
        real = bmv._relax_push
        monkeypatch.setattr(
            bmv, "_relax_push",
            lambda *a: (calls.append("push"), real(*a)),
        )
        A = b2sr_from_dense(edge_cases_dense(), 8)
        X = np.zeros((N, 2), dtype=np.float32)
        bmv.bmv_bin_full_full_relax(A, X, np.ones_like(X, bool), MIN_PLUS)
        assert calls == []
        C = np.zeros_like(X, bool)
        C[0, 1] = True
        bmv.bmv_bin_full_full_relax(A, X, C, MIN_PLUS)
        assert calls == ["push"]

    @pytest.mark.parametrize("flags", (
        dict(nan=True, neg_zero=False),
        dict(nan=False, neg_zero=True),
        dict(nan=True, neg_zero=True),
    ), ids=("nan", "neg-zero", "both"))
    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("d", DIMS)
    def test_nan_and_negative_zero_take_the_pull(
        self, d, k, flags, monkeypatch
    ):
        """Operands salted with NaN payloads or -0.0 fall back to the
        tile sweep even with the push forced, and keep its bits."""
        monkeypatch.setattr(bmv, "_RELAX_PUSH_SHARE", math.inf)

        def no_push(*a):
            raise AssertionError("pushed a NaN / -0.0 operand")

        monkeypatch.setattr(bmv, "_relax_push", no_push)
        A = b2sr_from_dense(edge_cases_dense(seed=d), d)
        rng = np.random.default_rng(d * k)
        for s in (MIN_PLUS, MAX_TIMES):
            X = (rng.standard_normal((N, k)) * 4).astype(np.float32)
            salt = rng.random((N, k)) < 0.2
            if flags["nan"]:
                X[salt] = np.array(0x7FC00001, np.uint32).view(np.float32)
            if flags["neg_zero"]:
                X[rng.random((N, k)) < 0.2] = -0.0
            with np.errstate(invalid="ignore"):
                got = bmv.bmv_bin_full_full_relax(
                    A, X, np.ones_like(X, bool), s
                )
                want = pull_relax(A, X, s)
            assert bitwise_equal(got, want)

    def test_empty_matrix_and_empty_batch(self):
        A = b2sr_from_dense(np.zeros((20, 20), dtype=np.float32), 8)
        X = np.arange(40, dtype=np.float32).reshape(20, 2)
        counters: dict = {}
        got = bmv.bmv_bin_full_full_relax(
            A, X, X > 5, MIN_PLUS, counters=counters
        )
        assert bitwise_equal(got, X)
        assert counters == {"active_tiles": 0.0, "tile_visits": 0.0}
        B = b2sr_from_dense(edge_cases_dense(), 8)
        empty = np.zeros((N, 0), dtype=np.float32)
        assert bmv.bmv_bin_full_full_relax(
            B, empty, empty != 0, MIN_PLUS
        ).shape == (N, 0)
        no_words = np.zeros((B.n_tile_cols, 0), dtype=B.tiles.dtype)
        assert bmv.bmv_bin_bin_full_multi(B, no_words).shape == (N, 0)

    def test_operand_validation(self):
        A = b2sr_from_dense(edge_cases_dense(), 8)
        X = np.zeros((N, 2), dtype=np.float32)
        C = np.zeros((N, 2), dtype=bool)
        with pytest.raises(ValueError, match="changed"):
            bmv.bmv_bin_full_full_relax(A, X, C[:, :1], MIN_PLUS)
        with pytest.raises(ValueError, match="changed"):
            bmv.bmv_bin_full_full_relax(A, X, C.astype(np.uint8), MIN_PLUS)
        with pytest.raises(ValueError, match="vectors"):
            bmv.bmv_bin_full_full_relax(A, X[:, 0], C[:, 0], MIN_PLUS)
        rect = b2sr_from_dense(np.ones((N, N + 3), dtype=np.float32), 8)
        X3 = np.zeros((N + 3, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="square"):
            bmv.bmv_bin_full_full_relax(rect, X3, X3 != 0, MIN_PLUS)


# ---------------------------------------------------------------------------
# Engines and SSSP
# ---------------------------------------------------------------------------
class PullBitEngine(BitEngine):
    """The bit engine relaxing through the base-class default
    ``min(x, pull(x))`` — the pull SSSP ran before the push route."""

    relax = Engine.relax
    relax_multi = Engine.relax_multi


def edge_case_graph() -> Graph:
    """150 vertices (not a multiple of 8 or 32): self-loops on every
    fourth vertex, vertices 40–47 isolated."""
    rng = np.random.default_rng(5)
    dense = (rng.random((150, 150)) < 0.02).astype(np.float32)
    dense[np.arange(0, 150, 4), np.arange(0, 150, 4)] = 1.0
    dense[40:48, :] = 0.0
    dense[:, 40:48] = 0.0
    return Graph.from_dense(dense)


class TestEngineRelax:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("skip_inactive", (True, False, "auto"))
    @pytest.mark.parametrize("d", (8, 32))
    def test_sssp_reports_equal_pull(self, d, skip_inactive, route,
                                     monkeypatch):
        """``sssp`` and ``multi_source_sssp`` give the pull's distances,
        ``EngineReport`` (field for field) and auto dense rounds."""
        monkeypatch.setattr(bmv, "_RELAX_PUSH_SHARE", ROUTES[route])
        for g in (hybrid_pattern(150, seed=2), edge_case_graph()):
            push = BitEngine(g, tile_dim=d, skip_inactive=skip_inactive)
            pull = PullBitEngine(g, tile_dim=d, skip_inactive=skip_inactive)
            runs = [lambda e, s=s: sssp(e, s) for s in (0, 41, 149)]
            runs += [
                lambda e, k=k: multi_source_sssp(
                    e, np.random.default_rng(k).integers(0, g.n, k)
                )
                for k in (1, 3, 33, 65)
            ]
            for run in runs:
                got, rep = run(push)
                want, ref = run(pull)
                assert bitwise_equal(got, want)
                assert rep == ref
                assert push.auto_dense_rounds == pull.auto_dense_rounds

    def test_single_and_batched_keep_their_own_skip_history(self):
        """``relax`` keeps ``pull``'s "auto" history, ``relax_multi``
        ``pull_multi``'s: a fully active batched round does not make
        the next single-vector round dense."""
        g = hybrid_pattern(150, seed=2)
        e = BitEngine(g, tile_dim=16)
        X = np.ones((g.n, 3), dtype=np.float32)
        C = np.ones_like(X, dtype=bool)
        e.relax_multi(X, C, MIN_PLUS)
        e.relax_multi(X, C, MIN_PLUS)
        assert e.auto_dense_rounds == 1
        e.relax(X[:, 0], C[:, 0], MIN_PLUS)
        assert e.auto_dense_rounds == 1
        e.pull(X[:, 0], MIN_PLUS)
        assert e.auto_dense_rounds == 2

    @pytest.mark.parametrize("engine_cls", (BitEngine, GraphBLASTEngine))
    def test_relax_equals_min_of_pull(self, engine_cls):
        g = hybrid_pattern(150, seed=2)
        x = np.full(g.n, np.inf, dtype=np.float32)
        x[[0, 7]] = 0.0
        e = engine_cls(g)
        want = np.minimum(x, e.pull(x, MIN_PLUS))
        got = e.relax(x, np.isfinite(x), MIN_PLUS)
        assert bitwise_equal(got, want)
        X = np.stack([x, x[::-1]], axis=1)
        want = np.minimum(X, e.pull_multi(X, MIN_PLUS))
        assert bitwise_equal(
            e.relax_multi(X, np.isfinite(X), MIN_PLUS), want
        )

    @pytest.mark.parametrize("engine_cls", (BitEngine, GraphBLASTEngine))
    def test_relax_validation(self, engine_cls):
        g = hybrid_pattern(64, seed=1)
        e = engine_cls(g)
        x = np.zeros(g.n, dtype=np.float32)
        with pytest.raises(ValueError):
            e.relax(x, np.zeros(g.n - 1, dtype=bool), MIN_PLUS)
        with pytest.raises(ValueError):
            e.relax(x, np.zeros(g.n, dtype=np.int8), MIN_PLUS)
        with pytest.raises(ValueError):
            e.relax_multi(x, np.zeros(g.n, dtype=bool), MIN_PLUS)
        with pytest.raises(ValueError):
            e.relax(x[:, None], np.zeros((g.n, 1), dtype=bool), MIN_PLUS)
