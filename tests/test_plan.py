"""Tests for the kernel sweep-plan subsystem (kernels/plan.py).

The contract under test: every plan-backed kernel — warm or cold, dense
or active-tile skip — returns results *bitwise identical* to the
preserved planless seed kernels, across all schemes × semirings × tile
dims × batch widths; plans are memoized per matrix and can never go
stale because B2SR is immutable.
"""

import numpy as np
import pytest

import repro.bitops.packing as packing_mod
from repro.bitops.packing import pack_bitmatrix, pack_bitvector
from repro.bitops.segreduce import (
    SequentialFoldPlan,
    segment_sum_sequential,
)
from repro.datasets.generators import diagonal_pattern
from repro.engines import BitEngine
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.kernels import bmv, planless
from repro.kernels.costmodel import bmv_stats
from repro.kernels.plan import SweepPlan, value_activity, word_activity
from repro.gpusim.device import GTX1080
from repro.semiring import (
    ARITHMETIC,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SECOND,
    SEMIRINGS,
)


def build(n=77, d=8, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(np.float32)
    return b2sr_from_dense(dense, d), dense, rng


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        u = np.dtype(f"u{a.dtype.itemsize}")
        return np.array_equal(a.view(u), b.view(u))
    return np.array_equal(a, b)


# ----------------------------------------------------------------------
# Bitwise plan-vs-planless equality
# ----------------------------------------------------------------------
class TestBitwiseEquality:
    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize("skip", [False, True])
    def test_binary_schemes_all_widths(self, d, skip):
        A, dense, rng = build(n=77, d=d, seed=d)
        n = dense.shape[0]
        for k in (1, d, d + 1, 2 * d + 3):
            X = rng.random((n, k)) < 0.15
            XW = pack_bitmatrix(X, d)
            assert bitwise_equal(
                bmv.bmv_bin_bin_bin_multi(A, XW, skip=skip),
                planless.bmv_bin_bin_bin_multi(A, XW),
            )
            assert bitwise_equal(
                bmv.bmv_bin_bin_full_multi(A, XW, skip=skip),
                planless.bmv_bin_bin_full_multi(A, XW),
            )
            masks = rng.random((n, k)) < 0.5
            assert bitwise_equal(
                bmv.bmv_bin_bin_bin_multi_masked(
                    A, XW, masks, complement=True, skip=skip
                ),
                planless.bmv_bin_bin_bin_multi_masked(
                    A, XW, masks, complement=True
                ),
            )
        xw = pack_bitvector(rng.random(n) < 0.2, d)
        mask = rng.random(n) < 0.5
        assert bitwise_equal(
            bmv.bmv_bin_bin_bin(A, xw, skip=skip),
            planless.bmv_bin_bin_bin(A, xw),
        )
        assert bitwise_equal(
            bmv.bmv_bin_bin_full(A, xw, skip=skip),
            planless.bmv_bin_bin_full(A, xw),
        )
        assert bitwise_equal(
            bmv.bmv_bin_bin_bin_masked(A, xw, mask, skip=skip),
            planless.bmv_bin_bin_bin_masked(A, xw, mask),
        )
        assert bitwise_equal(
            bmv.bmv_bin_bin_full_masked(A, xw, mask, skip=skip),
            planless.bmv_bin_bin_full_masked(A, xw, mask),
        )

    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize(
        "semiring_name", sorted(SEMIRINGS), ids=lambda s: s
    )
    @pytest.mark.parametrize("skip", [False, True])
    def test_semiring_schemes_all_widths(self, d, semiring_name, skip):
        s = SEMIRINGS[semiring_name]
        A, dense, rng = build(n=77, d=d, seed=d + 100)
        n = dense.shape[0]
        for k in (1, d, d + 1, 2 * d + 3):
            X = (rng.standard_normal((n, k)) * 5).astype(np.float32)
            # Identity-heavy operands exercise the elision paths.
            X[rng.random((n, k)) < 0.6] = s.zero
            assert bitwise_equal(
                bmv.bmv_bin_full_full_multi(A, X, s, skip=skip),
                planless.bmv_bin_full_full_multi(A, X, s),
            )
        x = (rng.standard_normal(n) * 5).astype(np.float32)
        x[rng.random(n) < 0.6] = s.zero
        mask = rng.random(n) < 0.5
        assert bitwise_equal(
            bmv.bmv_bin_full_full(A, x, s, skip=skip),
            planless.bmv_bin_full_full(A, x, s),
        )
        assert bitwise_equal(
            bmv.bmv_bin_full_full_masked(A, x, mask, semiring=s, skip=skip),
            planless.bmv_bin_full_full_masked(A, x, mask, semiring=s),
        )

    @pytest.mark.parametrize("skip", [False, True])
    def test_float64_payloads_with_signed_zeros(self, skip):
        A, dense, rng = build(n=90, d=16, seed=5)
        x = rng.standard_normal(90)
        x[rng.random(90) < 0.5] = 0.0
        x[rng.random(90) < 0.2] = -0.0
        for s in SEMIRINGS.values():
            a = bmv.bmv_bin_full_full(A, x, s, skip=skip)
            b = planless.bmv_bin_full_full(A, x, s)
            assert a.dtype == np.float64
            assert bitwise_equal(a, b)

    def test_negative_zero_stays_active(self):
        # -0.0 equals +0.0 numerically but not bit-wise; the activity
        # test must keep it active or the first fold element would flip
        # sign bits (see value_activity).
        xpad = np.array([[0.0], [-0.0], [0.0], [0.0]], dtype=np.float32)
        act = value_activity(xpad, 4, 0.0)
        assert act.tolist() == [True]
        assert value_activity(
            np.zeros((4, 1), dtype=np.float32), 4, 0.0
        ).tolist() == [False]

    def test_chunked_matrices_hit_multiple_chunks(self, monkeypatch):
        monkeypatch.setattr(bmv, "_CHUNK_TILES", 3)
        A, dense, rng = build(n=130, d=8, density=0.15, seed=9)
        assert len(A.plan().chunks(1, row_aligned=True)) > 3
        x = rng.random(130).astype(np.float32)
        x[rng.random(130) < 0.5] = np.inf
        for skip in (False, True):
            assert bitwise_equal(
                bmv.bmv_bin_full_full(A, x, MIN_PLUS, skip=skip),
                planless.bmv_bin_full_full(A, x, MIN_PLUS),
            )


# ----------------------------------------------------------------------
# Set-bit execution (min/max semirings)
# ----------------------------------------------------------------------
SET_BIT_SEMIRINGS = (MIN_PLUS, MIN_SECOND, MAX_TIMES)

#: NaNs with distinct sign / payload bits (quiet and signalling).
_NAN_BITS = {
    np.float32: [0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001,
                 0xFF812345],
    np.float64: [0x7FF8000000000000, 0xFFF8000000000000,
                 0x7FF8000000000001, 0x7FF0000000000001,
                 0xFFF0000123456789],
}


def adversarial_operand(rng, shape, dt, *, nan=True, neg_zero=True):
    """Random values salted with ±0.0, ±inf and (optionally) NaNs of
    several bit patterns."""
    x = (rng.standard_normal(shape) * 4).astype(dt)
    specials = [np.dtype(dt).type(v) for v in (0.0, np.inf, -np.inf)]
    if neg_zero:
        specials.append(np.dtype(dt).type(-0.0))
    if nan:
        u = np.dtype(f"u{np.dtype(dt).itemsize}")
        specials.extend(np.array(_NAN_BITS[dt], dtype=u).view(dt))
    salt = rng.random(shape) < 0.35
    pick = rng.integers(0, len(specials), size=shape)
    x[salt] = np.array(specials, dtype=dt)[pick[salt]]
    return x


class TestSetBitExecution:
    @pytest.mark.parametrize("s", SET_BIT_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("d", (4, 8, 32))
    @pytest.mark.parametrize("dt", (np.float32, np.float64),
                             ids=("f32", "f64"))
    @pytest.mark.parametrize("skip", (False, True))
    @pytest.mark.parametrize("kind", ("1", "5", "d+1"))
    def test_adversarial_operands_bitwise(self, s, d, dt, skip, kind):
        """±0.0, NaN payloads and ±inf: operands with a NaN or -0.0 must
        take the dense path; the rest take the set-bit path — either
        way the answer is bit-identical to the planless reference."""
        k = {"1": 1, "5": 5, "d+1": d + 1}[kind]
        A, dense, rng = build(n=77, d=d, density=0.12, seed=d + k)
        for flags in (
            dict(nan=True, neg_zero=True),
            dict(nan=True, neg_zero=False),
            dict(nan=False, neg_zero=True),
            dict(nan=False, neg_zero=False),
        ):
            X = adversarial_operand(rng, (77, k), dt, **flags)
            x = X[:, 0]
            # Signalling NaNs raise "invalid" in min-plus's x + 1.
            with np.errstate(invalid="ignore"):
                got = bmv.bmv_bin_full_full_multi(A, X, s, skip=skip)
                want = planless.bmv_bin_full_full_multi(A, X, s)
                got1 = bmv.bmv_bin_full_full(A, x, s, skip=skip)
                want1 = planless.bmv_bin_full_full(A, x, s)
            assert got.dtype == np.dtype(dt)
            assert bitwise_equal(got, want), flags
            assert bitwise_equal(got1, want1), flags

    def test_path_choice(self):
        """Clean min/max operands build the set-bit index; NaN or -0.0
        operands and the arithmetic semiring never do."""
        for x_bad in (np.array([np.nan]), np.array([-0.0])):
            A, dense, rng = build(n=40, d=8, seed=3)
            x = np.ones(40, dtype=np.float32)
            x[7] = x_bad[0]
            bmv.bmv_bin_full_full(A, x, MIN_PLUS)
            bmv.bmv_bin_full_full(A, x, ARITHMETIC)
            assert A.plan().stats()["set_bits_cached"] == 0.0
        x[7] = 0.0
        bmv.bmv_bin_full_full(A, x, MIN_PLUS)
        assert A.plan().stats()["set_bits_cached"] == 1.0

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_index_matches_source_csr(self, d):
        """The (gather, starts, rows) triple is the CSR of the matrix
        the B2SR was built from: non-empty rows, their offsets and
        their sorted columns (self-loops and a ragged last tile
        included)."""
        A, dense, rng = build(n=77, d=d, density=0.1, seed=d)
        dense[np.arange(0, 77, 3), np.arange(0, 77, 3)] = 1.0
        A = b2sr_from_dense(dense, d)
        idx = A.plan().set_bits
        r, c = np.nonzero(dense)
        assert np.array_equal(idx.gather, c)
        assert np.array_equal(idx.rows, np.unique(r))
        assert np.array_equal(
            idx.starts, np.searchsorted(r, idx.rows, side="left")
        )
        assert A.plan().set_bits is idx
        for arr in (idx.gather, idx.starts, idx.rows):
            assert arr.dtype == np.int32
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_column_index_matches_source_csc(self, d):
        """The push route's (ptr, rows) pair is the CSC of the matrix
        the B2SR was built from, over every padded column; it is frozen
        ``int32`` and built by the first sliced launch, not by warm."""
        from repro.bitops.packing import pack_batch_words

        A, dense, rng = build(n=77, d=d, density=0.1, seed=d)
        dense[np.arange(0, 77, 3), np.arange(0, 77, 3)] = 1.0
        A = b2sr_from_dense(dense, d)
        plan = A.plan().warm((1, 64))
        assert plan.stats()["set_bit_columns_cached"] == 0.0
        frontier = np.zeros((77, 1), dtype=bool)
        frontier[5] = True
        words = pack_batch_words(frontier)
        bmv.bmv_bin_bin_bin_sliced_masked(A, words, 0 * words, 1)
        assert plan.stats()["set_bit_columns_cached"] == 1.0
        idx = plan.set_bit_columns
        c, r = np.nonzero(dense.T)
        padded = A.n_tile_cols * d
        assert np.array_equal(idx.rows, r)
        assert np.array_equal(
            idx.ptr, np.searchsorted(c, np.arange(padded + 1))
        )
        assert plan.set_bit_columns is idx
        for arr in (idx.ptr, idx.rows):
            assert arr.dtype == np.int32
            assert not arr.flags.writeable

    def test_empty_matrix_and_empty_rows(self):
        A = b2sr_from_dense(np.zeros((20, 20), dtype=np.float32), 8)
        x = np.arange(20, dtype=np.float32)
        assert bitwise_equal(
            bmv.bmv_bin_full_full(A, x, MIN_PLUS),
            planless.bmv_bin_full_full(A, x, MIN_PLUS),
        )
        dense = np.zeros((20, 20), dtype=np.float32)
        dense[5, 17] = 1.0
        A = b2sr_from_dense(dense, 8)
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        got = bmv.bmv_bin_full_full_multi(A, X, MAX_TIMES)
        assert bitwise_equal(
            got, planless.bmv_bin_full_full_multi(A, X, MAX_TIMES)
        )
        assert got[5].tolist() == [34.0, 35.0]

    @pytest.mark.parametrize("s", SET_BIT_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("d", (4, 8, 32))
    def test_counters_match_dense_sweep(self, s, d, monkeypatch):
        """active_tiles / tile_visits are what the tile sweep reports,
        for skip on and off, single and striped multi-plane launches."""
        A, dense, rng = build(n=77, d=d, density=0.12, seed=d)
        ops = []
        for k in (None, 1, 2 * d + 3):
            X = adversarial_operand(
                rng, (77,) if k is None else (77, k), np.float32,
                nan=False, neg_zero=False,
            )
            # An all-identity column block, so skip mode elides tiles.
            X[d:2 * d] = s.zero
            ops.append(X)

        def launch(X, skip):
            counters = {}
            kernel = (
                bmv.bmv_bin_full_full if X.ndim == 1
                else bmv.bmv_bin_full_full_multi
            )
            y = kernel(A, X, s, skip=skip, counters=counters)
            return y, counters

        fast = [launch(X, skip) for X in ops for skip in (False, True)]
        assert A.plan().stats()["set_bits_cached"] == 1.0
        monkeypatch.setattr(bmv, "_set_bit_exact", lambda s, x: False)
        slow = [launch(X, skip) for X in ops for skip in (False, True)]
        for (y1, c1), (y2, c2) in zip(fast, slow):
            assert bitwise_equal(y1, y2)
            assert c1 == c2
        assert any(c["active_tiles"] < c["tile_visits"] for _, c in slow)

    def test_engine_auto_mode_unchanged(self, monkeypatch):
        """skip_inactive="auto": the set-bit path leaves answers, the
        auto policy's dense rounds and the modeled stats untouched."""
        from dataclasses import asdict

        from repro.algorithms import (
            connected_components,
            multi_source_sssp,
            sssp,
        )

        g = diagonal_pattern(300, bandwidth=3, seed=4)
        gs = g.symmetrized()

        def runs():
            out = []
            for d in (8, 32):
                for alg, graph, arg in (
                    (sssp, g, (0,)),
                    (multi_source_sssp, g, (np.arange(0, 300, 7),)),
                    (connected_components, gs, ()),
                ):
                    e = BitEngine(graph, tile_dim=d, skip_inactive="auto")
                    res, rep = alg(e, *arg)
                    out.append((
                        res, asdict(rep.kernel_stats),
                        asdict(rep.algorithm_stats), e.auto_dense_rounds,
                    ))
            return out

        fast = runs()
        monkeypatch.setattr(bmv, "_set_bit_exact", lambda s, x: False)
        slow = runs()
        assert sum(r[3] for r in fast) > 0
        for a, b in zip(fast, slow):
            assert bitwise_equal(np.asarray(a[0]), np.asarray(b[0]))
            assert a[1:] == b[1:]


# ----------------------------------------------------------------------
# Plan reuse / warm-vs-cold
# ----------------------------------------------------------------------
class TestPlanReuse:
    def test_plan_is_memoized_per_matrix(self):
        A, _, _ = build()
        assert A.plan() is A.plan()
        B, _, _ = build(seed=1)
        assert A.plan() is not B.plan()

    def test_kernel_rejects_foreign_plan(self):
        A, _, rng = build()
        B, _, _ = build(seed=1)
        xw = pack_bitvector(rng.random(77) < 0.5, 8)
        with pytest.raises(ValueError, match="different matrix"):
            bmv.bmv_bin_bin_bin_multi(
                A, pack_bitmatrix(rng.random((77, 2)) < 0.5, 8),
                plan=B.plan(),
            )

    def test_warm_launch_does_not_reunpack(self, monkeypatch):
        """After one launch (or an explicit warm()), repeated launches
        never call unpack_bits_rowmajor again — the per-launch unpack was
        the seed kernels' dominant cost."""
        A, dense, rng = build(n=100, d=8, seed=3)
        x = rng.random(100).astype(np.float32)
        y0 = bmv.bmv_bin_full_full(A, x, ARITHMETIC)  # builds the plan

        calls = {"n": 0}
        real = packing_mod.unpack_bits_rowmajor

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        import repro.kernels.plan as plan_mod

        monkeypatch.setattr(plan_mod, "unpack_bits_rowmajor", counting)
        y1 = bmv.bmv_bin_full_full(A, x, ARITHMETIC)
        assert calls["n"] == 0
        assert bitwise_equal(y0, y1)

    def test_zero_budget_plan_still_bitwise(self):
        A, dense, rng = build(n=100, d=16, seed=4)
        plan = SweepPlan(A, bits_budget=0)
        x = rng.random(100).astype(np.float32)
        for skip in (False, True):
            got = bmv.bmv_bin_full_full(
                A, x, ARITHMETIC, plan=plan, skip=skip
            )
            assert bitwise_equal(got, planless.bmv_bin_full_full(A, x))
        assert plan.bits_cached_bytes == 0

    def test_warm_builds_state(self):
        A, _, _ = build(n=100, d=8, seed=6)
        plan = SweepPlan(A)
        st = plan.stats()
        assert st["chunk_tables"] == 0 and st["gather_cached"] == 0
        plan.warm((1, 8))
        st = plan.stats()
        assert st["chunk_tables"] >= 2
        assert st["gather_cached"] == 1
        assert st["bits_cached_bytes"] > 0

    def test_registry_entry_owns_warm_plans(self):
        g = diagonal_pattern(128, bandwidth=2, seed=1)
        from repro.serving import GraphRegistry

        reg = GraphRegistry(max_batch=8)
        entry = reg.add("g", g, tile_dim=8)
        plan = entry.engine._At.plan()
        assert plan.stats()["chunk_tables"] >= 2

    def test_sequential_fold_plan_matches_adhoc(self):
        rng = np.random.default_rng(0)
        for total, n_seg in ((0, 0), (7, 3), (300, 4), (50, 50)):
            if n_seg:
                starts = np.unique(
                    rng.integers(0, total, size=n_seg)
                )
                starts[0] = 0
            else:
                starts = np.zeros(0, dtype=np.int64)
            v = rng.standard_normal((total, 3)).astype(np.float32)
            prog = SequentialFoldPlan(starts, total)
            got = prog(v)
            want = segment_sum_sequential(v, starts)
            assert bitwise_equal(got, want)


# ----------------------------------------------------------------------
# Active-tile skip behaviour
# ----------------------------------------------------------------------
class TestSkipMode:
    @pytest.mark.parametrize("d", (8, 32))
    def test_empty_full_single_bit_frontiers(self, d):
        A, dense, rng = build(n=96, d=d, density=0.2, seed=d)
        n = dense.shape[0]
        cases = {
            "empty": np.zeros(n, dtype=bool),
            "full": np.ones(n, dtype=bool),
            "single": np.eye(1, n, 5, dtype=bool)[0],
        }
        for label, frontier in cases.items():
            xw = pack_bitvector(frontier, d)
            counters = {}
            got = bmv.bmv_bin_bin_bin(A, xw, skip=True, counters=counters)
            assert bitwise_equal(got, planless.bmv_bin_bin_bin(A, xw)), label
            if label == "empty":
                assert counters["active_tiles"] == 0
                assert not got.any()
            if label == "full":
                assert counters["active_tiles"] == counters["tile_visits"]
            if label == "single":
                # Only tiles in the source's tile column can be active.
                col_tiles = int((A.indices == 5 // d).sum())
                assert counters["active_tiles"] == col_tiles

    def test_counters_dense_mode_report_full_visits(self):
        A, dense, rng = build(n=64, d=8, seed=11)
        xw = pack_bitvector(np.ones(64), 8)
        counters = {}
        bmv.bmv_bin_bin_bin(A, xw, skip=False, counters=counters)
        assert counters["active_tiles"] == counters["tile_visits"]
        assert counters["tile_visits"] == A.n_tiles

    def test_multi_plane_counters(self):
        d = 8
        A, dense, rng = build(n=80, d=d, seed=12)
        k = 2 * d + 3  # 3 planes
        X = np.zeros((80, k), dtype=bool)
        X[4, 0] = True  # only plane 0 has any activity
        XW = pack_bitmatrix(X, d)
        counters = {}
        got = bmv.bmv_bin_bin_bin_multi(A, XW, skip=True, counters=counters)
        assert bitwise_equal(got, planless.bmv_bin_bin_bin_multi(A, XW))
        assert counters["tile_visits"] == A.n_tiles * 3
        col_tiles = int((A.indices == 4 // d).sum())
        assert counters["active_tiles"] == col_tiles

    def test_min_plus_all_inf_is_fully_inactive(self):
        A, dense, rng = build(n=64, d=8, seed=13)
        x = np.full(64, np.inf, dtype=np.float32)
        counters = {}
        got = bmv.bmv_bin_full_full(
            A, x, MIN_PLUS, skip=True, counters=counters
        )
        assert counters["active_tiles"] == 0
        assert bitwise_equal(got, planless.bmv_bin_full_full(A, x, MIN_PLUS))
        assert np.isinf(got).all()

    def test_word_activity_shapes(self):
        one = np.array([[0], [3], [0]], dtype=np.uint8)
        assert word_activity(one).tolist() == [False, True, False]
        two = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        assert word_activity(two).tolist() == [True, False]


# ----------------------------------------------------------------------
# Immutability: plan invalidation is impossible
# ----------------------------------------------------------------------
class TestImmutability:
    def test_b2sr_arrays_are_frozen(self):
        A, _, _ = build()
        for arr in (A.indptr, A.indices, A.tiles):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_view_backed_construction_cannot_alias_mutable_base(self):
        """Freezing a view would leave its base writable — the matrix
        must take an owned copy so no caller-held array can mutate it
        (and invalidate the memoized plan) after construction."""
        from repro.formats.b2sr import B2SRMatrix

        base = np.zeros((4, 8), dtype=np.uint8)
        base[0, 0] = 1
        A = B2SRMatrix(
            nrows=8, ncols=8, tile_dim=8,
            indptr=np.array([0, 1, 9])[:2],  # views, not owners
            indices=np.array([0, 0])[:1],
            tiles=base[:1],
        )
        before = A.nnz
        y0 = bmv.bmv_bin_bin_full(A, pack_bitvector(np.ones(8), 8))
        base[:] = 0xFF
        assert A.nnz == before
        y1 = bmv.bmv_bin_bin_full(A, pack_bitvector(np.ones(8), 8))
        assert bitwise_equal(y0, y1)

    def test_tile_row_of_memoized_and_frozen(self):
        A, _, _ = build()
        rows = A.tile_row_of()
        assert rows is A.tile_row_of()
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 99

    def test_no_mutating_api(self):
        """Every public B2SRMatrix method either reads or returns a new
        matrix — there is no in-place mutator to invalidate a plan."""
        from repro.formats.b2sr import B2SRMatrix

        allowed_prefixes = ("_",)
        for name in vars(B2SRMatrix):
            if name.startswith(allowed_prefixes):
                continue
            member = getattr(B2SRMatrix, name)
            if callable(member) or isinstance(member, property):
                # No setters anywhere on the class.
                if isinstance(member, property):
                    assert member.fset is None, name
        A, _, _ = build()
        before = (
            A.indptr.copy(), A.indices.copy(), A.tiles.copy(), A.nnz,
        )
        # Exercise the transforms; none may touch the source matrix.
        A.transpose()
        A.to_dense()
        A.colmajor_tiles()
        A.ewise_and(A)
        A.plan().warm((1, 4))
        assert np.array_equal(A.indptr, before[0])
        assert np.array_equal(A.indices, before[1])
        assert np.array_equal(A.tiles, before[2])
        assert A.nnz == before[3]


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_frontier_expand_packs_bool_directly(self):
        """Satellite fix: no float32 round-trip before packing — bool,
        float32 and uint8 frontiers pack identically and expand
        identically."""
        g = diagonal_pattern(128, bandwidth=2, seed=2)
        frontier = np.zeros(128, dtype=bool)
        frontier[3] = True
        visited = frontier.copy()
        assert np.array_equal(
            pack_bitvector(frontier, 32),
            pack_bitvector(frontier.astype(np.float32), 32),
        )
        outs = []
        for dt in (bool, np.float32, np.uint8):
            e = BitEngine(g, tile_dim=32)
            outs.append(e.frontier_expand(frontier.astype(dt), visited))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_skip_engine_matches_dense_engine(self):
        from repro.algorithms import bfs, connected_components, sssp

        g = diagonal_pattern(200, bandwidth=3, seed=4)
        for alg in (bfs, sssp):
            a, _ = alg(BitEngine(g, skip_inactive=True), 0)
            b, _ = alg(BitEngine(g, skip_inactive=False), 0)
            assert np.array_equal(a, b, equal_nan=True)
        ga = g.symmetrized()
        a, _ = connected_components(BitEngine(ga, skip_inactive=True))
        b, _ = connected_components(BitEngine(ga, skip_inactive=False))
        assert np.array_equal(a, b)

    def test_skip_engine_models_less_kernel_time(self):
        from repro.algorithms import sssp

        g = diagonal_pattern(600, bandwidth=3, seed=4)
        _, r_skip = sssp(BitEngine(g, skip_inactive=True), 0)
        _, r_dense = sssp(BitEngine(g, skip_inactive=False), 0)
        assert r_skip.kernel_ms < r_dense.kernel_ms


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestActiveTileStats:
    def test_none_matches_full_visits(self):
        g = diagonal_pattern(256, bandwidth=2, seed=1)
        A = g.b2sr(32)
        base = bmv_stats(A, "bin_bin_bin", GTX1080)
        full = bmv_stats(
            A, "bin_bin_bin", GTX1080, active_tiles=float(A.n_tiles)
        )
        assert base.dram_bytes == full.dram_bytes
        assert base.warp_instructions == full.warp_instructions
        assert base.flops == full.flops

    def test_fewer_active_tiles_cost_less(self):
        g = diagonal_pattern(256, bandwidth=2, seed=1)
        A = g.b2sr(32)
        dense = bmv_stats(A, "bin_full_full", GTX1080)
        sparse = bmv_stats(
            A, "bin_full_full", GTX1080, active_tiles=A.n_tiles / 10
        )
        empty = bmv_stats(A, "bin_full_full", GTX1080, active_tiles=0.0)
        assert empty.dram_bytes < sparse.dram_bytes < dense.dram_bytes
        assert empty.flops < sparse.flops < dense.flops
        # The index walk and the per-tile word test are never skipped.
        assert empty.dram_bytes > 0
        assert empty.warp_instructions > 0

    def test_negative_active_tiles_rejected(self):
        g = diagonal_pattern(64, bandwidth=2, seed=1)
        with pytest.raises(ValueError, match="active_tiles"):
            bmv_stats(g.b2sr(8), "bin_bin_bin", GTX1080, active_tiles=-1.0)
