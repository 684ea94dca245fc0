"""The Bit-GraphBLAS engine: B2SR kernels with modeled costs.

Mirrors the paper's execution structure (§V): one fused BMV launch per
iteration (mask applied before the output store, no early exit) plus a
single small elementwise kernel to update frontier/visited state, against
GraphBLAST's multi-kernel iterations.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# The packing codecs, ``bmv_bin_bin_bin_masked`` and
# ``bmv_bin_bin_bin_multi_masked`` are no longer called here (both BFS
# expands run the bit-sliced set-bit sweep), but the traced benchmark
# (perfbench/layers.py) wraps them by name in this module, so they stay
# bound.
from repro.bitops.packing import (
    pack_batch_words,
    pack_bitmatrix,  # noqa: F401
    pack_bitvector,  # noqa: F401
    unpack_bitmatrix,  # noqa: F401
    unpack_bitvector,  # noqa: F401
)
from repro.formats.b2sr import B2SRMatrix
from repro.formats.stats import bandwidth_profile
from repro.graph import Graph
from repro.gpusim.counters import KernelStats
from repro.gpusim.device import GTX1080, DeviceSpec
from repro.engines.base import Engine
from repro.kernels.bmm import bmm_bin_bin_sum_masked, bmm_pair_count
from repro.kernels.bmv import (
    bmv_bin_bin_bin_masked,  # noqa: F401
    bmv_bin_bin_bin_multi_masked,  # noqa: F401
    bmv_bin_full_full,
    bmv_bin_full_full_multi,
    bmv_bin_full_full_relax,
    sliced_masked_words,
)
from repro.kernels import costmodel
from repro.kernels.costmodel import (
    bmm_stats,
    bmv_skip_crossover,
    ewise_dense_stats,
)
from repro.kernels.plan import batch_block_words
from repro.semiring import Semiring, value_dtype


def bmv_stats(
    memo: dict,
    A: B2SRMatrix,
    scheme: str,
    device: DeviceSpec,
    *,
    locality: float,
    k: int = 1,
    value_bytes: float = 4.0,
    active_tiles: float | None = None,
) -> KernelStats:
    """:func:`repro.kernels.costmodel.bmv_stats`, memoized in ``memo``.

    Each engine prices every BMV launch through this with its own
    ``memo``: the matrix, device and locality are fixed per engine, so
    ``(scheme, k, value_bytes, active_tiles)`` identifies the price, and
    a serving round loop re-prices the same few keys thousands of times.
    It stays a module-level call per launch so per-launch hooks on
    ``repro.engines.bit.bmv_stats`` still see every launch.  Hits return
    the memoized object itself; the engine only ever adds it into its
    own accumulators (``KernelStats.__iadd__`` leaves its right operand
    untouched), so it is never mutated.
    """
    key = (scheme, k, value_bytes, active_tiles)
    stats = memo.get(key)
    if stats is None:
        stats = costmodel.bmv_stats(
            A, scheme, device, locality=locality, k=k,
            value_bytes=value_bytes, active_tiles=active_tiles,
        )
        memo[key] = stats
    return stats


class BitEngine(Engine):
    """Bit-GraphBLAS execution over B2SR.

    Parameters
    ----------
    graph:
        The input graph; B2SR forms are built (and cached on the graph) at
        the engine's ``tile_dim``.
    device:
        Simulated GPU.
    tile_dim:
        B2SR variant; the paper sweeps 4–32 and so do the ablation benches.
    skip_inactive:
        Active-tile skip mode: ``True`` runs every sweep in skip mode
        (consult the packed frontier / value operand and elide tiles
        whose input is the add identity), ``False`` sweeps every stored
        tile, and ``"auto"`` (the default) decides per round: skip,
        unless the *previous* round's counter-reported active fraction
        reached the :func:`~repro.kernels.costmodel.bmv_skip_crossover`
        **and** the current operand certifies every tile column active —
        in which case the round is provably fully active and the dense
        sweep skips the host-side activity scan for free.  Results are
        bitwise identical in all three modes (the kernels' elision is
        exact — :mod:`repro.kernels.plan`) and auto's modeled cost is
        never above always-on skip (dense rounds only run at a certified
        active fraction of exactly 1, where the modeled costs agree).
        The paper's kernels sweep every stored tile, so reproduction
        harnesses pass ``skip_inactive=False`` for paper-faithful costs.
    """

    backend_name = "bit"

    def __init__(
        self,
        graph: Graph,
        device: DeviceSpec = GTX1080,
        tile_dim: int = 32,
        skip_inactive: bool | str = "auto",
    ) -> None:
        super().__init__(graph, device)
        self._install(
            graph.b2sr_t(tile_dim),
            float(
                np.clip(bandwidth_profile(graph.csr_t)["diag_fraction"], 0, 1)
            ),
            skip_inactive,
        )

    def _install(
        self, At: B2SRMatrix, locality: float, skip_inactive: bool | str
    ) -> None:
        """Engine state over a built B2SR operand (also used by engines
        that attach a matrix without a :class:`Graph`)."""
        if skip_inactive not in (True, False, "auto"):
            raise ValueError(
                "skip_inactive must be True, False or 'auto', "
                f"got {skip_inactive!r}"
            )
        self.tile_dim = At.tile_dim
        self.skip_inactive = skip_inactive
        self._At = At
        self._locality = locality
        # Adaptive-skip state: last observed active fraction per op and
        # the memoized model crossover per (scheme, value_bytes).
        self._last_frac: dict[str, float] = {}
        self._crossover_cache: dict[tuple[str, float], float] = {}
        #: Memoized BMV launch prices (:func:`bmv_stats`).
        self._bmv_prices: dict[tuple, KernelStats] = {}
        #: Rounds the auto policy ran dense (introspection/tests).
        self.auto_dense_rounds = 0

    # ------------------------------------------------------------------
    def warm_plans(self, widths: tuple[int, ...] = (1,)) -> None:
        """Eagerly build the sweep plan for the given batch widths.

        A registered serving graph calls this once so its first query
        already launches against warm chunk tables, gather indices and
        masked-gather indices (:meth:`repro.kernels.plan.SweepPlan.warm`).
        """
        self._At.plan().warm(tuple(widths))

    def reset_stats(self) -> None:
        super().reset_stats()
        self._last_frac.clear()

    # ------------------------------------------------------------------
    # Adaptive per-round skip
    # ------------------------------------------------------------------
    def _crossover(self, scheme: str, value_bytes: float = 4.0) -> float:
        key = (scheme, value_bytes)
        if key not in self._crossover_cache:
            self._crossover_cache[key] = bmv_skip_crossover(
                self._At, scheme, self.device,
                locality=self._locality, value_bytes=value_bytes,
            )
        return self._crossover_cache[key]

    def _round_skip(self, op, scheme, certify, value_bytes=4.0):
        """Per-round mode decision: ``True`` → skip, ``False`` → dense.

        Dense needs both the *prediction* (last round's active fraction
        at/above the model crossover) and the *certificate* (``certify``
        proving the current operand activates every tile column, i.e.
        the true fraction is exactly 1.0).  The certificate is what
        makes auto safe: a mispredicted dense round cannot exist, so
        auto's modeled cost never exceeds always-on skip.
        """
        mode = self.skip_inactive
        if mode != "auto":
            return bool(mode)
        prev = self._last_frac.get(op)
        if (
            prev is not None
            and prev >= self._crossover(scheme, value_bytes) - 1e-12
            and certify()
        ):
            self.auto_dense_rounds += 1
            return False
        return True

    def _note_round(self, op: str, used_skip: bool, counters: dict) -> None:
        """Feed this round's observed active fraction to the predictor."""
        if self.skip_inactive != "auto":
            return
        if not used_skip:
            # Dense rounds only run certified fully active.
            self._last_frac[op] = 1.0
            return
        visits = counters.get("tile_visits", 0.0)
        if visits > 0:
            self._last_frac[op] = (
                counters.get("active_tiles", 0.0) / visits
            )

    @staticmethod
    def _blocks_all_active(blocks: np.ndarray, k: int):
        """Certificate for the boolean expands: every one of the ``k``
        bits set in every column block's word
        (:func:`~repro.kernels.plan.batch_block_words`) ⇒ every (tile
        column, batch column) — hence every tile visit — is active."""

        def certify() -> bool:
            full = pack_batch_words(np.ones((1, k), dtype=bool))
            return bool(((blocks & full) == full).all())

        return certify

    @staticmethod
    def _values_all_active(X: np.ndarray, zero: float):
        """Certificate for the semiring schemes: every value
        bit-different from the add identity ⇒ every column block active
        (same bit-identity test as :func:`repro.kernels.plan
        .value_activity`, signed-zero aware)."""

        def certify() -> bool:
            z = np.asarray(zero, dtype=X.dtype)
            active = X != z
            if X.dtype.kind == "f":
                active |= np.signbit(X) != np.signbit(z)
            return bool(active.all())

        return certify

    def _bmv_active(self, used_skip: bool, counters: dict) -> float | None:
        """Active-tile count for :func:`bmv_stats` (``None`` → dense;
        auto's dense rounds are certified fully active, so ``None`` is
        exact for them too)."""
        if not used_skip:
            return None
        return counters.get("active_tiles", 0.0)

    # ------------------------------------------------------------------
    def frontier_expand(
        self, frontier: np.ndarray, visited: np.ndarray
    ) -> np.ndarray:
        """One BFS level: the ``k = 1`` column of
        :meth:`frontier_expand_multi` (frontiers of any dtype binarize
        as ``!= 0``)."""
        vecs = (np.asarray(frontier), np.asarray(visited))
        for v, what in zip(vecs, ("frontier", "visited")):
            if v.shape != (self.n,):
                raise ValueError(
                    f"{what} must have shape ({self.n},), got {v.shape}"
                )
        fw, vw = ((v != 0).astype(np.uint64)[:, None] for v in vecs)
        return self._expand_words("expand", fw, vw, 1)[:, 0] != 0

    def pull(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        # float64 payloads (numeric labels) keep their precision; anything
        # else runs in the kernels' native float32.
        dt = value_dtype(x)
        X = np.asarray(x).astype(dt, copy=False)
        return self._value_round(
            "pull", X[:, None], semiring,
            lambda skip, counters: bmv_bin_full_full(
                self._At, X, semiring, skip=skip, counters=counters
            )[:, None],
        )[:, 0]

    def relax(
        self, x: np.ndarray, changed: np.ndarray, semiring: Semiring
    ) -> np.ndarray:
        """SSSP's relaxation round (:meth:`Engine.relax`): the ``k = 1``
        column of :meth:`relax_multi`, priced, skip-predicted and
        accounted exactly as :meth:`pull`."""
        X = self._check_relax(x, changed, 1)
        C = np.asarray(changed)[:, None]
        return self._relax_round("pull", X[:, None], C, semiring)[:, 0]

    def relax_multi(
        self, x: np.ndarray, changed: np.ndarray, semiring: Semiring
    ) -> np.ndarray:
        """Batched relaxation: one
        :func:`~repro.kernels.bmv.bmv_bin_full_full_relax` launch pushes
        from the changed ``(vertex, column)`` pairs, or pulls when they
        are dense — priced, skip-predicted and accounted exactly as
        :meth:`pull_multi`, whose answer it returns bit for bit."""
        X = self._check_relax(x, changed, 2)
        return self._relax_round("pull_multi", X, changed, semiring)

    def _relax_round(
        self, op: str, X: np.ndarray, changed: np.ndarray, semiring: Semiring
    ) -> np.ndarray:
        return self._value_round(
            op, X, semiring,
            lambda skip, counters: bmv_bin_full_full_relax(
                self._At, X, changed, semiring,
                skip=skip, counters=counters,
            ),
        )

    def _value_round(
        self,
        op: str,
        X: np.ndarray,
        semiring: Semiring,
        launch: Callable[[bool, dict], np.ndarray],
    ) -> np.ndarray:
        """One semiring launch over the ``(n, k)`` operand ``X`` —
        ``launch(skip, counters)`` — with its ``"auto"`` skip decision
        (keyed by ``op``), price and accounting; every pull and
        relaxation round runs through here."""
        dt = X.dtype
        k = X.shape[1]
        counters: dict = {}
        use_skip = self._round_skip(
            op, "bin_full_full",
            self._values_all_active(X, semiring.zero),
            value_bytes=float(dt.itemsize),
        )
        Y = launch(use_skip, counters)
        self.add_kernel(
            bmv_stats(
                self._bmv_prices, self._At, "bin_full_full", self.device,
                locality=self._locality, k=k,
                value_bytes=float(dt.itemsize),
                active_tiles=self._bmv_active(use_skip, counters),
            )
        )
        self._note_round(op, use_skip, counters)
        # One elementwise update over all k columns and one convergence
        # read-back (a single flag memcpy — far lighter than
        # GraphBLAST's frontier machinery but not free).  The read-back
        # happens *outside* the BMV kernel, so it charges the algorithm
        # row only.
        self.add_aux(ewise_dense_stats(self.n * k, self.device, vectors=2))
        self.algorithm_stats.host_us += 4.0
        return Y

    def frontier_expand_multi(
        self, frontiers: np.ndarray, visiteds: np.ndarray, k: int
    ) -> np.ndarray:
        """Batched masked BMV: one sweep expands all ``k`` frontiers.

        Frontiers, visited sets and the result are batch-major words
        (:meth:`Engine.frontier_expand_multi`).  Each level runs the
        boolean scheme's set-bit sweep,
        :func:`~repro.kernels.bmv.bmv_bin_bin_bin_sliced_masked` — a
        frontier-sparse push or a pull over every stored bit, whichever
        touches less — so the level needs no vertex-major pack, mask
        pack or unpack.  It is still one launch per level, priced and
        skip-accounted exactly as the tile sweep
        ``bmv_bin_bin_bin_multi_masked``: the column blocks' OR-ed words
        (:func:`~repro.kernels.plan.batch_block_words`) are computed once
        and yield both the ``"auto"`` certificate and the per-plane
        counters.
        """
        fw, vw = self._check_multi(frontiers, visiteds, k)
        return self._expand_words("expand_multi", fw, vw, k)

    def _expand_words(
        self, op: str, fw: np.ndarray, vw: np.ndarray, k: int
    ) -> np.ndarray:
        """The BFS level both expands share; ``op`` keys the ``"auto"``
        skip predictor, so single and batched traversals keep their own
        history."""
        blocks = (
            None if self.skip_inactive is False
            else batch_block_words(fw, self.tile_dim)
        )
        counters: dict = {}
        use_skip = self._round_skip(
            op, "bin_bin_bin_masked", self._blocks_all_active(blocks, k)
        )
        # The words are valid by construction (``frontier_expand``) or
        # were checked on entry (``_check_multi``).
        yw = sliced_masked_words(
            self._At, fw, vw, k, blocks, use_skip, counters
        )
        self.add_kernel(
            bmv_stats(
                self._bmv_prices, self._At, "bin_bin_bin_masked", self.device,
                locality=self._locality, k=k,
                active_tiles=self._bmv_active(use_skip, counters),
            )
        )
        self._note_round(op, use_skip, counters)
        # The visited/depth update is fused into the masked BMV's output
        # store (§V: the bitmask is applied right before the store), so the
        # iteration costs a single launch plus an amortized emptiness check.
        self.algorithm_stats.host_us += 0.5
        return yw

    def pull_multi(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        """Batched semiring pull: one ``bmv_bin_full_full_multi`` sweep
        serves all ``k`` columns (striped across ``⌈k/d⌉`` value planes
        when the batch exceeds the tile word width) — batched PageRank's
        and batched FastSV's kernel."""
        dt = value_dtype(x)
        X = np.asarray(x).astype(dt, copy=False)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(
                f"expected ({self.n}, k) vectors, got shape {X.shape}"
            )
        return self._value_round(
            "pull_multi", X, semiring,
            lambda skip, counters: bmv_bin_full_full_multi(
                self._At, X, semiring, skip=skip, counters=counters
            ),
        )

    def tc_count(self) -> float:
        sym = self.graph.symmetrized()
        L_csr = sym.csr.extract_lower(strict=True)
        from repro.formats.convert import b2sr_from_csr, transpose_csr

        L = b2sr_from_csr(L_csr, self.tile_dim)
        Lt = b2sr_from_csr(transpose_csr(L_csr), self.tile_dim)
        count = bmm_bin_bin_sum_masked(L, Lt, L)
        self.add_kernel(
            bmm_stats(
                L, Lt, self.device,
                pairs=bmm_pair_count(L, Lt), masked=True,
            )
        )
        self.note_iteration()
        return count
