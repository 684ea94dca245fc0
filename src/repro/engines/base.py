"""Engine base class and reporting.

The paper reports two latencies per (matrix, algorithm) cell: the
*algorithm* time (every kernel an iteration needs) and the *kernel* time
(the matrix-vector / matrix-matrix core, ">80 % of the workload" §VI.E).
Engines therefore maintain two accumulators; operations tagged as core
kernels add to both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitops.packing import (
    check_batch_words,
    pack_batch_words,
    unpack_batch_words,
)
from repro.graph import Graph
from repro.gpusim.counters import KernelStats
from repro.gpusim.device import GTX1080, DeviceSpec
from repro.gpusim.timing import time_ms
from repro.kernels.costmodel import ewise_dense_stats
from repro.semiring import Semiring, value_dtype


@dataclass
class EngineReport:
    """Stats snapshot for one algorithm run."""

    device: DeviceSpec
    iterations: int
    algorithm_stats: KernelStats
    kernel_stats: KernelStats
    backend: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def algorithm_ms(self) -> float:
        """Modeled end-to-end algorithm latency (paper's "algorithm" row)."""
        return time_ms(self.algorithm_stats, self.device)

    @property
    def kernel_ms(self) -> float:
        """Modeled core mxv/mxm latency (paper's "kernel" row).

        Launch overhead is excluded (CUDA-event timing around the kernel
        call), but host-side serialization *inside* the vxm/mxm call — the
        thrust sorts and syncs of GraphBLAST's masked SpMSpV — is part of
        what the caller observes, so it stays.
        """
        from dataclasses import replace

        return time_ms(replace(self.kernel_stats, launches=0), self.device)


class Engine:
    """Common accounting for both backends.

    Subclasses implement the three graph operations algorithms need:

    * :meth:`frontier_expand` — masked boolean vxm (BFS step);
    * :meth:`pull` — semiring mxv against the transposed adjacency
      (in-neighbour aggregation for SSSP/PR/CC), and :meth:`relax`,
      SSSP's ``min(x, pull(x))`` told which entries changed;
    * :meth:`tc_count` — fused masked product-sum over the lower triangle.
    """

    backend_name = "base"

    def __init__(self, graph: Graph, device: DeviceSpec = GTX1080) -> None:
        self.graph = graph
        self.device = device
        self.algorithm_stats = KernelStats()
        self.kernel_stats = KernelStats()
        self._iterations = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.graph.n

    def reset_stats(self) -> None:
        self.algorithm_stats = KernelStats()
        self.kernel_stats = KernelStats()
        self._iterations = 0

    def note_iteration(self) -> None:
        self._iterations += 1

    def add_kernel(self, stats: KernelStats) -> None:
        """Record a core mxv/mxm kernel (counts toward both rows)."""
        self.kernel_stats += stats
        self.algorithm_stats += stats

    def add_aux(self, stats: KernelStats) -> None:
        """Record a non-core kernel (elementwise update, compaction…)."""
        self.algorithm_stats += stats

    def note_ewise(self, vectors: int = 2, bytes_per: float = 4.0) -> None:
        """Shorthand: one dense elementwise kernel over the vertex set."""
        self.add_aux(
            ewise_dense_stats(
                self.n, self.device, vectors=vectors, bytes_per=bytes_per
            )
        )

    def report(self, extra: dict | None = None) -> EngineReport:
        return EngineReport(
            device=self.device,
            iterations=self._iterations,
            algorithm_stats=self.algorithm_stats,
            kernel_stats=self.kernel_stats,
            backend=self.backend_name,
            extra=extra or {},
        )

    # ------------------------------------------------------------------
    # Operations (implemented by subclasses)
    # ------------------------------------------------------------------
    def frontier_expand(
        self, frontier: np.ndarray, visited: np.ndarray
    ) -> np.ndarray:
        """Successors of ``frontier`` not yet in ``visited`` (boolean
        vxm with complemented mask)."""
        raise NotImplementedError

    def pull(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        """``y_i = ⊕_{j → i} mult(1, x_j)`` — semiring mxv over Aᵀ."""
        raise NotImplementedError

    def tc_count(self) -> float:
        """Masked lower-triangle product sum = exact triangle count."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batched (multi-vector) operations
    # ------------------------------------------------------------------
    def frontier_expand_multi(
        self, frontiers: np.ndarray, visiteds: np.ndarray, k: int
    ) -> np.ndarray:
        """Batched :meth:`frontier_expand` on bit-sliced state.

        ``frontiers`` and ``visiteds`` are ``k`` frontier/visited pairs
        as batch-major words (:func:`repro.bitops.packing
        .pack_batch_words`: ``(n, ⌈k/64⌉)`` ``uint64``, bit ``j`` of a
        vertex's words is pair ``j``), and so is the result: its batch
        column ``j`` equals ``frontier_expand(frontier_j, visited_j)``.
        Keeping the words across levels spares a traversal the pack and
        unpack of ``(n, k)`` bool arrays at every level.

        The default unpacks, runs ``k`` single expansions and packs the
        result; backends with a batched kernel override this.
        """
        fw, vw = self._check_multi(frontiers, visiteds, k)
        F = unpack_batch_words(fw, k)
        V = unpack_batch_words(vw, k)
        out = np.zeros(F.shape, dtype=bool)
        for j in range(k):
            out[:, j] = self.frontier_expand(F[:, j], V[:, j])
        return pack_batch_words(out)

    def pull_multi(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        """Batched :meth:`pull` over the columns of the ``(n, k)`` operand.

        Default: ``k`` single pulls; batched backends override.  Like
        :meth:`pull`, a ``float64`` operand is pulled in ``float64``
        (exact numeric labels past 2²⁴); anything else uses float32.
        """
        X = np.asarray(x)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(
                f"expected ({self.n}, k) vectors, got shape {X.shape}"
            )
        out = np.zeros(X.shape, dtype=value_dtype(X))
        for j in range(X.shape[1]):
            out[:, j] = self.pull(X[:, j], semiring)
        return out

    def relax(
        self, x: np.ndarray, changed: np.ndarray, semiring: Semiring
    ) -> np.ndarray:
        """One relaxation round ``add(x, pull(x))`` of a min/max
        fixed-point iteration — SSSP's Bellman-Ford step
        ``min(dist, Aᵀ ⊕.⊗ dist)``.

        ``changed`` is a bool vector of ``x``'s shape covering every
        vertex whose ``mult(1, x_v)`` is not yet folded into its
        out-neighbours' entries: the vertices that improved in the last
        round, and in the first round every non-identity entry.  It lets
        a backend relax from those vertices only; the result is bitwise
        that of the pull, priced as one :meth:`pull`.  Default: the
        pull.
        """
        X = self._check_relax(x, changed, 1)
        return semiring.add(X, self.pull(X, semiring))

    def relax_multi(
        self, x: np.ndarray, changed: np.ndarray, semiring: Semiring
    ) -> np.ndarray:
        """Batched :meth:`relax` over the columns of the ``(n, k)``
        operand, ``changed`` of the same shape; priced as one
        :meth:`pull_multi`.  Default: the pull."""
        X = self._check_relax(x, changed, 2)
        return semiring.add(X, self.pull_multi(X, semiring))

    def _check_relax(
        self, x: np.ndarray, changed: np.ndarray, ndim: int
    ) -> np.ndarray:
        """Validate a relaxation's operands; return ``x`` in its value
        dtype."""
        X = np.asarray(x)
        X = X.astype(value_dtype(X), copy=False)
        C = np.asarray(changed)
        if X.ndim != ndim or X.shape[0] != self.n:
            want = f"({self.n},)" if ndim == 1 else f"({self.n}, k)"
            raise ValueError(f"expected {want} values, got shape {X.shape}")
        if C.shape != X.shape or C.dtype != bool:
            raise ValueError(
                f"changed must be a bool array of shape {X.shape}, got "
                f"{C.dtype} {C.shape}"
            )
        return X

    def _check_multi(
        self, frontiers: np.ndarray, visiteds: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return (
            check_batch_words(frontiers, self.n, k, "frontiers"),
            check_batch_words(visiteds, self.n, k, "visiteds"),
        )
