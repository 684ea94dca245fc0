"""Single- and multi-source shortest paths (§V SSSP).

Tropical min-plus semiring over the binary adjacency: a stored bit is an
edge of weight 1, an absent bit is +∞ ("the 0s in the adjacency matrix are
identified as infinite").  Each iteration relaxes every vertex against its
in-neighbours — Bellman-Ford iterations expressed as
``dist' = min(dist, Aᵀ ⊕.⊗ dist)``; convergence is reached after at most
(eccentricity) rounds, mirroring the iteration structure of GraphBLAST's
delta-stepping configuration on unit weights.

A round is one :meth:`repro.engines.base.Engine.relax` (``relax_multi``
for a batch), told which distances improved in the previous round — the
``new < dist`` mask the convergence check computes anyway; in round one,
the finite entries.  Only those vertices' ``x + 1`` can lower anything:
every other vertex's was folded in when it last changed.  So the bit
backend pushes from them along their out-edges, the frontier relaxation
of Δ-stepping and direction-optimizing traversal, while the result and
the modeled cost stay those of the pull ``min(dist, Aᵀ ⊕.⊗ dist)``,
which the GraphBLAST backend still runs.

:func:`multi_source_sssp` relaxes ``k`` sources in lockstep: one min-plus
kernel launch per round serves every column — striped across ``⌈k/d⌉``
value planes on the bit backend when the batch exceeds the tile word
width — instead of ``k`` independent launches.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import Engine, EngineReport
from repro.semiring import MIN_PLUS


def sssp(
    engine: Engine, source: int, *, max_iterations: int | None = None
) -> tuple[np.ndarray, EngineReport]:
    """Unit-weight SSSP from ``source``.

    ``max_iterations`` caps the relaxation rounds; the default ``n``
    upper-bounds Bellman-Ford's worst case (``n − 1`` rounds reach every
    vertex, so the loop always exits on the convergence check first).
    ``max_iterations=0`` performs no relaxation and returns the
    initialization: 0 at the source, +inf elsewhere.

    Returns
    -------
    dist:
        ``float32`` distances (+inf for unreachable vertices).
    report:
        Modeled cost report.
    """
    n = engine.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    dist = np.full(n, np.inf, dtype=np.float32)  # repro-lint: ignore[numeric-cliff] — float32 value payload (distances), matches the paper's GPU value arithmetic; ids stay float64
    dist[source] = 0.0

    changed = np.isfinite(dist)
    for _ in range(max_iterations):
        engine.note_iteration()
        new = engine.relax(dist, changed, MIN_PLUS)
        # ``new <= dist`` always holds (elementwise min), so "no entry
        # improved" is exactly "new == dist" — one check suffices, and
        # the improved entries are the next round's changed set.
        changed = new < dist
        if not changed.any():
            break
        dist = new

    return dist, engine.report()


def multi_source_sssp(
    engine: Engine,
    sources: np.ndarray,
    *,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, EngineReport]:
    """Unit-weight SSSP from ``k`` sources in lockstep.

    Every round performs one batched min-plus relaxation over the
    ``(n, k)`` distance matrix — a single kernel launch on the bit
    backend however many sources are in flight.
    Columns that have converged sit at their fixed point (an extra
    min-plus relaxation cannot change them), so column ``j`` of the result
    is **bitwise identical** to ``sssp(engine, sources[j])``; the loop
    runs until the last column stops improving.

    Returns
    -------
    dist:
        ``float32`` array of shape ``(n, k)``; column ``j`` equals the
        ``dist`` vector of ``sssp(engine, sources[j])``.
    report:
        Combined cost report for the batched run.
    """
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 1 or src.size == 0:
        raise ValueError(
            f"sources must be a non-empty 1-D vector, got shape {src.shape}"
        )
    n = engine.n
    if src.min() < 0 or src.max() >= n:
        raise ValueError(f"sources out of range for {n} vertices")
    k = src.shape[0]
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    dist = np.full((n, k), np.inf, dtype=np.float32)  # repro-lint: ignore[numeric-cliff] — float32 value payload (distances), matches the paper's GPU value arithmetic; ids stay float64
    dist[src, np.arange(k)] = 0.0

    changed = np.isfinite(dist)
    for _ in range(max_iterations):
        engine.note_iteration()
        new = engine.relax_multi(dist, changed, MIN_PLUS)
        changed = new < dist
        if not changed.any():
            break
        dist = new

    return dist, engine.report(extra={"sources": k})
