"""Breadth-first search (§V BFS), single- and multi-source.

Boolean semiring.  Each iteration performs one masked vxm — one masked
boolean BMV launch on the bit backend, where the visited mask is ANDed in
right before the output store (the paper explicitly avoids GraphBLAST's
early-exit because it causes warp divergence inside a tile row), priced
as the tile sweep over every stored tile.  :func:`multi_source_bfs`
advances ``k`` sources in lockstep and keeps its frontier and visited
state as bit-sliced, batch-major ``uint64`` words for the whole traversal
(:func:`repro.bitops.packing.pack_batch_words`: bit ``j`` of a vertex's
words is traversal ``j``), handing them to
:meth:`~repro.engines.base.Engine.frontier_expand_multi` level after
level and writing depths only for the rows a level reached — still one
launch per level, however many traversals are in flight.  On the bit
backend both BFS forms run
:func:`~repro.kernels.bmv.bmv_bin_bin_bin_sliced_masked`, which pushes
from a sparse frontier and pulls over every stored bit from a dense one;
the route changes host time only, never the answer or the modeled cost.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.packing import pack_batch_words, unpack_batch_words
from repro.engines.base import Engine, EngineReport


def bfs(
    engine: Engine, source: int, *, max_iterations: int | None = None
) -> tuple[np.ndarray, EngineReport]:
    """BFS from ``source``.

    Returns
    -------
    depth:
        ``int64`` vector; ``depth[v]`` is the hop distance from ``source``
        (−1 for unreachable vertices).
    report:
        Modeled cost report (algorithm + kernel rows of Table VII/VIII).
    """
    n = engine.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    depth = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    depth[source] = 0
    visited[source] = True
    frontier[source] = True

    level = 0
    while frontier.any() and level < max_iterations:
        level += 1
        engine.note_iteration()
        nxt = engine.frontier_expand(frontier, visited)
        if not nxt.any():
            break
        depth[nxt] = level
        visited |= nxt
        frontier = nxt

    return depth, engine.report(extra={"levels": level})


def multi_source_bfs(
    engine: Engine,
    sources: np.ndarray,
    *,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, EngineReport]:
    """BFS from ``k`` sources in lockstep.

    All sources advance one level per iteration through a single batched
    frontier expansion (:meth:`repro.engines.base.Engine.frontier_expand_multi`
    on batch-major words — one kernel sweep per level on the bit backend,
    however many sources are in flight).  Sources whose traversal has
    finished simply carry an empty frontier bit until the last one
    drains.

    Returns
    -------
    depth:
        ``int64`` array of shape ``(n, k)``; column ``j`` equals the
        ``depth`` vector of ``bfs(engine, sources[j])``.
    report:
        Combined cost report for the batched run.
    """
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 1 or src.size == 0:
        raise ValueError(
            f"sources must be a non-empty 1-D vector, got shape {src.shape}"
        )
    n = engine.n
    if src.size and (src.min() < 0 or src.max() >= n):
        raise ValueError(f"sources out of range for {n} vertices")
    k = src.shape[0]
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    cols = np.arange(k)
    depth = np.full((n, k), -1, dtype=np.int64)
    depth[src, cols] = 0
    start = np.zeros((n, k), dtype=bool)
    start[src, cols] = True
    frontier = pack_batch_words(start)
    visited = frontier.copy()

    level = 0
    while level < max_iterations:
        level += 1
        engine.note_iteration()
        nxt = engine.frontier_expand_multi(frontier, visited, k)
        rows = nxt.any(axis=1).nonzero()[0]
        if rows.size == 0:
            break
        # Only the rows some traversal reached get their depths written.
        reached = depth[rows]
        reached[unpack_batch_words(nxt[rows], k)] = level
        depth[rows] = reached
        visited |= nxt
        frontier = nxt

    return depth, engine.report(extra={"levels": level, "sources": k})
