"""Breadth-first search (§V BFS), single- and multi-source.

Boolean semiring.  Each iteration performs one masked vxm — a single
``bmv_bin_bin_bin_masked`` launch on the bit backend, where the visited
mask is ANDed in right before the output store (the paper explicitly avoids
GraphBLAST's early-exit because it causes warp divergence inside a tile
row).  :func:`multi_source_bfs` advances ``k`` sources in lockstep: on the
bit backend each level is one ``bmv_bin_bin_bin_sliced_masked`` launch over
bit-sliced frontiers (one ``uint64`` word per vertex carries 64 of the
traversals), priced as the batched tile sweep ``bmv_bin_bin_bin_multi_masked``
— still one launch per level, however many traversals are in flight.
"""

from __future__ import annotations

import numpy as np

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
    — one kernel sweep per level on the bit backend, however many sources
    are in flight).  Sources whose traversal has finished simply carry an
    empty frontier column until the last one drains.

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
    visited = np.zeros((n, k), dtype=bool)
    frontier = np.zeros((n, k), dtype=bool)
    depth[src, cols] = 0
    visited[src, cols] = True
    frontier[src, cols] = True

    level = 0
    while frontier.any() and level < max_iterations:
        level += 1
        engine.note_iteration()
        nxt = engine.frontier_expand_multi(frontier, visited)
        if not nxt.any():
            break
        depth[nxt] = level
        visited |= nxt
        frontier = nxt

    return depth, engine.report(extra={"levels": level, "sources": k})
