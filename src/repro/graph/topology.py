"""Topological-order utilities.

The GA chromosome (Sec. 4.2.1) carries a *scheduling string* — a topological
order of the task graph.  This module provides uniform-ish random
topological sorts (for initial-population generation, Sec. 4.2.2), validity
checks (used by operators and property tests), and ancestor/descendant
closures (used by the mutation operator's legal-window computation,
Sec. 4.2.6).  The random sorts run in C when the native library loads,
drawing what the Python walk (the reference) would draw.
"""

from __future__ import annotations

import numpy as np

from repro.graph import _native
from repro.graph.analysis import ArrayDag
from repro.graph.taskgraph import TaskGraph
from repro.utils.rng import as_generator

__all__ = [
    "topological_order",
    "random_topological_order",
    "is_topological_order",
    "ancestors_mask",
    "descendants_mask",
]


def topological_order(graph: TaskGraph) -> np.ndarray:
    """The graph's canonical deterministic topological order."""
    return graph.topological


def random_topological_order(
    graph: TaskGraph, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Sample a random topological order via randomized Kahn's algorithm.

    At each step one task is drawn uniformly from the current ready set.
    This does not sample uniformly over all linear extensions (that is
    #P-hard), but it reaches every linear extension with positive
    probability, which is all the GA requires for population diversity.

    With the native library loaded the walk runs in C
    (:mod:`repro.graph._native`), drawing the same numbers from *rng*;
    the Python walk below is the reference and the fallback.

    Parameters
    ----------
    graph:
        The task graph.
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Permutation of ``0..n-1`` respecting all precedence constraints.
    """
    gen = as_generator(rng)
    n = graph.n
    lib = _native.get_lib()
    if lib is not None:
        dag = ArrayDag.from_taskgraph(graph)
        order = np.empty(n, dtype=np.int64)
        scratch = np.empty(2 * n, dtype=np.int64)
        with gen.bit_generator.lock:
            rc = lib.random_topo_order(
                n,
                dag.succ_indptr.ctypes.data,
                dag.succ_eidx.ctypes.data,
                graph.edge_dst.ctypes.data,
                _native.bitgen(gen),
                order.ctypes.data,
                scratch.ctypes.data,
            )
        if rc == 1:
            raise ValueError("task graph contains a cycle")
        if rc:
            raise ValueError("task graph too large for 32-bit draws")
        return order
    # Scalar bookkeeping stays in plain Python containers: the cached
    # successor lists and a list-typed in-degree counter avoid a numpy
    # scalar round-trip per visited edge.  The ready list evolves exactly
    # as it did with numpy slices (same contents, same order), so seeded
    # draw sequences — and therefore GA trajectories — are unchanged.
    succ = graph.successor_lists()
    indeg = graph.in_degree().tolist()
    ready = [v for v in range(n) if not indeg[v]]
    order: list[int] = []
    integers = gen.integers
    for _ in range(n):
        if not ready:
            raise ValueError("task graph contains a cycle")
        pick = int(integers(len(ready)))
        # Swap-pop keeps the draw O(1).
        ready[pick], ready[-1] = ready[-1], ready[pick]
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            d = indeg[w] - 1
            indeg[w] = d
            if not d:
                ready.append(w)
    return np.array(order, dtype=np.int64)


def is_topological_order(graph: TaskGraph, order: np.ndarray) -> bool:
    """Check that *order* is a permutation of tasks respecting all edges.

    Fully vectorized: bounds and bijectivity via :func:`numpy.bincount`,
    the precedence check by comparing inverse-permutation positions across
    the edge arrays — no Python-level loop over positions.
    """
    order = np.asarray(order, dtype=np.int64)
    n = graph.n
    if order.shape != (n,):
        return False
    if order.min() < 0 or order.max() >= n:
        return False
    if np.any(np.bincount(order, minlength=n) != 1):
        return False
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    return bool(np.all(position[graph.edge_src] < position[graph.edge_dst]))


def _closure_mask(graph: TaskGraph, start: int, *, forward: bool) -> np.ndarray:
    """Reachability mask from *start* following edges forward or backward.

    Single pass over the canonical topological order — O(n + |E|).
    """
    mask = np.zeros(graph.n, dtype=bool)
    mask[start] = True
    topo = graph.topological if forward else graph.topological[::-1]
    for v in topo:
        v = int(v)
        if not mask[v]:
            continue
        nbrs = graph.successors(v) if forward else graph.predecessors(v)
        mask[nbrs] = True
    mask[start] = False
    return mask


def descendants_mask(graph: TaskGraph, v: int) -> np.ndarray:
    """Boolean mask of all strict descendants of task *v*."""
    if not (0 <= v < graph.n):
        raise ValueError(f"task id {v} out of range")
    return _closure_mask(graph, v, forward=True)


def ancestors_mask(graph: TaskGraph, v: int) -> np.ndarray:
    """Boolean mask of all strict ancestors of task *v*."""
    if not (0 <= v < graph.n):
        raise ValueError(f"task id {v} out of range")
    return _closure_mask(graph, v, forward=False)
