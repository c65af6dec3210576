"""Immutable DAG task-graph data structure (paper Sec. 3.1).

A task graph is ``G = (V, E)`` with ``n`` tasks and a data-size attached to
every directed edge (the paper's matrix ``D``; we store it sparsely).  The
structure is numpy-backed and immutable: construction validates acyclicity
and precomputes CSR-style predecessor/successor indexes used by the
schedule evaluator, which is the hot path of the whole library.

Construction works on one ``(m, 2)`` int64 array of edges: the range,
self-loop and duplicate checks are array passes (duplicates are adjacent
once the pairs are in canonical order), both CSR indexes come from the
degree counts, and the canonical topological order is a min-heap Kahn
pass over Python lists.  Every decoded problem builds one, so the service
pays this on each request.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = ["TaskGraph"]


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointer of per-node *counts*: ``indptr[v + 1] - indptr[v]``
    is ``counts[v]``."""
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _build_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group edge indices by *keys* (node ids) into a CSR (indptr, indices) pair.

    ``indices[indptr[v]:indptr[v+1]]`` lists positions into the edge arrays
    of all edges whose *keys* entry equals ``v``, in edge order (a stable
    sort).
    """
    indptr = _indptr(np.bincount(keys, minlength=n))
    return indptr, np.argsort(keys, kind="stable").astype(np.int64, copy=False)


def _edge_pairs(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """The ``(m, 2)`` int64 array of an iterable of ``(u, v)`` pairs.

    Raises ``ValueError`` or ``TypeError`` for a pair that is not two
    integers, and ``ValueError`` for an endpoint beyond int64.
    """
    if not isinstance(edges, (list, tuple, np.ndarray)):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("edge endpoint out of range") from exc
    if pairs.shape == (0,):
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(
            f"edges must be (u, v) pairs, got an array of shape {pairs.shape}"
        )
    return pairs


class TaskGraph:
    """A directed acyclic task graph with per-edge data sizes.

    Parameters
    ----------
    n:
        Number of tasks; tasks are identified by integers ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` precedence pairs (``u`` must complete before
        ``v`` starts): a list or tuple of pairs (JSON lists included), a
        generator, a ``zip`` or an ``(m, 2)`` integer array.  Duplicate
        edges are rejected.
    data_sizes:
        Per-edge amount of data transferred from ``u`` to ``v`` (the paper's
        ``d_uv``), aligned with *edges*.  Defaults to zeros (no
        communication).
    name:
        Optional label used in ``repr`` and experiment reports.

    Raises
    ------
    ValueError
        If an edge is not a pair of integers or an endpoint is out of
        range, an edge is duplicated or a self-loop, a data size is
        negative, or the graph contains a cycle.
    TypeError
        If an endpoint is not a number (``None``, say).

    Notes
    -----
    The instance is logically immutable: all arrays are set non-writeable.
    Derived quantities (entry/exit nodes, a canonical topological order)
    are computed eagerly because every downstream component needs them.
    """

    __slots__ = (
        "n",
        "name",
        "edge_src",
        "edge_dst",
        "edge_data",
        "_succ_indptr",
        "_succ_eidx",
        "_pred_indptr",
        "_pred_eidx",
        "_topo",
        "_entry",
        "_exit",
        "_dag",
        "_edge_keys",
        "_succ_lists",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        data_sizes: Iterable[float] | None = None,
        *,
        name: str = "taskgraph",
    ) -> None:
        if n <= 0:
            raise ValueError(f"task graph needs at least one task, got n={n}")
        self.n = int(n)
        self.name = str(name)

        pairs = _edge_pairs(edges)
        m = pairs.shape[0]
        if m and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoint out of range")
        src, dst = pairs[:, 0], pairs[:, 1]
        if (src == dst).any():
            raise ValueError("self-loops are not allowed in a task graph")
        # Canonical edge order: sorted by (src, dst) for reproducibility;
        # a duplicate then sits next to its twin.
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if ((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])).any():
            raise ValueError("duplicate edges are not allowed")

        if data_sizes is None:
            data = np.zeros(m, dtype=np.float64)
        else:
            data = np.asarray(list(data_sizes), dtype=np.float64)
            if data.shape != (m,):
                raise ValueError(
                    f"data_sizes must have one entry per edge ({m}), got {data.shape}"
                )
            if not np.isfinite(data).all() or (data < 0).any():
                raise ValueError("data sizes must be finite and non-negative")

        self.edge_src = src
        self.edge_dst = dst
        self.edge_data = data[order]

        # Both CSR indexes from the degree counts; the canonical order
        # already groups the edges by source.
        indeg = np.bincount(dst, minlength=n)
        outdeg = np.bincount(src, minlength=n)
        self._succ_indptr = _indptr(outdeg)
        self._succ_eidx = np.arange(m, dtype=np.int64)
        self._pred_indptr = _indptr(indeg)
        self._pred_eidx = np.argsort(dst, kind="stable").astype(np.int64, copy=False)

        self._topo = self._kahn_topological_order()
        self._dag = None  # lazily filled by ArrayDag.from_taskgraph
        self._edge_keys = None  # lazily filled by edge_keys
        self._succ_lists = None  # lazily filled by successor_lists

        self._entry = np.flatnonzero(indeg == 0)
        self._exit = np.flatnonzero(outdeg == 0)

        for arr in (
            self.edge_src,
            self.edge_dst,
            self.edge_data,
            self._succ_indptr,
            self._succ_eidx,
            self._pred_indptr,
            self._pred_eidx,
            self._topo,
            self._entry,
            self._exit,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dict(
        cls,
        succ: Mapping[int, Iterable[int]],
        data: Mapping[tuple[int, int], float] | None = None,
        *,
        n: int | None = None,
        name: str = "taskgraph",
    ) -> "TaskGraph":
        """Build from an adjacency mapping ``{u: [v, ...]}``.

        ``n`` defaults to ``max node id + 1``.  *data* maps ``(u, v)`` to a
        data size; missing edges default to 0.
        """
        edges = [(u, v) for u, vs in succ.items() for v in vs]
        if n is None:
            ids = [u for u, _ in edges] + [v for _, v in edges] + list(succ)
            n = (max(ids) + 1) if ids else 1
        sizes = None
        if data is not None:
            sizes = [float(data.get((u, v), 0.0)) for u, v in edges]
        return cls(n, edges, sizes, name=name)

    @classmethod
    def from_networkx(cls, graph, *, weight: str = "data", name: str | None = None) -> "TaskGraph":
        """Build from a :class:`networkx.DiGraph` with integer nodes ``0..n-1``.

        Edge attribute *weight* (default ``"data"``) supplies data sizes.
        """
        nodes = sorted(graph.nodes)
        if nodes != list(range(len(nodes))):
            raise ValueError("networkx graph nodes must be exactly 0..n-1")
        edges = list(graph.edges)
        sizes = [float(graph.edges[e].get(weight, 0.0)) for e in edges]
        return cls(len(nodes), edges, sizes, name=name or "from_networkx")

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with a ``data`` edge attribute."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(range(self.n))
        for u, v, d in zip(self.edge_src, self.edge_dst, self.edge_data):
            g.add_edge(int(u), int(v), data=float(d))
        return g

    # ------------------------------------------------------------------ #
    # Topology queries
    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        """Number of precedence edges."""
        return int(self.edge_src.shape[0])

    @property
    def entry_nodes(self) -> np.ndarray:
        """Tasks with no predecessors."""
        return self._entry

    @property
    def exit_nodes(self) -> np.ndarray:
        """Tasks with no successors."""
        return self._exit

    @property
    def topological(self) -> np.ndarray:
        """A canonical (deterministic) topological order of the tasks."""
        return self._topo

    @property
    def edge_keys(self) -> np.ndarray:
        """Sorted ``src * n + dst`` key of every edge (canonical order).

        The canonical edge order is lexicographic in ``(src, dst)``, so the
        keys come out already sorted; :class:`~repro.schedule.schedule.Schedule`
        uses them for vectorized membership tests (chain-edge dedup) via
        :func:`numpy.searchsorted`.  Computed once per graph.
        """
        if self._edge_keys is None:
            keys = self.edge_src * np.int64(self.n) + self.edge_dst
            keys.setflags(write=False)
            self._edge_keys = keys
        return self._edge_keys

    def successor_edge_indices(self, v: int) -> np.ndarray:
        """Indices into the edge arrays of edges leaving *v*."""
        return self._succ_eidx[self._succ_indptr[v] : self._succ_indptr[v + 1]]

    def predecessor_edge_indices(self, v: int) -> np.ndarray:
        """Indices into the edge arrays of edges entering *v*."""
        return self._pred_eidx[self._pred_indptr[v] : self._pred_indptr[v + 1]]

    def successors(self, v: int) -> np.ndarray:
        """Immediate successors of task *v*."""
        return self.edge_dst[self.successor_edge_indices(v)]

    def predecessors(self, v: int) -> np.ndarray:
        """Immediate predecessors of task *v*."""
        return self.edge_src[self.predecessor_edge_indices(v)]

    def successor_lists(self) -> list[list[int]]:
        """Per-task successor ids as plain Python lists (cached).

        ``successor_lists()[v]`` holds the same ids in the same order as
        :meth:`successors`, but as Python ints.  Scalar graph walks (the
        GA's randomized topological sorts run thousands per optimization)
        iterate these lists several times faster than numpy slices.
        Callers must not mutate the returned lists.
        """
        if self._succ_lists is None:
            succ: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in zip(self.edge_src.tolist(), self.edge_dst.tolist()):
                succ[u].append(v)
            self._succ_lists = succ
        return self._succ_lists

    def in_degree(self) -> np.ndarray:
        """In-degree of every task."""
        return np.bincount(self.edge_dst, minlength=self.n)

    def out_degree(self) -> np.ndarray:
        """Out-degree of every task."""
        return np.bincount(self.edge_src, minlength=self.n)

    def data_size(self, u: int, v: int) -> float:
        """Data transferred along edge ``(u, v)``; raises if absent."""
        for e in self.successor_edge_indices(u):
            if self.edge_dst[e] == v:
                return float(self.edge_data[e])
        raise KeyError(f"edge ({u}, {v}) not in task graph")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether precedence edge ``(u, v)`` exists."""
        return bool(np.any(self.edge_dst[self.successor_edge_indices(u)] == v))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(u, v, data_size)`` triples in canonical order."""
        for u, v, d in zip(self.edge_src, self.edge_dst, self.edge_data):
            yield int(u), int(v), float(d)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _kahn_topological_order(self) -> np.ndarray:
        """The lexicographically smallest topological order; raises on cycles.

        A min-heap Kahn pass over Python lists taken once from the
        by-source CSR.
        """
        n = self.n
        succ = self.edge_dst.tolist()
        ptr = self._succ_indptr.tolist()
        indeg = np.diff(self._pred_indptr).tolist()
        ready = [v for v in range(n) if not indeg[v]]  # sorted, so a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in succ[ptr[v] : ptr[v + 1]]:
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
        if len(order) != n:
            raise ValueError("task graph contains a cycle")
        return np.array(order, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph(name={self.name!r}, n={self.n}, edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.edge_src, other.edge_src)
            and np.array_equal(self.edge_dst, other.edge_dst)
            and np.array_equal(self.edge_data, other.edge_data)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edge_src.tobytes(), self.edge_dst.tobytes()))
