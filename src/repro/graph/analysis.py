"""Longest-path analysis on weighted DAGs (top/bottom levels, critical path).

The paper's central quantities — makespan (Claim 3.2), top level ``Tl``,
bottom level ``Bl`` and slack (Def. 3.3) — are all longest-path computations
on a node- and edge-weighted DAG.  This module implements them once, over a
compact array representation (:class:`ArrayDag`), so that

* plain task-graph analysis (priorities for HEFT/CPOP, generator stats) and
* disjunctive-graph schedule evaluation (:mod:`repro.schedule.evaluation`)

share a single, well-tested kernel.

The level passes (``top_levels``, ``bottom_levels``, ``critical_path``)
take one ``(n,)`` weight vector and relax a cached edge list in
topological order with Python floats (numpy per-element overhead would
dominate at that size).  ``finish_times`` and ``makespan`` also take
batched ``(..., n)`` weights — the Monte-Carlo realizations of Sec. 5 —
and run one forward pass over a node-major ``(n, R)`` layout,
``ft[v] = w[v] + max over in-edges (ft[u] + c)``, node by node in
topological order.  With the optional C library
(:mod:`repro.graph._native`) that pass is ``ft_forward``; without it, a
numpy pass runs the same recurrence one ``(R,)`` row per node, bit for
bit.

Everything not needed by the GA decode→evaluate hot loop — CSR indexes,
the canonical topological order, the relaxation-ordered edge lists — is
built lazily on first use and cached (the structure is immutable).

The original per-node passes live on in
``tests/unit/test_kernel_equivalence.py`` as the reference that every
implementation must match bit-for-bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph import _native
from repro.graph.taskgraph import TaskGraph, _build_csr
from repro.obs import runtime as _obs

__all__ = [
    "ArrayDag",
    "critical_path",
    "critical_path_length",
    "dag_levels",
]


class ArrayDag:
    """Edge-array DAG with topological levels and longest-path passes.

    Attributes
    ----------
    n:
        Number of nodes.
    edge_src, edge_dst:
        Edge endpoint arrays of shape ``(m,)``.
    level:
        ``(n,)`` topological depth of every node: the longest edge-count
        path from an entry node (entries have level 0).  Computed on
        first access when the DAG was built from a trusted topological
        order (the acyclicity check moves there too).
    depth:
        Number of distinct levels (``level.max() + 1``); lazy like
        ``level``.
    pred_indptr, pred_eidx / succ_indptr, succ_eidx:
        CSR grouping of edge indices by destination / source node, each
        direction built on its first read.
    topo:
        A valid deterministic topological order (``(n,)`` permutation),
        computed lazily on first access (the numpy passes do not need it;
        the C forward pass and ``Schedule.linear_order`` do).
    """

    __slots__ = (
        "n",
        "edge_src",
        "edge_dst",
        "_level",
        "_depth",
        "_succ_adj",
        "_pred",
        "_succ",
        "_topo",
        "_fwd_edges",
        "_bwd_edges",
        "_sinks",
        "_entries",
        "_scratch",
    )

    def __init__(
        self,
        n: int,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        *,
        topo: np.ndarray | None = None,
    ) -> None:
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        m = edge_src.shape[0]
        if edge_dst.shape != (m,):
            raise ValueError("edge_src and edge_dst must have the same length")
        if m and (
            edge_src.min() < 0
            or edge_dst.min() < 0
            or edge_src.max() >= n
            or edge_dst.max() >= n
        ):
            raise ValueError("edge endpoint out of range")

        self.n = int(n)
        self.edge_src = edge_src
        self.edge_dst = edge_dst

        self._level = None
        self._depth = None
        self._succ_adj = None
        self._pred = None
        self._succ = None
        self._topo = None
        self._fwd_edges = None
        self._bwd_edges = None
        self._sinks = None
        self._entries = None
        self._scratch = {}

        if topo is not None:
            # Trusted fast path: the caller vouches that *topo* is a valid
            # topological order of the edge set (the GA decode derives one
            # structurally from the chromosome's scheduling string).  The
            # peel — and with it the acyclicity check — is deferred until
            # something actually needs topological depths.
            self._topo = np.ascontiguousarray(topo, dtype=np.int64)
        else:
            self._peel()

    def _peel(self) -> None:
        """Level peel in plain Python over adjacency lists.

        For the one-shot builds of the GA loop (one ArrayDag per decoded
        schedule) this is several times faster than per-level numpy
        passes, and it doubles as the acyclicity check.  O(n + m).
        Fills ``_level``, ``_depth`` and ``_succ_adj``.
        """
        succ_adj: list[list[int]] = [[] for _ in range(self.n)]
        indeg = [0] * self.n
        for s, d in zip(self.edge_src.tolist(), self.edge_dst.tolist()):
            succ_adj[s].append(d)
            indeg[d] += 1
        level = [0] * self.n
        frontier = [v for v in range(self.n) if indeg[v] == 0]
        removed = 0
        d = 0
        while frontier:
            removed += len(frontier)
            nxt: list[int] = []
            for v in frontier:
                level[v] = d
                for w in succ_adj[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        nxt.append(w)
            frontier = nxt
            d += 1
        if removed != self.n:
            raise ValueError("graph contains a cycle")

        self._level = np.asarray(level, dtype=np.int64)
        self._depth = d if self.n else 0
        self._succ_adj = succ_adj

    @property
    def level(self) -> np.ndarray:
        """``(n,)`` topological depth of every node (lazy on trusted builds)."""
        if self._level is None:
            self._peel()
        return self._level

    @property
    def depth(self) -> int:
        """Number of distinct levels (lazy on trusted builds)."""
        if self._depth is None:
            self._peel()
        return self._depth

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def build(n: int, edge_src: np.ndarray, edge_dst: np.ndarray) -> "ArrayDag":
        """Build the DAG representation (levels, acyclicity check).

        Raises
        ------
        ValueError
            If the edge set contains a cycle.
        """
        return ArrayDag(n, edge_src, edge_dst)

    @staticmethod
    def from_taskgraph(graph: TaskGraph) -> "ArrayDag":
        """View a :class:`TaskGraph`'s structure as an :class:`ArrayDag`.

        The result is cached on the graph (task graphs are immutable), so
        repeated calls — ``critical_path_length``, ``critical_path`` and
        ``dag_levels`` on the same graph — build it once.  It adopts the
        graph's own CSR indexes, which hold the same groupings the stable
        sorts would build, and the graph's canonical order as its trusted
        ``topo``: the graph proved it acyclic and it is the same
        lexicographically smallest order, so the level peel waits for the
        first read of ``level`` or ``depth``, as on a GA decode.
        """
        dag = graph._dag
        if dag is None:
            dag = ArrayDag(
                graph.n, graph.edge_src, graph.edge_dst, topo=graph.topological
            )
            dag._pred = graph._pred_indptr, graph._pred_eidx
            dag._succ = graph._succ_indptr, graph._succ_eidx
            graph._dag = dag
        return dag

    # ------------------------------------------------------------------ #
    # Lazy derived structure
    # ------------------------------------------------------------------ #

    def _pred_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The by-destination CSR, built on its first read."""
        if self._pred is None:
            self._pred = _build_csr(self.n, self.edge_dst)
        return self._pred

    def _succ_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The by-source CSR, built on its first read."""
        if self._succ is None:
            self._succ = _build_csr(self.n, self.edge_src)
        return self._succ

    @property
    def pred_indptr(self) -> np.ndarray:
        """CSR row pointer of the by-destination edge grouping (lazy)."""
        return self._pred_csr()[0]

    @property
    def pred_eidx(self) -> np.ndarray:
        """Edge indices sorted by destination node (lazy)."""
        return self._pred_csr()[1]

    @property
    def succ_indptr(self) -> np.ndarray:
        """CSR row pointer of the by-source edge grouping (lazy)."""
        return self._succ_csr()[0]

    @property
    def succ_eidx(self) -> np.ndarray:
        """Edge indices sorted by source node (lazy)."""
        return self._succ_csr()[1]

    @property
    def topo(self) -> np.ndarray:
        """Deterministic topological order (lexicographically smallest).

        Computed lazily with heap-based Kahn on first access; the numpy
        passes order their edges by :meth:`_relax_key` instead, so only
        the C forward pass and ``Schedule.linear_order`` pay this cost.
        """
        if self._topo is None:
            indeg = [0] * self.n
            for d in self.edge_dst.tolist():
                indeg[d] += 1
            ready = [v for v in range(self.n) if indeg[v] == 0]
            heapq.heapify(ready)
            topo = []
            succ_adj = self._succ_adj
            while ready:
                v = heapq.heappop(ready)
                topo.append(v)
                for w in succ_adj[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        heapq.heappush(ready, w)
            # __init__ already rejected cycles, so every node is listed.
            self._topo = np.asarray(topo, dtype=np.int64)
        return self._topo

    def pred_edges(self, v: int) -> np.ndarray:
        """Edge indices entering node *v*."""
        return self.pred_eidx[self.pred_indptr[v] : self.pred_indptr[v + 1]]

    def succ_edges(self, v: int) -> np.ndarray:
        """Edge indices leaving node *v*."""
        return self.succ_eidx[self.succ_indptr[v] : self.succ_indptr[v + 1]]

    def _relax_key(self) -> np.ndarray:
        """Per-node key that strictly increases along every edge.

        The numpy passes only need *some* relaxation-compatible edge
        order, so a trusted topological order (whose inverse permutation
        costs two vector ops) serves as well as the peeled levels without
        forcing the peel; results are bit-identical either way because
        ``max`` over the same candidate set is order-independent.
        """
        if self._level is None and self._topo is not None:
            pos = np.empty(self.n, dtype=np.int64)
            pos[self._topo] = np.arange(self.n, dtype=np.int64)
            return pos
        return self.level

    def _edges_levelwise(self, *, forward: bool) -> tuple[list[int], list[int], list[int]]:
        """Edge endpoints/ids as Python lists in relaxation order.

        Forward: ascending key of ``dst`` (ties by ``dst``); backward:
        descending key of ``src`` (ties by ``src``), where the key is the
        topological depth or a trusted topological position
        (:meth:`_relax_key`).  Cached; feeds the scalar 1-D passes and the
        numpy forward pass.
        """
        if forward:
            if self._fwd_edges is None:
                key = self._relax_key()[self.edge_dst]
                order = np.lexsort((self.edge_dst, key))
                self._fwd_edges = (
                    self.edge_src[order].tolist(),
                    self.edge_dst[order].tolist(),
                    order.tolist(),
                )
            return self._fwd_edges
        if self._bwd_edges is None:
            key = -self._relax_key()[self.edge_src]
            order = np.lexsort((self.edge_src, key))
            self._bwd_edges = (
                self.edge_src[order].tolist(),
                self.edge_dst[order].tolist(),
                order.tolist(),
            )
        return self._bwd_edges

    @property
    def entries(self) -> np.ndarray:
        """Nodes with no predecessors (cached)."""
        if self._entries is None:
            indeg = np.bincount(self.edge_dst, minlength=self.n)
            self._entries = np.flatnonzero(indeg == 0)
        return self._entries

    @property
    def sinks(self) -> np.ndarray:
        """Nodes with no successors (cached)."""
        if self._sinks is None:
            outdeg = np.bincount(self.edge_src, minlength=self.n)
            self._sinks = np.flatnonzero(outdeg == 0)
        return self._sinks

    def _get_scratch(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Reusable node-major ``(ft, nw)`` buffers for one batch width.

        ``ft`` receives the finish times and ``nw`` the transposed node
        weights.  Cached per batch width so repeated Monte-Carlo passes of
        the same shape pay no allocation or page-fault cost.  Kernels must
        copy anything they return (the next call overwrites the buffers).
        """
        sc = self._scratch.get(batch)
        if sc is None:
            sc = (np.empty((self.n, batch)), np.empty((self.n, batch)))
            self._scratch[batch] = sc
        return sc

    # ------------------------------------------------------------------ #
    # Level passes (one weight vector)
    # ------------------------------------------------------------------ #

    def _check_weights(
        self, node_w: np.ndarray, edge_w: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        node_w = np.asarray(node_w, dtype=np.float64)
        if node_w.shape[-1] != self.n:
            raise ValueError(
                f"node weights last axis must be n={self.n}, got {node_w.shape}"
            )
        m = self.edge_src.shape[0]
        if edge_w is None:
            edge_w = np.zeros(m, dtype=np.float64)
        else:
            edge_w = np.asarray(edge_w, dtype=np.float64)
            if edge_w.shape != (m,):
                raise ValueError(f"edge weights must have shape ({m},), got {edge_w.shape}")
        return node_w, edge_w

    def _check_vector(
        self, name: str, node_w: np.ndarray, edge_w: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_check_weights` for the passes that take one ``(n,)`` vector."""
        node_w = np.asarray(node_w, dtype=np.float64)
        if node_w.ndim != 1:
            raise ValueError(f"{name} requires 1-D node weights")
        return self._check_weights(node_w, edge_w)

    def top_levels(
        self, node_w: np.ndarray, edge_w: np.ndarray | None = None
    ) -> np.ndarray:
        """Top level ``Tl(v)``: longest entry→v path length, *excluding* v.

        Path length sums node and edge weights along the path (Def. 3.3).
        ``node_w`` is one ``(n,)`` vector; batches of weights go through
        :meth:`finish_times` or :meth:`makespan`.
        """
        node_w, edge_w = self._check_vector("top_levels", node_w, edge_w)
        src, dst, eidx = self._edges_levelwise(forward=True)
        tl = [0.0] * self.n
        w = node_w.tolist()
        ew = edge_w.tolist()
        prev = -1
        # First candidate overwrites (the reference scatters the plain
        # candidate max, with no zero floor for non-entry nodes); edges
        # of one destination are contiguous after the lexsort.
        for s, t, e in zip(src, dst, eidx):
            cand = tl[s] + w[s] + ew[e]
            if t != prev:
                tl[t] = cand
                prev = t
            elif cand > tl[t]:
                tl[t] = cand
        return np.asarray(tl, dtype=np.float64)

    def bottom_levels(
        self, node_w: np.ndarray, edge_w: np.ndarray | None = None
    ) -> np.ndarray:
        """Bottom level ``Bl(v)``: longest v→exit path length, *including* v.

        ``node_w`` is one ``(n,)`` vector, as for :meth:`top_levels`.
        """
        node_w, edge_w = self._check_vector("bottom_levels", node_w, edge_w)
        src, dst, eidx = self._edges_levelwise(forward=False)
        w = node_w.tolist()
        bl = list(w)
        ew = edge_w.tolist()
        prev = -1
        for s, t, e in zip(src, dst, eidx):
            # fp-safe: max commutes with the (monotone) addition of w[s],
            # so this matches the reference's "max, then add" exactly.
            val = w[s] + (bl[t] + ew[e])
            if s != prev:
                bl[s] = val
                prev = s
            elif val > bl[s]:
                bl[s] = val
        return np.asarray(bl, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def _finish_node_major(self, node_w: np.ndarray, edge_w: np.ndarray) -> np.ndarray:
        """Finish times of a flattened batch, in node-major scratch layout.

        ``node_w`` is ``(B, n)``; the returned ``(n, B)`` array is a view
        into scratch (callers must copy what they keep).  Folding the node
        weight into the recurrence (``ft[v] = w[v] + max(ft[u] + c(u,v))``)
        adds ``w`` once per node, where ``Tl``'s candidates
        ``tl[u] + w[u] + c`` add it once per in-edge, and is float-exact:
        adding ``w`` is monotone, so it commutes with ``max`` bit-for-bit.

        The C kernel runs every batch when the library is loaded; the numpy
        pass is the always-available fallback and produces bit-identical
        results.
        """
        lib = _native.get_lib()
        if _obs.enabled():
            # Which implementation ran — surfaces silent numpy fallbacks
            # (no compiler, REPRO_NATIVE=0).
            _obs.add(
                "kernel.batch_forward.numpy"
                if lib is None
                else "kernel.batch_forward.native"
            )
        if lib is None:
            return self._finish_node_major_numpy(node_w, edge_w)
        return self._finish_node_major_native(lib, node_w, edge_w)

    def _finish_node_major_native(
        self, lib, node_w: np.ndarray, edge_w: np.ndarray
    ) -> np.ndarray:
        """C forward pass ``ft_forward`` (see :mod:`repro.graph._native`)."""
        ft, nw = self._get_scratch(node_w.shape[0])
        np.copyto(nw, node_w.T)
        edge_w = np.ascontiguousarray(edge_w)
        lib.ft_forward(
            self.n,
            nw.shape[1],
            self.topo.ctypes.data,
            self.pred_indptr.ctypes.data,
            self.pred_eidx.ctypes.data,
            self.edge_src.ctypes.data,
            edge_w.ctypes.data,
            nw.ctypes.data,
            ft.ctypes.data,
        )
        return ft

    def _finish_node_major_numpy(
        self, node_w: np.ndarray, edge_w: np.ndarray
    ) -> np.ndarray:
        """Numpy forward pass: ``ft_forward``'s recurrence, one row per node.

        An entry's row is ``0.0 + w``, as in the C kernel and the
        reference (a ``-0.0`` weight finishes at ``+0.0``).  Every other
        node's in-edges come grouped in relaxation order (the scalar
        passes' edge list): the first writes ``ft[u] + c`` into the node's
        row, each later one takes the elementwise max with its own
        candidate, and the node's weights are added once its group ends,
        before any out-edge of the node is read.
        """
        ft, nw = self._get_scratch(node_w.shape[0])
        np.copyto(nw, node_w.T)
        entries = self.entries
        ft[entries] = nw[entries] + 0.0
        src, dst, eidx = self._edges_levelwise(forward=True)
        rows, w_rows = list(ft), list(nw)
        ew = edge_w.tolist()
        cand = np.empty(nw.shape[1])
        prev = -1
        for s, t, e in zip(src, dst, eidx):
            row = rows[t]
            if t != prev:
                if prev >= 0:
                    rows[prev] += w_rows[prev]
                np.add(rows[s], ew[e], out=row)
                prev = t
            else:
                np.add(rows[s], ew[e], out=cand)
                np.maximum(row, cand, out=row)
        if prev >= 0:
            rows[prev] += w_rows[prev]
        return ft

    def finish_times(
        self, node_w: np.ndarray, edge_w: np.ndarray | None = None
    ) -> np.ndarray:
        """Earliest finish time of every node under as-soon-as-ready start.

        Equals ``Tl(v) + w(v)``; returned directly to save an addition in the
        Monte-Carlo hot loop.
        """
        node_w, edge_w = self._check_weights(node_w, edge_w)
        if node_w.ndim == 1:
            return self.top_levels(node_w, edge_w) + node_w
        batch_shape = node_w.shape[:-1]
        ft = self._finish_node_major(node_w.reshape(-1, self.n), edge_w)
        return np.ascontiguousarray(ft.T).reshape(*batch_shape, self.n)

    def makespan(
        self,
        node_w: np.ndarray,
        edge_w: np.ndarray | None = None,
        *,
        nonnegative: bool = False,
    ) -> np.ndarray | float:
        """Critical-path length = max finish time (Claim 3.2).

        Returns a scalar for 1-D node weights, else an array over the batch
        axes.  ``nonnegative=True`` declares that all weights are >= 0
        (true for task durations and communication times); finish times
        are then non-decreasing along every path, so the final reduction
        only needs the sink nodes instead of all ``n`` — callers that
        validated their inputs (e.g. the Monte-Carlo driver) use this.
        """
        node_w, edge_w = self._check_weights(node_w, edge_w)
        if node_w.ndim == 1:
            fin = self.top_levels(node_w, edge_w) + node_w
            return float(fin.max()) if self.n else 0.0
        batch_shape = node_w.shape[:-1]
        if self.n == 0:
            return np.zeros(batch_shape, dtype=np.float64)
        ft = self._finish_node_major(node_w.reshape(-1, self.n), edge_w)
        if nonnegative:
            out = ft[self.sinks].max(axis=0)
        else:
            out = ft.max(axis=0)
        return out.reshape(batch_shape)

    def critical_path(
        self, node_w: np.ndarray, edge_w: np.ndarray | None = None
    ) -> list[int]:
        """One longest entry→exit path (ties broken toward smaller node id).

        Only defined for unbatched ``(n,)`` weights.
        """
        node_w, edge_w = self._check_vector("critical_path", node_w, edge_w)
        tl = self.top_levels(node_w, edge_w)
        fin = tl + node_w
        makespan = fin.max() if self.n else 0.0
        # Start from the smallest-id exit node achieving the makespan.
        v = int(np.flatnonzero(np.isclose(fin, makespan)).min())
        path = [v]
        while True:
            eidx = self.pred_edges(v)
            if eidx.size == 0:
                break
            src = self.edge_src[eidx]
            cand = tl[src] + node_w[src] + edge_w[eidx]
            hits = np.flatnonzero(np.isclose(cand, tl[v]))
            if hits.size == 0:  # pragma: no cover - numeric safety net
                break
            v = int(src[hits].min())
            path.append(v)
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayDag(n={self.n}, edges={self.edge_src.shape[0]}, "
            f"depth={self.depth})"
        )


# ---------------------------------------------------------------------- #
# TaskGraph-facing convenience API
# ---------------------------------------------------------------------- #


def critical_path_length(
    graph: TaskGraph,
    node_weights: np.ndarray,
    edge_weights: np.ndarray | None = None,
) -> float:
    """Critical-path length of *graph* under the given weights.

    ``edge_weights`` aligns with the graph's canonical edge order and
    defaults to zero (computation-only critical path).
    """
    dag = ArrayDag.from_taskgraph(graph)
    return float(dag.makespan(np.asarray(node_weights, dtype=np.float64), edge_weights))


def critical_path(
    graph: TaskGraph,
    node_weights: np.ndarray,
    edge_weights: np.ndarray | None = None,
) -> list[int]:
    """One critical path of *graph* under the given weights."""
    dag = ArrayDag.from_taskgraph(graph)
    return dag.critical_path(np.asarray(node_weights, dtype=np.float64), edge_weights)


def dag_levels(graph: TaskGraph) -> np.ndarray:
    """Unweighted depth of every node: longest edge-count path from an entry.

    Entries have level 0.  Used by the random-DAG generator's shape
    statistics and by tests.  This is exactly :attr:`ArrayDag.level`,
    which :meth:`ArrayDag.build` computes as its acyclicity check.
    """
    return ArrayDag.from_taskgraph(graph).level.copy()
