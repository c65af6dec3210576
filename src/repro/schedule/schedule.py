"""Schedule representation and disjunctive-graph construction.

A schedule ``s = {s_1, ..., s_m}`` gives, for every processor, the ordered
list of tasks assigned to it (paper Sec. 3.1).  Construction immediately
builds the *disjunctive graph* ``G_s`` (Def. 3.1): the task-graph edges plus
zero-data chain edges between consecutive tasks on the same processor, with
communication on same-processor edges zeroed (Eqn. 1).  A schedule whose
disjunctive graph is cyclic (processor orders contradicting precedence) is
rejected at construction.

Because task durations do not change ``G_s``'s *structure*, the expensive
parts — CSR indexes and a topological order — are computed once here and
reused by every evaluation, including the batched Monte-Carlo passes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.graph.analysis import ArrayDag
from repro.graph.topology import is_topological_order

__all__ = ["Schedule"]


class Schedule:
    """An assignment of all tasks to processors with per-processor orders.

    Parameters
    ----------
    problem:
        The scheduling problem this schedule solves.
    proc_orders:
        One sequence of task ids per processor (``m`` sequences); together
        they must form a partition of ``0..n-1``.  Empty processors are
        allowed (the paper's Fig. 1 example has one).

    Raises
    ------
    ValueError
        If the orders are not a partition of the tasks, or the induced
        disjunctive graph is cyclic (the processor orders are incompatible
        with the precedence constraints).

    Notes
    -----
    Exposed derived data:

    ``proc_of``
        ``(n,)`` processor index of every task.
    ``rank_on_proc``
        ``(n,)`` position of every task within its processor's order.
    ``disjunctive``
        The :class:`~repro.graph.analysis.ArrayDag` of ``G_s``.
    ``comm_weights``
        Per-disjunctive-edge communication time (expected == realized: the
        paper holds transfer rates deterministic).
    """

    __slots__ = (
        "problem",
        "proc_orders",
        "proc_of",
        "rank_on_proc",
        "disjunctive",
        "comm_weights",
        "_expected_eval",
    )

    def __init__(
        self,
        problem: SchedulingProblem,
        proc_orders: Sequence[Iterable[int]],
        *,
        _topo: np.ndarray | None = None,
    ) -> None:
        self.problem = problem
        n, m = problem.n, problem.m
        if len(proc_orders) != m:
            raise ValueError(
                f"expected {m} processor orders, got {len(proc_orders)}"
            )
        orders = [np.asarray(list(o), dtype=np.int64) for o in proc_orders]

        # Vectorized partition validation: the orders must cover 0..n-1
        # exactly once.  The error path falls back to the original
        # per-element scan so messages stay byte-identical.
        sizes = np.array([t.size for t in orders], dtype=np.int64)
        flat = np.concatenate(orders) if orders else np.empty(0, dtype=np.int64)
        total = int(flat.size)
        ok = total == n and (
            total == 0
            or (
                flat.min() >= 0
                and flat.max() < n
                and not np.any(np.bincount(flat, minlength=n) != 1)
            )
        )
        if not ok:
            self._raise_invalid_partition(n, orders)

        proc_id = np.repeat(np.arange(m, dtype=np.int64), sizes)
        proc_of = np.empty(n, dtype=np.int64)
        proc_of[flat] = proc_id
        rank = np.empty(n, dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        rank[flat] = np.arange(total, dtype=np.int64) - np.repeat(offsets, sizes)

        self.proc_orders = tuple(orders)
        self.proc_of = proc_of
        self.rank_on_proc = rank

        graph = problem.graph
        platform = problem.platform

        # Disjunctive edge list: original DAG edges first (comm time per
        # Eqn. 1: zero when both endpoints share a processor), then chain
        # edges between consecutive same-processor tasks not already in E.
        src_parts = [graph.edge_src]
        dst_parts = [graph.edge_dst]
        w_dag = platform.comm_times(
            graph.edge_data, proc_of[graph.edge_src], proc_of[graph.edge_dst]
        )
        w_parts = [w_dag]

        # Consecutive same-processor pairs, deduplicated against the DAG
        # edges by searchsorted membership on the graph's sorted edge keys.
        if total >= 2:
            same = proc_id[1:] == proc_id[:-1]
            ca = flat[:-1][same]
            cb = flat[1:][same]
            edge_keys = graph.edge_keys
            if edge_keys.size:
                keys = ca * np.int64(n) + cb
                pos = np.searchsorted(edge_keys, keys)
                pos_clip = np.minimum(pos, edge_keys.size - 1)
                is_dag_edge = edge_keys[pos_clip] == keys
                ca = ca[~is_dag_edge]
                cb = cb[~is_dag_edge]
            if ca.size:
                src_parts.append(ca)
                dst_parts.append(cb)
                w_parts.append(np.zeros(ca.size, dtype=np.float64))

        dis_src = np.concatenate(src_parts)
        dis_dst = np.concatenate(dst_parts)
        if _topo is not None:
            # _topo is a proven topological order of G_s (from_assignment
            # verifies the scheduling string against the task graph; chain
            # edges follow the string by construction), so the build can
            # skip the peel and its cycle check.
            self.disjunctive = ArrayDag(n, dis_src, dis_dst, topo=_topo)
        else:
            try:
                self.disjunctive = ArrayDag.build(n, dis_src, dis_dst)
            except ValueError as exc:
                raise ValueError(
                    "invalid schedule: processor orders contradict the "
                    "task-graph precedence constraints (disjunctive graph "
                    "is cyclic)"
                ) from exc
        self.comm_weights = np.concatenate(w_parts)
        self.comm_weights.setflags(write=False)
        self.proc_of.setflags(write=False)
        self.rank_on_proc.setflags(write=False)
        self._expected_eval = None  # lazily filled by evaluation.evaluate

    @staticmethod
    def _raise_invalid_partition(n: int, orders: list[np.ndarray]) -> None:
        """Slow path: rescan per element to raise the exact original error."""
        seen = np.zeros(n, dtype=bool)
        for p, tasks in enumerate(orders):
            for v in tasks:
                v = int(v)
                if not (0 <= v < n):
                    raise ValueError(f"task id {v} out of range on processor {p}")
                if seen[v]:
                    raise ValueError(f"task {v} assigned to more than one slot")
                seen[v] = True
        missing = np.flatnonzero(~seen)
        raise ValueError(f"tasks not assigned to any processor: {missing.tolist()}")

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_assignment(
        cls,
        problem: SchedulingProblem,
        order: np.ndarray,
        proc_of: np.ndarray,
    ) -> "Schedule":
        """Build from a global task order plus a processor map.

        This is the GA decode (Sec. 4.2.1): the *scheduling string* ``order``
        (a topological sort of the task graph) is filtered per processor to
        produce the assignment strings, so each processor executes its tasks
        in scheduling-string order.
        """
        order = np.asarray(order, dtype=np.int64)
        proc_of = np.asarray(proc_of, dtype=np.int64)
        n, m = problem.n, problem.m
        if order.shape != (n,):
            raise ValueError(f"order must be a permutation of {n} tasks")
        if proc_of.shape != (n,):
            raise ValueError(f"proc_of must have shape ({n},), got {proc_of.shape}")
        if np.any((proc_of < 0) | (proc_of >= m)):
            raise ValueError("processor index out of range in proc_of")

        # When the scheduling string is a genuine topological order of the
        # task graph (the GA chromosome invariant), it is also one of the
        # disjunctive graph: chain edges connect string-consecutive tasks.
        # Handing it to the constructor lets ArrayDag skip its peel/cycle
        # check.  Anything suspect falls back to the validating path so
        # error behaviour is unchanged.
        topo = order if is_topological_order(problem.graph, order) else None

        assigned = proc_of[order]
        orders = [order[assigned == p] for p in range(m)]
        return cls(problem, orders, _topo=topo)

    # ------------------------------------------------------------------ #
    # Duration helpers
    # ------------------------------------------------------------------ #

    def expected_durations(self) -> np.ndarray:
        """Expected duration of each task on its assigned processor."""
        return self.problem.uncertainty.expected_durations(self.proc_of)

    def realize_durations(
        self, n_realizations: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Sample ``(n_realizations, n)`` actual durations for this schedule."""
        return self.problem.uncertainty.realize_durations(
            self.proc_of, n_realizations, rng
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of tasks."""
        return self.problem.n

    @property
    def m(self) -> int:
        """Number of processors."""
        return self.problem.m

    def linear_order(self) -> np.ndarray:
        """A global task order consistent with ``G_s`` (its topo order)."""
        return self.disjunctive.topo

    def as_pairs(self) -> list[list[tuple[int, int]]]:
        """The paper's notation: per-processor consecutive-task pairs.

        The schedule of Fig. 1(c) renders as
        ``[[(0, 1), (1, 3)], [(2, 4), (4, 7)], [(5, 6)], []]`` (0-based).
        """
        return [
            [(int(a), int(b)) for a, b in zip(tasks[:-1], tasks[1:])]
            for tasks in self.proc_orders
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.problem is other.problem and all(
            np.array_equal(a, b)
            for a, b in zip(self.proc_orders, other.proc_orders)
        )

    def __hash__(self) -> int:
        return hash((id(self.problem), tuple(t.tobytes() for t in self.proc_orders)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(t) for t in self.proc_orders]
        return f"Schedule(n={self.n}, m={self.m}, tasks_per_proc={sizes})"
