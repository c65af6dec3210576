"""Shared machinery for insertion-based list schedulers.

HEFT, CPOP and min-min all share the same inner loop: maintain a partial
schedule, compute each candidate's earliest start/finish time on every
processor with the *insertion* policy (a task may fill an idle gap between
two already-placed tasks), and commit the best placement.
:class:`PartialSchedule` implements that machinery once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.schedule.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.scheduler import ComponentScheduler

__all__ = ["Scheduler", "PartialSchedule", "MinMinScheduler"]


@runtime_checkable
class Scheduler(Protocol):
    """Anything that maps a problem to a schedule."""

    name: str

    def schedule(self, problem: SchedulingProblem) -> Schedule:
        """Produce a complete valid schedule for *problem*."""
        ...  # pragma: no cover - protocol


@dataclass
class _Slot:
    """A placed task interval on a processor (kept sorted by start)."""

    start: float
    finish: float
    task: int


@dataclass
class PartialSchedule:
    """Incrementally built schedule with insertion-based EFT queries.

    Parameters
    ----------
    problem:
        The scheduling problem; the expected execution-time matrix drives
        all placement decisions (the paper's information model).
    append_only:
        When true, :meth:`eft` never fills idle gaps between already
        placed tasks — a task can only start after the processor's last
        committed finish (the component algebra's ``append`` insertion
        policy).  The default preserves the classic insertion policy.

    Notes
    -----
    ``eft(task, proc)`` is side-effect free; ``place(task, proc)`` commits
    and ``unplace(task)`` is its exact inverse (used by lookahead
    selection to probe placements).  A task may only be placed after all
    its predecessors (the caller's priority order must be topological
    over placed prefixes, which holds for rank-based and ready-list
    orders alike).
    """

    problem: SchedulingProblem
    append_only: bool = False
    slots: list[list[_Slot]] = field(init=False)
    finish_time: np.ndarray = field(init=False)
    proc_of: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.slots = [[] for _ in range(self.problem.m)]
        self.finish_time = np.full(self.problem.n, np.nan, dtype=np.float64)
        self.proc_of = np.full(self.problem.n, -1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_placed(self, task: int) -> bool:
        """Whether *task* has been committed."""
        return self.proc_of[task] >= 0

    def ready_time(self, task: int, proc: int) -> float:
        """Earliest moment all of *task*'s input data is available on *proc*.

        Raises if a predecessor is not yet placed.
        """
        graph = self.problem.graph
        platform = self.problem.platform
        ready = 0.0
        for e in graph.predecessor_edge_indices(task):
            u = int(graph.edge_src[e])
            if not self.is_placed(u):
                raise ValueError(
                    f"cannot query task {task}: predecessor {u} not placed"
                )
            arrival = self.finish_time[u] + platform.comm_time(
                float(graph.edge_data[e]), int(self.proc_of[u]), proc
            )
            ready = max(ready, arrival)
        return ready

    def _find_slot(self, proc: int, ready: float, duration: float) -> float:
        """Insertion policy: earliest start >= *ready* of a *duration* gap."""
        if self.append_only:
            row = self.slots[proc]
            return max(ready, row[-1].finish if row else 0.0)
        prev_finish = 0.0
        for slot in self.slots[proc]:
            start = max(ready, prev_finish)
            if start + duration <= slot.start:
                return start
            prev_finish = slot.finish
        return max(ready, prev_finish)

    def eft(self, task: int, proc: int) -> tuple[float, float]:
        """Earliest (start, finish) of *task* on *proc* under insertion."""
        duration = float(self.problem.expected_times[task, proc])
        start = self._find_slot(proc, self.ready_time(task, proc), duration)
        return start, start + duration

    def best_processor(self, task: int) -> tuple[int, float, float]:
        """Processor minimizing EFT (ties to the lowest index).

        Returns ``(proc, start, finish)``.
        """
        best: tuple[int, float, float] | None = None
        for p in range(self.problem.m):
            start, fin = self.eft(task, p)
            if best is None or fin < best[2]:
                best = (p, start, fin)
        assert best is not None
        return best

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def place(self, task: int, proc: int) -> tuple[float, float]:
        """Commit *task* to *proc* at its insertion-based EFT slot."""
        if self.is_placed(task):
            raise ValueError(f"task {task} already placed")
        start, fin = self.eft(task, proc)
        entry = _Slot(start=start, finish=fin, task=task)
        row = self.slots[proc]
        # Keep the slot list sorted by start time.
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid].start < start:
                lo = mid + 1
            else:
                hi = mid
        row.insert(lo, entry)
        self.finish_time[task] = fin
        self.proc_of[task] = proc
        return start, fin

    def unplace(self, task: int) -> None:
        """Exact inverse of :meth:`place` (lookahead probing).

        Only safe for a task none of whose successors have been placed —
        which is always true for the most recently placed task of any
        topological placement order.
        """
        proc = int(self.proc_of[task])
        if proc < 0:
            raise ValueError(f"task {task} is not placed")
        row = self.slots[proc]
        for i, slot in enumerate(row):
            if slot.task == task:
                del row[i]
                break
        else:  # pragma: no cover - place() always records the slot
            raise RuntimeError(f"slot for task {task} missing on proc {proc}")
        self.finish_time[task] = np.nan
        self.proc_of[task] = -1

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def proc_orders(self) -> list[np.ndarray]:
        """The placed tasks of every processor, by start time."""
        return [
            np.asarray([s.task for s in row], dtype=np.int64) for row in self.slots
        ]

    def to_schedule(self) -> Schedule:
        """Freeze into a :class:`Schedule` (all tasks must be placed)."""
        if np.any(self.proc_of < 0):
            missing = np.flatnonzero(self.proc_of < 0)
            raise ValueError(f"tasks not yet placed: {missing.tolist()}")
        return Schedule(self.problem, self.proc_orders())


def average_execution_times(problem: SchedulingProblem) -> np.ndarray:
    """Mean expected execution time of every task across processors."""
    return problem.expected_times.mean(axis=1)


def average_comm_costs(problem: SchedulingProblem) -> np.ndarray:
    """Mean communication cost of every edge across distinct processor pairs.

    Aligned with the graph's canonical edge order; zero on single-processor
    platforms.
    """
    return problem.graph.edge_data * problem.platform.mean_inverse_rate


def MinMinScheduler() -> ComponentScheduler:
    """DAG min-min, catalogue entry ``minmin``.

    At every step, compute each *ready* task's best (insertion-based)
    earliest finish time over all processors, then commit the ready task
    whose best EFT is smallest; ties break toward the smaller task id.
    """
    from repro.algebra.catalogue import component_scheduler

    return component_scheduler("minmin")
