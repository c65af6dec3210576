"""Heap-based discrete-event simulation of schedule execution.

Semantics (paper Sec. 3.1 and Claim 3.2):

* every processor executes its assigned tasks strictly in schedule order;
* a task may start once (a) its processor has finished the preceding task
  in the processor's order, and (b) every task-graph predecessor has
  finished *and its data has arrived* (finish + communication time, zero
  for same-processor transfers);
* communications are contention-free and overlap with computation.

The implementation is deliberately different from
:mod:`repro.schedule.evaluation` (event heap vs. topological array passes)
so the two serve as mutual correctness oracles in the property tests.

The event loop is *fault-aware*: an optional execution environment (see
:class:`repro.faults.environment.FaultEnvironment`) supplies per-processor
speed timelines and link-degradation factors.  With an environment, task
starts stall through outage windows, running work is suspended (progress
kept) and resumed at recovery, slowdown windows stretch executions, and
communication times are scaled by the factor active when the transfer
starts.  A permanent processor failure yields infinite finish times that
propagate to an infinite makespan — never a deadlock.  Without an
environment (the default) the loop is byte-for-byte the paper's
semantics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.schedule.schedule import Schedule

__all__ = ["GanttEntry", "SimulationResult", "simulate"]


def check_env(env, m: int) -> None:
    """Reject an execution environment built for another processor count."""
    if env is not None and env.m != m:
        raise ValueError(f"env models m={env.m} processors, the problem has m={m}")


@dataclass(frozen=True)
class GanttEntry:
    """One bar of the Gantt chart: a task's placement in the execution."""

    task: int
    processor: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        """Execution time of the task in this realization."""
        return self.finish - self.start


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated execution of a schedule."""

    makespan: float
    start_times: np.ndarray
    finish_times: np.ndarray

    def busy_times(self, schedule: Schedule) -> np.ndarray:
        """``(m,)`` total realized compute time on each processor.

        The realized analogue of the expected per-processor loads that
        :meth:`repro.energy.power.PowerModel.energy_of` prices — lets a
        simulated (possibly faulty) run be priced at what actually
        executed instead of what was planned.  Tasks that never finished
        (permanent failure) contribute ``inf`` to their processor.
        """
        busy = np.zeros(schedule.m, dtype=np.float64)
        np.add.at(busy, schedule.proc_of, self.finish_times - self.start_times)
        return busy

    def gantt(self, schedule: Schedule) -> list[GanttEntry]:
        """Gantt entries sorted by (processor, start time)."""
        entries = [
            GanttEntry(
                task=v,
                processor=int(schedule.proc_of[v]),
                start=float(self.start_times[v]),
                finish=float(self.finish_times[v]),
            )
            for v in range(schedule.n)
        ]
        entries.sort(key=lambda e: (e.processor, e.start, e.task))
        return entries


def simulate(
    schedule: Schedule,
    durations: np.ndarray | None = None,
    *,
    env=None,
) -> SimulationResult:
    """Execute *schedule* under *durations* (default: expected durations).

    Parameters
    ----------
    schedule:
        The schedule to execute.
    durations:
        ``(n,)`` actual execution time of every task on its assigned
        processor; defaults to the expected durations.
    env:
        Optional fault environment (duck-typed: its processor count
        ``m``, which must equal the schedule's, ``earliest_start(p, t)``,
        ``finish_time(p, t, work)``, ``comm_factor(src, dst, t)`` — see
        :class:`repro.faults.environment.FaultEnvironment`).  Tasks on a
        processor in outage stall until recovery; permanent failures
        produce infinite finish times and an infinite makespan.

    Returns
    -------
    SimulationResult
        Start/finish times of all tasks and the realized makespan.
    """
    if durations is None:
        durations = schedule.expected_durations()
    durations = np.asarray(durations, dtype=np.float64)
    if durations.shape != (schedule.n,):
        raise ValueError(
            f"durations must have shape ({schedule.n},), got {durations.shape}"
        )
    check_env(env, schedule.m)

    problem = schedule.problem
    graph = problem.graph
    platform = problem.platform
    proc_of = schedule.proc_of
    n, m = schedule.n, schedule.m

    remaining_preds = graph.in_degree().astype(np.int64).copy()
    ready_time = np.zeros(n, dtype=np.float64)  # max over finished preds of arrival
    start = np.full(n, np.nan, dtype=np.float64)
    finish = np.full(n, np.nan, dtype=np.float64)

    next_slot = [0] * m  # index into each processor's order
    proc_free = [0.0] * m

    # Event heap of (finish_time, task). Ties broken by task id for
    # determinism; tie order cannot affect results because all state
    # updates are max-accumulations.
    events: list[tuple[float, int]] = []
    started = np.zeros(n, dtype=bool)

    def try_start(p: int) -> None:
        """Start the next task on processor *p* if its inputs are satisfied."""
        k = next_slot[p]
        order = schedule.proc_orders[p]
        if k >= len(order):
            return
        v = int(order[k])
        if remaining_preds[v] > 0 or started[v]:
            return
        t0 = max(proc_free[p], ready_time[v])
        if env is None:
            f = t0 + durations[v]
        else:
            t0 = env.earliest_start(p, t0)
            f = env.finish_time(p, t0, float(durations[v]))
        start[v] = t0
        finish[v] = f
        started[v] = True
        proc_free[p] = finish[v]
        next_slot[p] += 1
        heapq.heappush(events, (finish[v], v))

    for p in range(m):
        try_start(p)

    completed = 0
    while events:
        t, v = heapq.heappop(events)
        completed += 1
        for e in graph.successor_edge_indices(v):
            w = int(graph.edge_dst[e])
            comm = platform.comm_time(
                float(graph.edge_data[e]), int(proc_of[v]), int(proc_of[w])
            )
            if env is not None and comm > 0.0:
                comm *= env.comm_factor(int(proc_of[v]), int(proc_of[w]), t)
            arrival = t + comm
            if arrival > ready_time[w]:
                ready_time[w] = arrival
            remaining_preds[w] -= 1
        # A completion can unblock the head task of any processor (the
        # successor may sit elsewhere), and frees v's own processor.
        for p in range(m):
            try_start(p)

    if completed != n:  # pragma: no cover - guarded by Schedule validation
        raise RuntimeError(
            "simulation deadlocked: schedule inconsistent with precedence"
        )

    start.setflags(write=False)
    finish.setflags(write=False)
    return SimulationResult(
        makespan=float(finish.max()) if n else 0.0,
        start_times=start,
        finish_times=finish,
    )
