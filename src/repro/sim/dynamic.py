"""Dynamic (online) scheduling baselines.

The paper's introduction names the main alternative to robust *static*
scheduling: "dynamic scheduling algorithm assigns each ready task
according to the current status of the resource environment aiming to
avoid the inaccuracy of execution time estimation".  This module
implements that baseline so the trade-off can be measured:

* tasks are prioritised by HEFT's upward rank (expected times — the only
  timing information available before execution);
* *at runtime*, the moment a task becomes ready it is assigned to the
  processor minimizing its expected finish time given the realized state
  so far (actual predecessor finish times, actual processor queues);
* the task's realized duration is revealed only when it completes.

Because decisions depend on the realization, the "schedule" differs per
run; :func:`repro.faults.assess_robustness_faulty` with
``policy="dynamic"`` measures robustness on the makespan sample exactly
as for static schedules (Defs. 3.6/3.7, with ``M_0`` the makespan of the
run fed the expected durations).

Both rules here, online MCT and semi-dynamic, take the optional fault
environment of :func:`repro.sim.eventsim.simulate`.  A task moved to
another processor ``q`` keeps its *luck fraction* ``u``
(:func:`luck_fractions`) and takes ``low_q + u · (high_q − low_q)``
there, so moving a task never resamples the world.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.heuristics.heft import upward_ranks
from repro.obs import runtime as obs
from repro.sim.eventsim import check_env

__all__ = [
    "DynamicRun",
    "luck_fractions",
    "simulate_dynamic",
    "simulate_semi_dynamic",
]


@dataclass(frozen=True)
class DynamicRun:
    """Outcome of one online-scheduled execution."""

    makespan: float
    proc_of: np.ndarray
    start_times: np.ndarray
    finish_times: np.ndarray


def luck_fractions(
    durations: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Per-task quantile of each realized duration within its support.

    Deterministic tasks (``high == low``) get 0; heavy-tail outliers map
    above 1 and stay outliers on every processor.
    """
    span = high - low
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(span > 0.0, (durations - low) / np.where(span > 0, span, 1.0), 0.0)
    return u


def simulate_dynamic(
    problem: SchedulingProblem,
    durations: np.ndarray,
    priorities: np.ndarray | None = None,
    *,
    env=None,
) -> DynamicRun:
    """Execute *problem* online under one realization of durations.

    Parameters
    ----------
    problem:
        The instance; expected times drive the placement decisions.
    durations:
        ``(n, m)`` realized execution times (only the chosen processor's
        entry is consumed per task) **or** ``(n,)`` per-task durations
        applying to whichever processor is chosen.
    priorities:
        Ready-queue priority per task (larger first); defaults to HEFT
        upward ranks.
    env:
        Optional execution environment, as for
        :func:`repro.sim.eventsim.simulate`.  Placement then prices the
        expected finish time through the processors' speed timelines, so
        a processor in outage or slowed down is priced accordingly and
        one that can never finish the task is never chosen while an
        alternative exists.

    Notes
    -----
    Ready tasks are dispatched immediately (eager MCT policy): on
    becoming ready, a task goes to the processor minimizing
    ``max(processor free time, data arrival) + expected time``.  Eagerness
    means no intentional idling — the classic just-in-time list policy.
    A task no processor can finish (every expected finish is infinite:
    a predecessor never finished, or every processor is dead) is lost:
    it is recorded on processor 0 with infinite start and finish times.
    """
    n, m = problem.n, problem.m
    durations = np.asarray(durations, dtype=np.float64)
    if durations.shape not in ((n, m), (n,)):
        raise ValueError(f"durations must be (n={n}, m={m}) or (n,), got {durations.shape}")
    per_proc = durations.ndim == 2
    check_env(env, m)

    graph = problem.graph
    platform = problem.platform
    expected = problem.expected_times
    if priorities is None:
        priorities = upward_ranks(problem)

    remaining = graph.in_degree().astype(np.int64).copy()
    finish = np.full(n, np.nan, dtype=np.float64)
    start = np.full(n, np.nan, dtype=np.float64)
    proc_of = np.full(n, -1, dtype=np.int64)
    proc_free = np.zeros(m, dtype=np.float64)

    def dispatch(v: int, now: float) -> None:
        """Assign ready task *v* using expected times and realized state."""
        preds = []
        for e in graph.predecessor_edge_indices(v):
            u = int(graph.edge_src[e])
            preds.append((float(finish[u]), int(proc_of[u]), float(graph.edge_data[e])))
        best_p, best_est, best_eft = 0, math.inf, math.inf
        for p in range(m):
            arrival = now
            for f_u, src, data in preds:
                c = platform.comm_time(data, src, p)
                if env is not None and c > 0.0:
                    c *= env.comm_factor(src, p, f_u)
                a = f_u + c
                if a > arrival:
                    arrival = a
            est = max(float(proc_free[p]), arrival)
            if env is None:
                eft = est + float(expected[v, p])
            else:
                est = env.earliest_start(p, est)
                eft = env.finish_time(p, est, float(expected[v, p]))
            if eft < best_eft:
                best_p, best_est, best_eft = p, est, eft
        dur = float(durations[v, best_p]) if per_proc else float(durations[v])
        if env is None:
            f = best_est + dur
        else:
            f = env.finish_time(best_p, best_est, dur)
        start[v] = best_est
        finish[v] = f
        proc_of[v] = best_p
        proc_free[best_p] = f
        heapq.heappush(events, (f, v))

    events: list[tuple[float, int]] = []
    # Entry tasks become ready at time 0, highest priority first.
    for v in sorted(
        (int(v) for v in graph.entry_nodes), key=lambda v: -priorities[v]
    ):
        dispatch(v, 0.0)

    completed = 0
    while events:
        t, v = heapq.heappop(events)
        completed += 1
        newly_ready = []
        for w in graph.successors(v):
            w = int(w)
            remaining[w] -= 1
            if remaining[w] == 0:
                newly_ready.append(w)
        for w in sorted(newly_ready, key=lambda w: -priorities[w]):
            dispatch(w, t)

    if completed != n:  # pragma: no cover - graph validated acyclic
        raise RuntimeError("dynamic simulation failed to complete all tasks")
    start.setflags(write=False)
    finish.setflags(write=False)
    proc_of.setflags(write=False)
    return DynamicRun(
        makespan=float(finish.max()),
        proc_of=proc_of,
        start_times=start,
        finish_times=finish,
    )


def simulate_semi_dynamic(
    problem: SchedulingProblem,
    proc_of: np.ndarray,
    durations: np.ndarray,
    priorities: np.ndarray | None = None,
    *,
    env=None,
) -> DynamicRun:
    """Partially-online execution: fixed assignment, runtime ordering.

    The middle ground between a fully static schedule and the fully
    dynamic policy — the approach of the paper's related work (Moukrim et
    al. [20, 21]): the task→processor *assignment* is fixed offline, but
    each processor orders its tasks at runtime — whenever it goes idle it
    commits to the dependency-satisfied assigned task that can start
    earliest (ties to the higher upward-rank priority).  Runtime
    reordering within a processor absorbs disturbances that a frozen
    sequence cannot.

    Parameters
    ----------
    problem:
        The instance (expected times drive re-dispatch decisions).
    proc_of:
        ``(n,)`` offline processor assignment.
    durations:
        ``(n,)`` realized duration of each task on its assigned processor;
        a re-dispatched task carries its luck fraction to the new one.
    priorities:
        Tie-breaking priority (larger first); defaults to upward ranks.
    env:
        Optional execution environment, as for
        :func:`repro.sim.eventsim.simulate`.  Before committing a task,
        the processor checks it can *finish* it; when it cannot (the
        processor failed permanently) the task is re-dispatched to the
        live processor minimizing its expected finish time.  Without an
        environment the assignment never changes.

    Notes
    -----
    A task that cannot start at a finite time and has nowhere to go — its
    processor never runs again, or a predecessor never finished — is
    lost: it completes at ``+inf``, and so does the run.  A task never
    returns to a processor it was moved away from, so each task moves at
    most ``m`` times.  The returned ``proc_of`` reflects re-dispatches,
    whose number is added to the observability counter
    ``faults.redispatches``.
    """
    n, m = problem.n, problem.m
    proc_of = np.asarray(proc_of, dtype=np.int64)
    if proc_of.shape != (n,):
        raise ValueError(f"proc_of must have shape ({n},), got {proc_of.shape}")
    if np.any((proc_of < 0) | (proc_of >= m)):
        raise ValueError("processor index out of range in proc_of")
    durations = np.asarray(durations, dtype=np.float64)
    if durations.shape != (n,):
        raise ValueError(f"durations must have shape ({n},), got {durations.shape}")
    check_env(env, m)

    graph = problem.graph
    platform = problem.platform
    if priorities is None:
        priorities = upward_ranks(problem)

    remaining = graph.in_degree().astype(np.int64).copy()
    ready_time = np.zeros(n, dtype=np.float64)  # data-arrival bound per task
    start = np.full(n, np.nan, dtype=np.float64)
    finish = np.full(n, np.nan, dtype=np.float64)
    proc_free = np.zeros(m, dtype=np.float64)
    cur_proc = proc_of.copy()
    work = durations.copy()  # realized duration on the current processor
    dur_m = None  # luck-carried (n, m) durations, built on first re-dispatch
    n_redispatch = 0
    # Per-processor pool of dependency-satisfied, not-yet-started tasks.
    pools: list[set[int]] = [set() for _ in range(m)]
    for v in np.flatnonzero(remaining == 0):
        pools[int(proc_of[v])].add(int(v))

    events: list[tuple[float, int]] = []

    def arrival(v: int, q: int) -> float:
        """Data-arrival time of *v* on *q* (every predecessor finished)."""
        t = 0.0
        for e in graph.predecessor_edge_indices(v):
            u = int(graph.edge_src[e])
            src = int(cur_proc[u])
            c = platform.comm_time(float(graph.edge_data[e]), src, q)
            if c > 0.0:
                c *= env.comm_factor(src, q, float(finish[u]))
            a = finish[u] + c
            if a > t:
                t = a
        return t

    def relocate(v: int, p: int) -> None:
        """Move *v* off *p* to the best processor that can finish it.

        Candidates are the processors whose realized duration for *v*
        completes given their speed timelines; among them the
        expected-EFT minimizer wins, as in MCT.  Without an environment,
        or when no processor can finish *v*, the task is lost.
        """
        nonlocal dur_m, n_redispatch
        best_q, best_eft, best_ready = -1, math.inf, 0.0
        if env is not None:
            if dur_m is None:
                low = problem.uncertainty.bcet
                high = (2.0 * problem.uncertainty.ul - 1.0) * low
                idx = np.arange(n)
                u = luck_fractions(durations, low[idx, proc_of], high[idx, proc_of])
                dur_m = low + u[:, None] * (high - low)
                # On the assigned processor the realized duration is the
                # input itself, not its luck round trip (an ulp may differ).
                dur_m[idx, proc_of] = durations
            for q in range(m):
                if q == p:
                    continue
                ready = arrival(v, q)
                t0 = env.earliest_start(q, max(float(proc_free[q]), ready))
                if math.isinf(env.finish_time(q, t0, float(dur_m[v, q]))):
                    continue
                eft = env.finish_time(q, t0, float(problem.expected_times[v, q]))
                if eft < best_eft:
                    best_q, best_eft, best_ready = q, eft, ready
        pools[p].discard(v)
        if best_q < 0:
            start[v] = math.inf
            finish[v] = math.inf
            heapq.heappush(events, (math.inf, v))
            return
        pools[best_q].add(v)
        cur_proc[v] = best_q
        ready_time[v] = best_ready
        work[v] = dur_m[v, best_q]
        n_redispatch += 1
        obs.event("faults.redispatch", task=v, src=p, dst=best_q)

    def try_start(p: int) -> bool:
        """Start the best startable task of processor *p*, if any.

        Starts at most one task.  Returns True only when it moved or lost
        tasks instead — then the sweep iterates to a fixed point, so a
        moved task gets a start opportunity on its new processor before
        the loop blocks on the next event.
        """
        if not pools[p]:
            return False
        # Earliest feasible start per candidate; prefer the one that can
        # start soonest, then the higher priority (runtime list policy).
        best_v, best_t = -1, math.inf
        free = float(proc_free[p])
        for v in sorted(pools[p], key=lambda v: -priorities[v]):
            t0 = max(free, float(ready_time[v]))
            if env is not None:
                t0 = env.earliest_start(p, t0)
            if t0 < best_t - 1e-15:
                best_v, best_t = v, t0
        if best_v < 0:
            # Nothing here can start at a finite time: the processor never
            # runs again, or the inputs never arrive.
            for v in list(pools[p]):
                relocate(v, p)
            return True
        if env is None:
            f = best_t + float(work[best_v])
        else:
            f = env.finish_time(p, best_t, float(work[best_v]))
            if math.isinf(f):
                # Startable but not finishable (permanent failure mid-task):
                # move just this task; the rest may still fit before death.
                relocate(best_v, p)
                return True
        start[best_v] = best_t
        finish[best_v] = f
        pools[p].discard(best_v)
        proc_free[p] = f
        heapq.heappush(events, (f, best_v))
        return False

    def sweep() -> None:
        moved = True
        while moved:
            moved = False
            for p in range(m):
                moved |= try_start(p)

    sweep()
    completed = 0
    while events:
        t, v = heapq.heappop(events)
        completed += 1
        p = int(cur_proc[v])
        for e in graph.successor_edge_indices(v):
            w = int(graph.edge_dst[e])
            q = int(cur_proc[w])
            c = platform.comm_time(float(graph.edge_data[e]), p, q)
            if env is not None and c > 0.0:
                c *= env.comm_factor(p, q, t)
            a = t + c
            if a > ready_time[w]:
                ready_time[w] = a
            remaining[w] -= 1
            if remaining[w] == 0:
                pools[q].add(w)
        sweep()

    if completed != n:  # pragma: no cover - graph validated acyclic
        raise RuntimeError("semi-dynamic simulation deadlocked")
    if n_redispatch:
        obs.add("faults.redispatches", n_redispatch)
    start.setflags(write=False)
    finish.setflags(write=False)
    cur_proc.setflags(write=False)
    return DynamicRun(
        makespan=float(finish.max()),
        proc_of=cur_proc,
        start_times=start,
        finish_times=finish,
    )
