"""CPOP — Critical Path On a Processor (Topcuoglu, Hariri & Wu).

Companion heuristic to HEFT from the same paper, included as an additional
deterministic baseline for tests and ablation benches:

1. priority(i) = rank_u(i) + rank_d(i); the (average-weight) critical path
   is traced from the highest-priority entry task;
2. all critical-path tasks go to the single processor minimizing the CP's
   total expected execution time;
3. remaining tasks are placed by insertion-based EFT in decreasing
   priority order, but processed in ready order (a task is scheduled only
   once all predecessors are placed).

:func:`critical_path_tasks` is the algebra's ``cp`` ranking context;
:func:`CpopScheduler` builds the ``cpop`` catalogue entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.heuristics.heft import downward_ranks, upward_ranks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.scheduler import ComponentScheduler

__all__ = ["CpopScheduler", "critical_path_tasks"]


def critical_path_tasks(
    problem: SchedulingProblem, prio: np.ndarray | None = None
) -> list[int]:
    """Tasks on the average-weight critical path, traced by priority.

    Starting at the entry task with maximal ``rank_u + rank_d``, repeatedly
    step to the successor of highest priority until an exit task is
    reached — the CPOP construction.  *prio* is that priority vector when
    the caller already has it (the ``cp`` ranking does).
    """
    graph = problem.graph
    if prio is None:
        prio = upward_ranks(problem) + downward_ranks(problem)
    entries = graph.entry_nodes
    v = int(entries[np.argmax(prio[entries])])
    path = [v]
    while True:
        succ = graph.successors(v)
        if succ.size == 0:
            break
        v = int(succ[np.argmax(prio[succ])])
        path.append(v)
    return path


def CpopScheduler() -> ComponentScheduler:
    """The Critical-Path-On-a-Processor list scheduler, catalogue entry ``cpop``."""
    from repro.algebra.catalogue import component_scheduler

    return component_scheduler("cpop")
