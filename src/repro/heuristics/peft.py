"""PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, TPDS 2014).

A lookahead list scheduler added as a stronger modern baseline: an
*optimistic cost table* ``OCT(t, p)`` estimates the best possible remaining
path cost if task ``t`` runs on processor ``p``::

    OCT(t, p) = max_{s in succ(t)} min_{q} ( OCT(s, q) + w(s, q)
                                             + [p != q] * avg_comm(t, s) )

(0 for exit tasks).  Tasks are prioritised by the processor-average OCT
and each is placed on the processor minimizing ``EFT + OCT`` — trading a
locally optimal finish for a better predicted downstream.

:func:`optimistic_cost_table` is the algebra's ``oct`` ranking;
:func:`PeftScheduler` builds the ``peft`` catalogue entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.heuristics.base import average_comm_costs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.scheduler import ComponentScheduler

__all__ = ["optimistic_cost_table", "PeftScheduler"]


def optimistic_cost_table(problem: SchedulingProblem) -> np.ndarray:
    """The ``(n, m)`` OCT matrix, computed in reverse topological order."""
    graph = problem.graph
    w = problem.expected_times  # (n, m)
    cbar = average_comm_costs(problem)  # per canonical edge
    m = problem.m
    oct_table = np.zeros((graph.n, m), dtype=np.float64)
    not_eye = 1.0 - np.eye(m)

    for v in graph.topological[::-1]:
        v = int(v)
        eidx = graph.successor_edge_indices(v)
        if eidx.size == 0:
            continue
        succ = graph.edge_dst[eidx]
        # cost[k, p, q] of running successor k on q, seen from p:
        # OCT(s,q) + w(s,q) + comm if p != q; min over q, max over k.
        base = oct_table[succ] + w[succ]  # (k, m)
        cand = base[:, None, :] + cbar[eidx][:, None, None] * not_eye
        oct_table[v] = cand.min(axis=2).max(axis=0)
    return oct_table


def PeftScheduler() -> ComponentScheduler:
    """The insertion-based PEFT list scheduler, catalogue entry ``peft``.

    Processed in ready order (a task is only placed once its predecessors
    are), prioritised by descending average OCT; ties break to the smaller
    task id, processor ties to the smaller index.
    """
    from repro.algebra.catalogue import component_scheduler

    return component_scheduler("peft")
