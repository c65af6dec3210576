"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu).

The paper's reference heuristic [24]:

1. compute every task's *upward rank*
   ``rank_u(i) = w̄_i + max_{j in succ(i)} ( c̄_ij + rank_u(j) )``
   with ``w̄_i`` the processor-average expected execution time and ``c̄_ij``
   the processor-pair-average communication cost;
2. consider tasks in decreasing ``rank_u`` (a topological order);
3. assign each task to the processor minimizing its earliest finish time
   under the *insertion* policy.

``M_HEFT``, the makespan of this schedule under expected durations, is the
ε-constraint reference bound (Eqn. 7); the HEFT chromosome also seeds the
GA's initial population (Sec. 4.2.2).

The rankings here are building blocks of :mod:`repro.algebra`;
:func:`HeftScheduler` and :func:`QuantileHeftScheduler` build its
:class:`~repro.algebra.ComponentScheduler` for HEFT's points of the grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.graph.analysis import ArrayDag
from repro.heuristics.base import average_comm_costs, average_execution_times

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.scheduler import ComponentScheduler

__all__ = ["upward_ranks", "downward_ranks", "HeftScheduler", "QuantileHeftScheduler"]


def upward_ranks(
    problem: SchedulingProblem, edge_costs: np.ndarray | None = None
) -> np.ndarray:
    """Upward rank of every task (``rank_u``): its average-weight bottom level.

    *edge_costs* is the per-edge communication cost in canonical edge
    order (default: the processor-pair averages).  Zero costs give the
    static b-level, the longest average-execution path to an exit.
    """
    w = average_execution_times(problem)
    c = average_comm_costs(problem) if edge_costs is None else edge_costs
    return ArrayDag.from_taskgraph(problem.graph).bottom_levels(w, c)


def downward_ranks(problem: SchedulingProblem) -> np.ndarray:
    """Downward rank (``rank_d``): longest average path from an entry, excluding the task."""
    return ArrayDag.from_taskgraph(problem.graph).top_levels(
        average_execution_times(problem), average_comm_costs(problem)
    )


def HeftScheduler() -> ComponentScheduler:
    """The insertion-based HEFT list scheduler, catalogue entry ``heft``.

    Deterministic: rank ties are broken toward the smaller task id and
    processor ties toward the smaller processor index.
    """
    from repro.algebra.catalogue import component_scheduler

    return component_scheduler("heft")


def QuantileHeftScheduler(q: float = 0.9) -> ComponentScheduler:
    """HEFT planned on q-quantile durations, named ``heft-q{q:g}``.

    The paper's "judicious overestimation" strawman (Sec. 1, ablation
    A7): plan against each (task, processor) duration's ``q``-quantile,
    then rebind the processor orders to the true problem — the algebra's
    ``padded`` selection.  Uniform padding would change nothing (HEFT is
    scale-invariant); ``q = 0.5`` is plain HEFT under the uniform model.
    Raises :class:`ValueError` for *q* outside ``[0, 1]``.
    """
    from repro.algebra.components import Components
    from repro.algebra.scheduler import ComponentScheduler

    comps = Components("upward", "padded", "insertion", "static", q=float(q))
    return ComponentScheduler(comps, name=f"heft-q{q:g}")
