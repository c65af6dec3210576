"""ComponentScheduler — one list scheduler per point of the component grid.

This is the library's only list scheduler.  Three order loops cover the
grid: the ``static`` loop sorts once by descending priority (HEFT), the
``ready`` loop pops a priority heap of ready tasks (CPOP, PEFT), and the
greedy loops scan the ready set for the extreme selected finish
(min-min, max-min).  The outputs of the HEFT, CPOP, PEFT, min-min and
quantile-HEFT points are pinned by ``tests/property/heuristics_golden.json``.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from repro import obs
from repro.algebra.components import Components, RankContext, rank_context
from repro.core.problem import SchedulingProblem
from repro.heuristics.base import PartialSchedule
from repro.platform.uncertainty import UncertaintyModel
from repro.schedule.schedule import Schedule

__all__ = ["ComponentScheduler"]


# --------------------------------------------------------------------- #
# Processor-selection functions
#
# Each returns ``(proc, fin)`` — the chosen processor and the task's
# earliest finish time there — without mutating the partial schedule, so
# the greedy orders can compare candidates before committing.
# --------------------------------------------------------------------- #


def _select_eft(
    partial: PartialSchedule, v: int, ctx: RankContext
) -> tuple[int, float]:
    proc, _, fin = partial.best_processor(v)
    return proc, fin


def _select_greedy(
    partial: PartialSchedule, v: int, ctx: RankContext
) -> tuple[int, float]:
    proc = int(np.argmin(partial.problem.expected_times[v]))
    return proc, partial.eft(v, proc)[1]


def _select_oct(
    partial: PartialSchedule, v: int, ctx: RankContext
) -> tuple[int, float]:
    oct_table = ctx.oct_table
    assert oct_table is not None  # guaranteed by Components validation
    best: tuple[float, int, float] | None = None  # (score, proc, fin)
    for p in range(partial.problem.m):
        _, fin = partial.eft(v, p)
        score = fin + float(oct_table[v, p])
        if best is None or score < best[0]:
            best = (score, p, fin)
    assert best is not None
    return best[1], best[2]


def _select_pinned(
    partial: PartialSchedule, v: int, ctx: RankContext
) -> tuple[int, float]:
    if v in ctx.cp_tasks:
        return ctx.cp_proc, partial.eft(v, ctx.cp_proc)[1]
    return _select_eft(partial, v, ctx)


def _select_lookahead(
    partial: PartialSchedule, v: int, ctx: RankContext
) -> tuple[int, float]:
    """Lookahead-1: judge each placement by its worst evaluable child EFT.

    For every processor, tentatively place *v* there, compute the best
    EFT of each child all of whose predecessors are then placed, and
    score the placement by the worst such child (falling back to *v*'s
    own finish when no child is evaluable yet).  Ties break to the
    earlier own finish, then to the lower processor index.
    """
    problem = partial.problem
    graph = problem.graph
    best: tuple[tuple[float, float], int] | None = None  # ((score, fin), p)
    for p in range(problem.m):
        _, fin = partial.eft(v, p)
        partial.place(v, p)
        worst: float | None = None
        for w in graph.successors(v):
            w = int(w)
            preds = graph.edge_src[graph.predecessor_edge_indices(w)]
            if all(partial.is_placed(int(u)) for u in preds):
                _, _, child_fin = partial.best_processor(w)
                worst = child_fin if worst is None else max(worst, child_fin)
        partial.unplace(v)
        key = (fin if worst is None else worst, fin)
        if best is None or key < best[0]:
            best = (key, p)
    assert best is not None
    return best[1], best[0][1]


_SELECTORS = {
    "eft": _select_eft,
    "greedy": _select_greedy,
    "oct": _select_oct,
    "pinned": _select_pinned,
    "lookahead": _select_lookahead,
    # "padded" is resolved by ComponentScheduler.schedule (proxy problem).
}


class ComponentScheduler:
    """List scheduler assembled from a :class:`Components` tuple.

    >>> from repro.algebra import Components, ComponentScheduler
    >>> ComponentScheduler(Components()).name
    'upward/eft/insertion/static'

    Parameters
    ----------
    components:
        The point of the grid to run.
    name:
        Optional display name; defaults to the tuple's canonical
        ``ranking/selection/insertion/order`` spec string.
    """

    def __init__(
        self, components: Components, *, name: str | None = None
    ) -> None:
        self.components = components
        self.name = name if name is not None else components.spec

    def schedule(self, problem: SchedulingProblem) -> Schedule:
        """Build the schedule for *problem* from the component tuple."""
        comps = self.components
        with obs.trace(
            "algebra.solve",
            scheduler=self.name,
            spec=comps.spec,
            n=problem.n,
            m=problem.m,
        ):
            if obs.enabled():
                obs.add("algebra.solves")
                obs.add(f"algebra.ranking.{comps.ranking}")
                obs.add(f"algebra.selection.{comps.selection}")
                obs.add(f"algebra.insertion.{comps.insertion}")
                obs.add(f"algebra.order.{comps.order}")
            if comps.selection == "padded":
                # Plan the whole pipeline against q-quantile durations,
                # then rebind the processor orders to the real problem.
                proxy = SchedulingProblem(
                    graph=problem.graph,
                    platform=problem.platform,
                    uncertainty=UncertaintyModel.deterministic(
                        problem.uncertainty.quantile_times(comps.q)
                    ),
                    name=f"{problem.name}@q{comps.q:g}",
                )
                planned = self._run(proxy, replace(comps, selection="eft"))
                return Schedule(problem, [list(t) for t in planned.proc_orders])
            return self._run(problem, comps)

    def _run(
        self, problem: SchedulingProblem, comps: Components
    ) -> Schedule:
        ctx = rank_context(comps, problem)
        partial = PartialSchedule(
            problem, append_only=(comps.insertion == "append")
        )
        select = _SELECTORS[comps.selection]

        if comps.order == "static":
            # HEFT's pass: one descending sort (ties to the smaller id).
            order = np.lexsort((np.arange(problem.n), -ctx.priorities))
            for v in order:
                v = int(v)
                proc, _ = select(partial, v, ctx)
                partial.place(v, proc)
            return partial.to_schedule()

        graph = problem.graph
        indeg = graph.in_degree().astype(np.int64).copy()

        if comps.order == "ready":
            # CPOP/PEFT's pass: max-heap on priority over ready tasks.
            prio = ctx.priorities
            ready_heap = [
                (-float(prio[v]), int(v)) for v in np.flatnonzero(indeg == 0)
            ]
            heapq.heapify(ready_heap)
            placed = 0
            while ready_heap:
                _, v = heapq.heappop(ready_heap)
                proc, _ = select(partial, v, ctx)
                partial.place(v, proc)
                placed += 1
                for w in graph.successors(v):
                    w = int(w)
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        heapq.heappush(ready_heap, (-float(prio[w]), w))
            if placed != problem.n:  # pragma: no cover - graph is acyclic
                raise RuntimeError("ready order failed to place all tasks")
            return partial.to_schedule()

        # Greedy orders (min-min's pass): the ranking is ignored; every
        # step commits the ready task with the extreme selected finish.
        maximize = comps.order == "greedy-maxeft"
        ready = set(int(v) for v in np.flatnonzero(indeg == 0))
        for _ in range(problem.n):
            best: tuple[float, int, int] | None = None  # (fin, task, proc)
            for v in sorted(ready):
                proc, fin = select(partial, v, ctx)
                better = (
                    best is None
                    or (fin > best[0] if maximize else fin < best[0])
                )
                if better:
                    best = (fin, v, proc)
            if best is None:  # pragma: no cover - graph is acyclic
                raise RuntimeError("greedy order deadlocked: no ready task")
            _, v, proc = best
            partial.place(v, proc)
            ready.discard(v)
            for w in graph.successors(v):
                w = int(w)
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.add(w)
        return partial.to_schedule()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComponentScheduler({self.components!r}, name={self.name!r})"
