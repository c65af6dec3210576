"""ComponentScheduler — one list scheduler per point of the component grid.

This is the library's only list scheduler.  Three order loops cover the
grid: the ``static`` loop sorts once by descending priority (HEFT), the
``ready`` loop pops a priority heap of ready tasks (CPOP, PEFT), and the
greedy loops scan the ready set for the extreme selected finish
(min-min, max-min).  The outputs of the HEFT, CPOP, PEFT, min-min and
quantile-HEFT points are pinned by ``tests/property/heuristics_golden.json``.

With the native library loaded, the whole placement loop is one
``list_schedule`` call (:mod:`repro.graph._native`); the Python loop over
:class:`~repro.heuristics.base.PartialSchedule` below is its reference
and the ``REPRO_NATIVE=0`` path.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from repro import obs
from repro.algebra.components import Components, RankContext, rank_context
from repro.core.problem import SchedulingProblem
from repro.graph import _native
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


def _place(
    problem: SchedulingProblem,
    comps: Components,
    ctx: RankContext,
    order: np.ndarray | None,
) -> list[np.ndarray]:
    """The placement loop over a :class:`PartialSchedule` (the reference).

    *order* is the ``static`` order's task sequence (``None`` for the
    other orders).  Returns the per-processor task orders.
    """
    partial = PartialSchedule(
        problem, append_only=(comps.insertion == "append")
    )
    select = _SELECTORS[comps.selection]

    if comps.order == "static":
        for v in order:
            v = int(v)
            proc, _ = select(partial, v, ctx)
            partial.place(v, proc)
        return partial.proc_orders()

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
        return partial.proc_orders()

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
    return partial.proc_orders()


#: ``list_schedule``'s codes for the order and selection axes.
_ORDER_CODES = {"static": 0, "ready": 1, "greedy-eft": 2, "greedy-maxeft": 3}
_SELECTION_CODES = {"eft": 0, "greedy": 1, "oct": 2, "pinned": 3, "lookahead": 4}


def _place_native(
    lib,
    problem: SchedulingProblem,
    comps: Components,
    ctx: RankContext,
    order: np.ndarray | None,
) -> list[np.ndarray]:
    """:func:`_place` as one ``list_schedule`` call: the same orders.

    The kernel walks the graph's own CSR, in the order
    :class:`PartialSchedule` walks it, and keeps its slot rows in the two
    scratch arrays allocated here.
    """
    graph, n, m = problem.graph, problem.n, problem.m
    et = np.ascontiguousarray(problem.expected_times, dtype=np.float64)
    inv_rates = np.ascontiguousarray(problem.platform._inv_rates)
    prio = np.ascontiguousarray(ctx.priorities, dtype=np.float64)
    oct_table = pinned = None
    if ctx.oct_table is not None:
        oct_table = np.ascontiguousarray(ctx.oct_table, dtype=np.float64)
    if comps.selection == "pinned":
        pinned = np.zeros(n, dtype=np.int64)
        pinned[sorted(ctx.cp_tasks)] = 1
    ws_f = np.empty(2 * m * n + 2 * n, dtype=np.float64)
    ws_i = np.empty(m * n + m + 3 * n + 2, dtype=np.int64)
    rc = lib.list_schedule(
        n,
        m,
        _ORDER_CODES[comps.order],
        _SELECTION_CODES[comps.selection],
        comps.insertion == "append",
        ctx.cp_proc,
        graph._pred_indptr.ctypes.data,
        graph._pred_eidx.ctypes.data,
        graph.edge_src.ctypes.data,
        graph._succ_indptr.ctypes.data,
        graph._succ_eidx.ctypes.data,
        graph.edge_dst.ctypes.data,
        graph.edge_data.ctypes.data,
        inv_rates.ctypes.data,
        et.ctypes.data,
        None if order is None else order.ctypes.data,
        prio.ctypes.data,
        None if oct_table is None else oct_table.ctypes.data,
        None if pinned is None else pinned.ctypes.data,
        ws_f.ctypes.data,
        ws_i.ctypes.data,
    )
    if rc:
        task, pred = (int(x) for x in ws_i[-2:])
        if rc == 1:
            raise ValueError(
                f"cannot query task {task}: predecessor {pred} not placed"
            )
        if rc == 3:
            raise ValueError(f"task {task} already placed or out of range")
        raise RuntimeError(f"{comps.order} order failed to place all tasks")
    tasks = ws_i[: m * n].reshape(m, n)
    counts = ws_i[m * n : m * n + m]
    return [tasks[p, : counts[p]] for p in range(m)]


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
            plan = problem
            if comps.selection == "padded":
                # Plan the whole pipeline against q-quantile durations,
                # then bind the processor orders to the real problem.
                plan = SchedulingProblem(
                    graph=problem.graph,
                    platform=problem.platform,
                    uncertainty=UncertaintyModel.deterministic(
                        problem.uncertainty.quantile_times(comps.q)
                    ),
                    name=f"{problem.name}@q{comps.q:g}",
                )
                comps = replace(comps, selection="eft")
            return Schedule(problem, self._run(plan, comps))

    def _run(
        self, problem: SchedulingProblem, comps: Components
    ) -> list[np.ndarray]:
        """Per-processor task orders of *problem* under *comps*."""
        ctx = rank_context(comps, problem)
        order = None
        if comps.order == "static":
            # HEFT's pass: one descending sort (ties to the smaller id).
            order = np.lexsort((np.arange(problem.n), -ctx.priorities))
        lib = _native.get_lib()
        if lib is None:
            return _place(problem, comps, ctx, order)
        return _place_native(lib, problem, comps, ctx, order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComponentScheduler({self.components!r}, name={self.name!r})"
