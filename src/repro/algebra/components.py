"""The four component axes of the list-scheduling algebra.

Following the decomposition of "Parameterized Task Graph Scheduling
Algorithm for Comparing Algorithmic Components" (arXiv 2403.07112), a
list scheduler is a point in the cross-product of four independent
axes:

* **ranking** — the static priority assigned to every task
  (:data:`RANKINGS`);
* **selection** — which processor a task is committed to
  (:data:`SELECTIONS`);
* **insertion** — whether a task may fill an idle gap between already
  placed tasks or only append after the processor's last finish
  (:data:`INSERTIONS`);
* **order** — how the ranking turns into an actual placement sequence,
  including the tie-breaking / dynamic-lookahead variants
  (:data:`ORDERS`).

:class:`Components` names one point of that grid and validates the
combination; :func:`rank_context` evaluates the ranking axis into the
:class:`RankContext` the selection and order loops consume.  HEFT, CPOP,
PEFT and min-min are specific points of the grid (see
:mod:`repro.algebra.catalogue`); the ranking functions are their
building blocks in :mod:`repro.heuristics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.heuristics.cpop import critical_path_tasks
from repro.heuristics.heft import downward_ranks, upward_ranks
from repro.heuristics.peft import optimistic_cost_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import SchedulingProblem

__all__ = [
    "RANKINGS",
    "SELECTIONS",
    "INSERTIONS",
    "ORDERS",
    "MONOTONE_RANKINGS",
    "Components",
    "RankContext",
    "rank_context",
]

#: Priority-ranking axis: how every task's static priority is computed.
RANKINGS = ("upward", "blevel", "cp", "oct", "random")

#: Processor-selection axis: where a task is committed.
SELECTIONS = ("eft", "greedy", "oct", "pinned", "lookahead", "padded")

#: Insertion-policy axis: gap-filling vs append-only slot search.
INSERTIONS = ("insertion", "append")

#: Order axis: how the ranking becomes a placement sequence.  ``static``
#: sorts once by descending priority (ties to the smaller task id);
#: ``ready`` pops the highest-priority *ready* task (same tie-break);
#: the greedy orders ignore the ranking and pick the ready task whose
#: selected finish time is smallest (min-min) or largest (max-min).
ORDERS = ("static", "ready", "greedy-eft", "greedy-maxeft")

#: Rankings that strictly decrease along every edge (given positive
#: execution times), i.e. whose descending sort is a topological order.
#: Only these may drive the ``static`` order.
MONOTONE_RANKINGS = frozenset({"upward", "blevel"})


@dataclass(frozen=True)
class Components:
    """One named point of the scheduler grid: ranking × selection ×
    insertion × order.

    Parameters
    ----------
    ranking / selection / insertion / order:
        One member of each axis (see the module constants).
    q:
        Quantile for the ``padded`` selection (``0.9`` is
        :func:`~repro.heuristics.QuantileHeftScheduler`'s default);
        ignored by every other selection.
    seed:
        Entropy for the ``random`` ranking's deterministic priority
        stream; ignored by every other ranking.

    Raises
    ------
    ValueError
        On any combination that cannot produce a valid schedule —
        a non-monotone ranking under the ``static`` order, or a
        selection that needs ranking context the ranking does not
        produce (``pinned`` needs ``cp``, ``oct`` needs ``oct``).
    """

    ranking: str = "upward"
    selection: str = "eft"
    insertion: str = "insertion"
    order: str = "static"
    q: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        for axis, value, options in (
            ("ranking", self.ranking, RANKINGS),
            ("selection", self.selection, SELECTIONS),
            ("insertion", self.insertion, INSERTIONS),
            ("order", self.order, ORDERS),
        ):
            if value not in options:
                raise ValueError(
                    f"unknown {axis} {value!r}; choose from {options}"
                )
        if self.order == "static" and self.ranking not in MONOTONE_RANKINGS:
            raise ValueError(
                f"ranking {self.ranking!r} is not monotone along edges, so "
                f"its static sort is not a topological order; use the "
                f"'ready' or greedy orders (monotone: "
                f"{tuple(sorted(MONOTONE_RANKINGS))})"
            )
        if self.selection == "pinned" and self.ranking != "cp":
            raise ValueError(
                "'pinned' selection needs the critical-path context only "
                "the 'cp' ranking produces"
            )
        if self.selection == "oct" and self.ranking != "oct":
            raise ValueError(
                "'oct' selection needs the optimistic cost table only "
                "the 'oct' ranking produces"
            )
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {self.q}")

    @property
    def spec(self) -> str:
        """Canonical ``ranking/selection/insertion/order`` string."""
        extra = ""
        if self.selection == "padded":
            extra = f"@q{self.q:g}"
        if self.ranking == "random" and self.seed:
            extra += f"@s{self.seed}"
        return (
            f"{self.ranking}/{self.selection}{extra}"
            f"/{self.insertion}/{self.order}"
        )


@dataclass(frozen=True)
class RankContext:
    """The evaluated ranking axis: priorities plus selection context.

    ``priorities`` always holds the per-task priority vector; the other
    fields are only populated by the rankings that produce them
    (``oct_table`` by ``oct``, the critical-path fields by ``cp``).
    """

    priorities: np.ndarray
    oct_table: np.ndarray | None = None
    cp_tasks: frozenset[int] = field(default_factory=frozenset)
    cp_proc: int = -1


def rank_context(
    components: Components, problem: SchedulingProblem
) -> RankContext:
    """Evaluate the ranking axis of *components* for *problem*."""
    ranking = components.ranking
    if ranking == "upward":
        return RankContext(priorities=upward_ranks(problem))
    if ranking == "blevel":
        # The static b-level: the upward rank without communication.
        no_comm = np.zeros_like(problem.graph.edge_data)
        return RankContext(priorities=upward_ranks(problem, no_comm))
    if ranking == "cp":
        prio = upward_ranks(problem) + downward_ranks(problem)
        cp = frozenset(critical_path_tasks(problem, prio))
        cp_proc = int(np.argmin(problem.expected_times[sorted(cp)].sum(axis=0)))
        return RankContext(priorities=prio, cp_tasks=cp, cp_proc=cp_proc)
    if ranking == "oct":
        table = optimistic_cost_table(problem)
        return RankContext(priorities=table.mean(axis=1), oct_table=table)
    if ranking == "random":
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=components.seed, spawn_key=(problem.n,)
            )
        )
        return RankContext(
            priorities=rng.permutation(problem.n).astype(np.float64)
        )
    raise AssertionError(f"unhandled ranking {ranking!r}")  # pragma: no cover
