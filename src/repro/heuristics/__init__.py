"""Deterministic scheduling heuristics.

* :func:`~repro.heuristics.heft.HeftScheduler` — the HEFT algorithm of
  Topcuoglu, Hariri & Wu (ref. [24]), the paper's baseline and the source
  of both the ε-constraint bound ``M_HEFT`` (Eqn. 7) and the GA's seed
  chromosome (Sec. 4.2.2).
* :func:`~repro.heuristics.cpop.CpopScheduler` — CPOP, from the same
  paper, as an extra baseline for tests and ablations.
* :func:`~repro.heuristics.base.MinMinScheduler` — a min-min style
  ready-list scheduler.
* :func:`~repro.heuristics.peft.PeftScheduler` — PEFT (Arabnejad &
  Barbosa), ranking and selecting via the optimistic cost table.
* :func:`~repro.heuristics.heft.QuantileHeftScheduler` — HEFT run on
  quantile-padded times, rebound to the true expected-time problem.
* :class:`~repro.heuristics.annealing.AnnealingScheduler` — simulated
  annealing over (order, assignment) pairs, a non-list-based baseline.
* :class:`~repro.heuristics.random_sched.RandomScheduler` — uniformly
  random valid schedules (GA initial population, Sec. 4.2.2).

Every list scheduler above decomposes into four orthogonal choices —
how tasks are *ranked*, how a processor is *selected*, whether slots may
be *inserted* into idle gaps, and in what *order* tasks are visited.
:mod:`repro.algebra` makes that decomposition explicit: each name above
(except the annealer and the random baseline) builds its one list
scheduler, :class:`~repro.algebra.ComponentScheduler`, for one
:class:`~repro.algebra.Components` tuple.  This package keeps the
building blocks, the rankings and :class:`PartialSchedule`; the outputs
are pinned by ``tests/property/heuristics_golden.json``.

All heuristics see only the *expected* execution-time matrix, matching the
paper's information model.
"""

from repro.heuristics.annealing import AnnealingParams, AnnealingScheduler
from repro.heuristics.base import MinMinScheduler, PartialSchedule, Scheduler
from repro.heuristics.cpop import CpopScheduler
from repro.heuristics.heft import HeftScheduler, QuantileHeftScheduler, upward_ranks
from repro.heuristics.peft import PeftScheduler, optimistic_cost_table
from repro.heuristics.random_sched import RandomScheduler, random_schedule

__all__ = [
    "Scheduler",
    "PartialSchedule",
    "HeftScheduler",
    "upward_ranks",
    "CpopScheduler",
    "MinMinScheduler",
    "QuantileHeftScheduler",
    "PeftScheduler",
    "optimistic_cost_table",
    "AnnealingScheduler",
    "AnnealingParams",
    "RandomScheduler",
    "random_schedule",
]
