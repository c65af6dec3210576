"""Trace the makespan/slack Pareto front by sweeping the ε-constraint GA.

The classical use of the ε-constraint method (Chankong & Haimes) is not a
single solve but a *sweep*: each ε yields one point of the Pareto front.
This module runs the paper's solver across an ε grid and assembles the
non-dominated set, making the ε-constraint approach directly comparable
to NSGA-II (one multi-objective run) via front-quality metrics
(:func:`~repro.moop.pareto.hypervolume_2d`,
:func:`~repro.moop.pareto.coverage`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.core.robust import RobustScheduler
from repro.ga.engine import GAParams
from repro.heuristics.heft import HeftScheduler
from repro.moop.pareto import pareto_front_mask
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["EpsilonFrontResult", "epsilon_front"]


@dataclass(frozen=True)
class EpsilonFrontResult:
    """Non-dominated (makespan, slack) points traced by the ε sweep."""

    epsilons: tuple[float, ...]
    schedules: tuple[Schedule, ...]
    makespans: np.ndarray
    slacks: np.ndarray
    m_heft: float

    def objectives(self) -> np.ndarray:
        """``(k, 2)`` array of (makespan, slack) per front member."""
        return np.column_stack([self.makespans, self.slacks])

    def as_minimization(self) -> np.ndarray:
        """Orientation for Pareto utilities: (makespan, -slack)."""
        return np.column_stack([self.makespans, -self.slacks])


def epsilon_front(
    problem: SchedulingProblem,
    epsilons: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    params: GAParams | None = None,
    rng=None,
) -> EpsilonFrontResult:
    """Sweep ε and keep the non-dominated (makespan, slack) outcomes.

    Parameters
    ----------
    problem:
        The instance.
    epsilons:
        Budget grid; the paper sweeps [1.0, 2.0].
    params:
        GA hyper-parameters shared by every solve.
    rng:
        Seed or generator; each ε solve draws an independent child stream.

    Returns
    -------
    EpsilonFrontResult
        Members sorted by makespan; dominated sweep outcomes (an ε whose
        solve was beaten on both objectives by another) are dropped.
    """
    if not epsilons:
        raise ValueError("epsilons must be non-empty")
    gen = as_generator(rng)
    streams = gen.spawn(len(epsilons))
    heft_schedule = HeftScheduler().schedule(problem)

    eps_list: list[float] = []
    schedules: list[Schedule] = []
    makespans: list[float] = []
    slacks: list[float] = []
    m_heft = None
    for eps, stream in zip(epsilons, streams):
        result = RobustScheduler(epsilon=float(eps), params=params, rng=stream).solve(
            problem, heft_schedule=heft_schedule
        )
        m_heft = result.m_heft
        eps_list.append(float(eps))
        schedules.append(result.schedule)
        makespans.append(result.expected_makespan)
        slacks.append(result.avg_slack)

    obj = np.column_stack([makespans, -np.asarray(slacks)])
    keep = pareto_front_mask(obj)
    order = np.argsort(np.asarray(makespans)[keep], kind="stable")
    idx = np.flatnonzero(keep)[order]

    return EpsilonFrontResult(
        epsilons=tuple(eps_list[i] for i in idx),
        schedules=tuple(schedules[i] for i in idx),
        makespans=np.asarray([makespans[i] for i in idx]),
        slacks=np.asarray([slacks[i] for i in idx]),
        m_heft=float(m_heft),
    )
