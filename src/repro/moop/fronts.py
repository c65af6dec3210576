"""Trace a Pareto front by sweeping a scalarized GA over a grid.

The classical use of a scalarization (Chankong & Haimes) is not a single
solve but a *sweep*: each value of its parameter yields one point of the
front.  Three sweeps share one loop here — spawn one child stream per
value, solve, drop the dominated outcomes, sort by makespan:

* :func:`epsilon_front` runs the paper's ε-constraint GA over an ε grid
  and traces the (makespan, slack) front, comparable to NSGA-II (one
  multi-objective run) via :func:`~repro.moop.pareto.hypervolume_2d` and
  :func:`~repro.moop.pareto.coverage`;
* :func:`weighted_sum_front` runs the weighted-sum GA over a weight grid.
  Weighted sums reach only the *convex hull* of the front, so on fronts
  with concave regions the weight sweep clusters at the extremes while
  the ε sweep can place points anywhere — the textbook contrast behind
  the paper's choice, made measurable on real instances;
* :func:`energy_front` runs the energy GA over an ε grid: each ε yields
  the cheapest schedule whose makespan fits the budget (and whose slack
  clears the reliability floor), so its front is (makespan, energy),
  both minimized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.core.robust import RobustScheduler
from repro.energy.objective import EnergyScheduler
from repro.energy.power import PowerModel
from repro.ga.engine import GAParams, GeneticScheduler
from repro.heuristics.heft import HeftScheduler
from repro.moop.pareto import pareto_front_mask
from repro.moop.weighted_sum import WeightedSumFitness
from repro.schedule.evaluation import evaluate
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["FrontResult", "epsilon_front", "weighted_sum_front", "energy_front"]


@dataclass(frozen=True)
class FrontResult:
    """The non-dominated outcomes of one sweep, sorted by makespan.

    ``values`` holds the ε or weight behind each member; ``energies`` is
    ``None`` for the (makespan, slack) sweeps; ``m_heft`` is HEFT's
    expected makespan, the reference of every ε budget.
    """

    values: tuple[float, ...]
    schedules: tuple[Schedule, ...]
    makespans: np.ndarray
    slacks: np.ndarray
    energies: np.ndarray | None
    m_heft: float

    def objectives(self) -> np.ndarray:
        """``(k, 2)`` array of (makespan, slack), or (makespan, energy)."""
        other = self.slacks if self.energies is None else self.energies
        return np.column_stack([self.makespans, other])

    def as_minimization(self) -> np.ndarray:
        """Orientation for Pareto utilities: (makespan, -slack), or
        (makespan, energy), which already minimizes both."""
        other = -self.slacks if self.energies is None else self.energies
        return np.column_stack([self.makespans, other])


def _sweep(
    values: tuple[float, ...],
    rng,
    solve: Callable[[float, np.random.Generator], tuple],
    name: str,
) -> FrontResult:
    """Solve every value on its own child stream of *rng*; keep the front.

    ``solve(value, stream)`` returns one member: its schedule, makespan,
    average slack, energy (``None`` in the slack sweeps) and ``M_HEFT``.
    """
    if not values:
        raise ValueError(f"{name} must be non-empty")
    streams = as_generator(rng).spawn(len(values))
    members = [solve(float(v), stream) for v, stream in zip(values, streams)]
    schedules, makespans, slacks, energies, m_hefts = zip(*members)
    swept = FrontResult(
        values=tuple(float(v) for v in values),
        schedules=schedules,
        makespans=np.asarray(makespans),
        slacks=np.asarray(slacks),
        energies=None if energies[0] is None else np.asarray(energies),
        m_heft=float(m_hefts[-1]),
    )
    keep = pareto_front_mask(swept.as_minimization())
    idx = np.flatnonzero(keep)[np.argsort(swept.makespans[keep], kind="stable")]
    return replace(
        swept,
        values=tuple(swept.values[i] for i in idx),
        schedules=tuple(schedules[i] for i in idx),
        makespans=swept.makespans[idx],
        slacks=swept.slacks[idx],
        energies=None if swept.energies is None else swept.energies[idx],
    )


def epsilon_front(
    problem: SchedulingProblem,
    epsilons: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    params: GAParams | None = None,
    rng=None,
) -> FrontResult:
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
    FrontResult
        Members sorted by makespan; dominated sweep outcomes (an ε whose
        solve was beaten on both objectives by another) are dropped.
    """
    heft = HeftScheduler().schedule(problem)

    def solve(eps: float, stream: np.random.Generator) -> tuple:
        result = RobustScheduler(eps, params, stream).solve(
            problem, heft_schedule=heft
        )
        return (result.schedule, result.expected_makespan, result.avg_slack,
                None, result.m_heft)

    return _sweep(epsilons, rng, solve, "epsilons")


def weighted_sum_front(
    problem: SchedulingProblem,
    weights: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0),
    params: GAParams | None = None,
    rng=None,
) -> FrontResult:
    """Sweep the weighted-sum GA over *weights*, keep non-dominated outcomes.

    Parameters
    ----------
    problem:
        The instance.
    weights:
        Makespan-emphasis grid (1 = pure makespan, 0 = pure slack).
    params:
        GA hyper-parameters shared by every solve.
    rng:
        Seed or generator; each weight draws an independent child stream.
    """
    heft = HeftScheduler().schedule(problem)
    ref = evaluate(heft)

    def solve(w: float, stream: np.random.Generator) -> tuple:
        fitness = WeightedSumFitness(w, ref.makespan, ref.avg_slack)
        best = GeneticScheduler(fitness, params, stream).run(
            problem, heft_schedule=heft
        ).best
        return best.schedule, best.makespan, best.avg_slack, None, ref.makespan

    return _sweep(weights, rng, solve, "weights")


def energy_front(
    problem: SchedulingProblem,
    power: PowerModel,
    epsilons: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    params: GAParams | None = None,
    rng=None,
    *,
    slack_ratio: float = 0.0,
) -> FrontResult:
    """Sweep ε and keep the non-dominated (makespan, energy) outcomes.

    Each ε solve minimizes energy subject to ``M_0 ≤ ε·M_HEFT`` and
    ``slack ≥ slack_ratio·σ̄_HEFT`` with an independent child RNG stream,
    mirroring :func:`epsilon_front` — the two sweeps can share a seed and
    stay bit-reproducible side by side.
    """
    heft = HeftScheduler().schedule(problem)

    def solve(eps: float, stream: np.random.Generator) -> tuple:
        result = EnergyScheduler(
            eps, power, params, stream, slack_ratio=slack_ratio
        ).solve(problem, heft_schedule=heft)
        return (result.schedule, result.expected_makespan, result.avg_slack,
                result.energy, result.m_heft)

    return _sweep(epsilons, rng, solve, "epsilons")
