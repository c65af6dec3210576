"""Fitness policies (paper Sec. 4.2.3).

A policy maps the whole population's static metrics to fitness scores
(larger = fitter).  Policies receive the *population* — a
:class:`Population` view of the GA engine's arrays — not individuals,
because the ε-constraint fitness of Eqn. 8 is population-based: an
infeasible chromosome's fitness is the minimum fitness among the current
feasible chromosomes, scaled down by its constraint-violation ratio.

Three policies cover the paper's experiments:

* :class:`MakespanFitness` — minimize expected makespan (Fig. 2);
* :class:`SlackFitness` — maximize average slack (Fig. 3);
* :class:`EpsilonConstraintFitness` — Eqn. 8: maximize slack subject to
  ``M_0(s) <= eps * M_HEFT`` (Figs. 4–8).

plus :func:`quantile_duration_matrix` supporting the stochastic-information
extension (paper Sec. 6 future work).

External policies plug into the same protocol:
:class:`repro.energy.objective.EnergyConstraintFitness` swaps the slack
objective for expected energy while keeping Eqn. 8's feasibility algebra
(and degenerates to :class:`EpsilonConstraintFitness` under a null power
model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.schedule.schedule import Schedule

__all__ = [
    "Population",
    "Individual",
    "FitnessPolicy",
    "MakespanFitness",
    "SlackFitness",
    "EpsilonConstraintFitness",
    "quantile_duration_matrix",
]


@dataclass(eq=False, slots=True)
class Population:
    """What a fitness policy scores: ``(P, n)`` scheduling strings and
    processor maps with their ``(P,)`` static metrics under the engine's
    duration view, and the problem; ``len()`` is ``P``.  Row *i*'s
    :meth:`Chromosome.key` is ``orders[i].tobytes() + procs[i].tobytes()``.

    The GA engine passes views of its own buffers, which it overwrites
    every generation: a policy keeps none of them and returns a new array.
    """

    problem: SchedulingProblem
    orders: np.ndarray
    procs: np.ndarray
    makespans: np.ndarray
    avg_slacks: np.ndarray

    def __len__(self) -> int:
        return len(self.makespans)


class Individual:
    """A chromosome with its static metrics; the schedule on demand.

    ``makespan`` and ``avg_slack`` are computed under the engine's duration
    view.  ``schedule`` may be deferred: the population kernel
    (:mod:`repro.ga.popeval`) computes metrics without materialising
    schedules, so an individual built from its results carries
    ``schedule=None`` plus a ``problem``, and the decode runs on first
    access (only the returned best typically needs it).
    """

    __slots__ = ("chromosome", "_schedule", "makespan", "avg_slack", "_problem")

    def __init__(
        self,
        chromosome: Chromosome | None,
        schedule: Schedule | None,
        makespan: float,
        avg_slack: float | None = None,
        *,
        problem: SchedulingProblem | None = None,
    ) -> None:
        self.chromosome = chromosome
        self._schedule = schedule
        self.makespan = float(makespan)
        self.avg_slack = None if avg_slack is None else float(avg_slack)
        self._problem = problem

    @property
    def schedule(self) -> Schedule:
        """The decoded schedule; runs the deferred decode if needed."""
        if self._schedule is None:
            if self._problem is None:
                raise AttributeError(
                    "schedule was deferred but no problem is attached"
                )
            self._schedule = self.chromosome.decode(self._problem)
        return self._schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Individual(makespan={self.makespan:g})"


@runtime_checkable
class FitnessPolicy(Protocol):
    """Population-based fitness: metrics in, scores out (larger = fitter)."""

    name: str

    def scores(self, population: Population) -> np.ndarray:
        """A new ``(P,)`` array: the fitness of every row of *population*."""
        ...  # pragma: no cover - protocol


class MakespanFitness:
    """Reciprocal expected makespan — the classic single-objective GA (Fig. 2)."""

    name = "makespan"

    def scores(self, population: Population) -> np.ndarray:
        """``1 / M_0`` per row; a zero makespan raises, as ``1.0 / 0.0`` does."""
        makespans = population.makespans
        if not makespans.all():
            raise ZeroDivisionError("float division by zero")
        return 1.0 / makespans


class SlackFitness:
    """Average slack — the robustness-only objective (Fig. 3)."""

    name = "slack"

    def scores(self, population: Population) -> np.ndarray:
        """``σ̄`` per row."""
        return population.avg_slacks.copy()


class EpsilonConstraintFitness:
    """Eqn. 8: slack for feasible individuals, scaled penalty otherwise.

    Parameters
    ----------
    epsilon:
        The ε-constraint multiplier (paper sweeps 1.0 .. 2.0).
    m_heft:
        The reference makespan ``M_HEFT`` of the instance's HEFT schedule.

    Notes
    -----
    Feasibility is ``M_0 <= epsilon * m_heft`` (inclusive, with a relative
    tolerance — the paper writes a strict inequality but seeds the ε = 1.0
    population with HEFT itself, which sits exactly on the bound).

    Two edge cases the paper leaves open are resolved conservatively:

    * *No feasible individual*: every score is ``bound/M_0 - 1`` (negative,
      monotone in the violation), so evolution is driven toward
      feasibility and any later feasible individual (slack >= 0) dominates.
    * *Minimum feasible slack is 0*: multiplying by the violation ratio
      would collapse all infeasible scores to 0; the same negative
      violation form is used instead, preserving strict dominance of the
      feasible set and ordering among the infeasible.
    """

    def __init__(self, epsilon: float, m_heft: float) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if m_heft <= 0:
            raise ValueError(f"m_heft must be positive, got {m_heft}")
        self.epsilon = float(epsilon)
        self.m_heft = float(m_heft)
        self.name = f"eps-constraint(eps={epsilon:g})"

    @classmethod
    def for_problem(
        cls, problem: SchedulingProblem, epsilon: float
    ) -> "EpsilonConstraintFitness":
        """Build the policy by running HEFT on *problem* for ``M_HEFT``."""
        from repro.heuristics.heft import HeftScheduler
        from repro.schedule.evaluation import expected_makespan

        m_heft = expected_makespan(HeftScheduler().schedule(problem))
        return cls(epsilon, m_heft)

    @property
    def bound(self) -> float:
        """The makespan ceiling ``epsilon * M_HEFT``."""
        return self.epsilon * self.m_heft

    @property
    def limit(self) -> float:
        """The feasibility threshold: ``bound`` with a relative tolerance."""
        return self.bound * (1.0 + 1e-12)

    def is_feasible(self, makespan: float) -> bool:
        """Constraint check with a relative tolerance on the boundary."""
        return makespan <= self.limit

    def scores(self, population: Population) -> np.ndarray:
        """Eqn. 8 over the whole population."""
        makespans = population.makespans
        out = population.avg_slacks.copy()
        feasible = makespans <= self.limit
        if feasible.all():
            return out

        infeasible = ~feasible
        ratio = self.bound / makespans[infeasible]  # < 1, smaller = worse violation
        if feasible.any():
            base = float(out[feasible].min())
            if base > 0.0:
                out[infeasible] = base * ratio
                return out
        out[infeasible] = ratio - 1.0
        return out


def quantile_duration_matrix(problem: SchedulingProblem, q: float) -> np.ndarray:
    """Per-(task, processor) duration quantiles for a pessimism-fed GA.

    Extension of the paper's future-work direction (Sec. 6): instead of the
    expected times, feed the engine the ``q``-quantile of each duration
    distribution (``q = 0.5`` is close to, but not identical to, the mean
    for the paper's uniform model — the mean sits at ``q = 0.5`` exactly,
    so values ``q > 0.5`` encode pessimism).
    """
    return problem.uncertainty.quantile_times(q)
