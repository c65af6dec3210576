"""Fitness policies (paper Sec. 4.2.3).

A policy maps the whole population's static metrics to fitness scores
(larger = fitter).  Policies receive the *population*, not individuals,
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

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.schedule.schedule import Schedule

__all__ = [
    "Individual",
    "FitnessPolicy",
    "MakespanFitness",
    "SlackFitness",
    "EpsilonConstraintFitness",
    "quantile_duration_matrix",
]


class Individual:
    """A chromosome with its static metrics; chromosome and schedule on demand.

    ``makespan`` and ``avg_slack`` are computed under the engine's duration
    view (expected durations by default; a quantile view in the extension).
    Two fields may be deferred:

    * ``chromosome``: the GA engine keeps its population in arrays, so an
      individual it evaluates holds its own copy of its two rows
      (:meth:`from_rows`) and builds the :class:`Chromosome` only when a
      caller reads it — the incumbent, the returned best, and policies
      that inspect chromosomes;
    * ``schedule``: the population kernel (:mod:`repro.ga.popeval`)
      computes metrics without materialising schedules, so individuals it
      produces carry ``schedule=None`` plus a ``problem``; the decode runs
      on first access (only the returned best typically needs it).
    """

    __slots__ = (
        "_chromosome",
        "_rows",
        "_schedule",
        "makespan",
        "avg_slack",
        "_problem",
    )

    def __init__(
        self,
        chromosome: Chromosome | None,
        schedule: Schedule | None,
        makespan: float,
        avg_slack: float | None = None,
        *,
        problem: SchedulingProblem | None = None,
    ) -> None:
        self._chromosome = chromosome
        self._rows = None
        self._schedule = schedule
        self.makespan = float(makespan)
        self.avg_slack = None if avg_slack is None else float(avg_slack)
        self._problem = problem

    @classmethod
    def from_rows(
        cls,
        order: np.ndarray,
        proc_of: np.ndarray,
        makespan: float,
        avg_slack: float,
        problem: SchedulingProblem,
    ) -> "Individual":
        """An individual over rows it owns; no other array may alias them.

        The GA engine's constructor: *makespan* and *avg_slack* are already
        Python floats (``ndarray.tolist``), so nothing is converted.
        """
        ind = cls.__new__(cls)
        ind._chromosome = None
        ind._rows = (order, proc_of)
        ind._schedule = None
        ind.makespan = makespan
        ind.avg_slack = avg_slack
        ind._problem = problem
        return ind

    @property
    def chromosome(self) -> Chromosome | None:
        """The chromosome; built from the owned rows on first read."""
        if self._chromosome is None and self._rows is not None:
            self._chromosome = Chromosome(*self._rows)
            self._rows = None
        return self._chromosome

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

    def scores(self, population: Sequence[Individual]) -> np.ndarray:
        """Fitness of every individual in *population*."""
        ...  # pragma: no cover - protocol


class MakespanFitness:
    """Reciprocal expected makespan — the classic single-objective GA (Fig. 2)."""

    name = "makespan"

    def scores(self, population: Sequence[Individual]) -> np.ndarray:
        """``1 / M_0`` per individual."""
        return np.asarray([1.0 / ind.makespan for ind in population], dtype=np.float64)


class SlackFitness:
    """Average slack — the robustness-only objective (Fig. 3)."""

    name = "slack"

    def scores(self, population: Sequence[Individual]) -> np.ndarray:
        """``σ̄`` per individual."""
        return np.asarray([ind.avg_slack for ind in population], dtype=np.float64)


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

    def scores(self, population: Sequence[Individual]) -> np.ndarray:
        """Eqn. 8 over the whole population."""
        makespans = np.asarray([ind.makespan for ind in population], dtype=np.float64)
        out = np.asarray([ind.avg_slack for ind in population], dtype=np.float64)
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
