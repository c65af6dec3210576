"""Direct robustness optimization via the analytical estimator (extension).

The paper optimizes *slack* as a cheap surrogate for robustness.  With
the canonical-form Clark estimator (:mod:`repro.robustness.clark`)
providing ~1 %-accurate makespan-distribution moments in a single
O(n·(n+|E|)) pass, the surrogate can be bypassed: this fitness policy
keeps the ε-constraint of Eqn. 7 but maximizes the *analytic* robustness
(minimizes the closed-form expected relative tardiness) instead of the
average slack.

Comparing the two fitnesses on realized Monte-Carlo robustness (ablation
A4, ``benchmarks/test_ablation_analytic_fitness.py``) quantifies how much
the slack surrogate leaves on the table — an answer to the paper's
future-work question about exploiting stochastic information.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.ga.fitness import Population
from repro.robustness.clark import clark_makespan

__all__ = ["AnalyticRobustnessFitness"]

_INFEASIBLE_OFFSET = 1e6


class AnalyticRobustnessFitness:
    """ε-constraint fitness maximizing analytic robustness.

    Feasible individuals (``M_0 <= epsilon * m_heft``) score the negated
    closed-form expected relative tardiness of their schedule (so less
    tardiness = fitter); infeasible individuals score strictly below every
    feasible one, ordered by constraint violation.

    Parameters
    ----------
    epsilon:
        Makespan budget multiplier (as in Eqn. 7).
    m_heft:
        Reference makespan ``M_HEFT``.

    Notes
    -----
    Clark estimates are cached per chromosome, so repeated population
    evaluations (elites, copied survivors) pay once.
    """

    def __init__(self, epsilon: float, m_heft: float) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if m_heft <= 0:
            raise ValueError(f"m_heft must be positive, got {m_heft}")
        self.epsilon = float(epsilon)
        self.m_heft = float(m_heft)
        self.name = f"analytic-robustness(eps={epsilon:g})"
        self._cache: dict[bytes, float] = {}

    @classmethod
    def for_problem(
        cls, problem: SchedulingProblem, epsilon: float
    ) -> "AnalyticRobustnessFitness":
        """Build the policy by running HEFT on *problem* for ``M_HEFT``."""
        from repro.heuristics.heft import HeftScheduler
        from repro.schedule.evaluation import expected_makespan

        return cls(epsilon, expected_makespan(HeftScheduler().schedule(problem)))

    @property
    def bound(self) -> float:
        """The makespan ceiling ``epsilon * M_HEFT``."""
        return self.epsilon * self.m_heft

    def _tardiness(self, population: Population, i: int, makespan: float) -> float:
        order, proc_of = population.orders[i], population.procs[i]
        key = order.tobytes() + proc_of.tobytes()  # Chromosome.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        schedule = Chromosome(order.copy(), proc_of.copy()).decode(population.problem)
        value = clark_makespan(schedule).mean_relative_tardiness(makespan)
        self._cache[key] = value
        return value

    def scores(self, population: Population) -> np.ndarray:
        """Negated analytic tardiness for feasible, penalty otherwise."""
        out = np.empty(len(population), dtype=np.float64)
        bound = self.bound * (1.0 + 1e-12)
        for i, makespan in enumerate(population.makespans.tolist()):
            if makespan <= bound:
                out[i] = -self._tardiness(population, i, makespan)
            else:
                out[i] = -_INFEASIBLE_OFFSET + self.bound / makespan
        return out
