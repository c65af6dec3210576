"""Weighted-sum scalarization (the other classical MOOP method).

Sec. 4 notes that "a few commonly used classical methods can be employed"
for the bi-objective problem; the paper picks the ε-constraint method.
This module provides the obvious alternative for ablations: a normalized
weighted sum of the two objectives,

.. math::

    f(s) = w \\cdot \\frac{M_{ref}}{M_0(s)} + (1 - w) \\cdot
           \\frac{\\bar\\sigma(s)}{\\sigma_{ref}}

with HEFT supplying both normalizers so the two terms are dimensionless
and O(1).  Unlike Eqn. 8 this fitness is population-independent, and
unlike the ε-constraint it cannot *guarantee* a makespan bound — the
trade-off the paper's choice avoids.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.fitness import Population

__all__ = ["WeightedSumFitness"]


class WeightedSumFitness:
    """Normalized weighted-sum fitness for the GA engine.

    Parameters
    ----------
    weight:
        Makespan emphasis ``w`` in [0, 1] (1 = pure makespan, 0 = pure
        slack), analogous to Eqn. 9's ``r``.
    m_ref:
        Makespan normalizer (typically ``M_HEFT``).
    slack_ref:
        Slack normalizer (typically HEFT's average slack); values <= 0 are
        clamped to a small positive floor since HEFT schedules can have
        near-zero slack.
    """

    def __init__(self, weight: float, m_ref: float, slack_ref: float) -> None:
        if not (0.0 <= weight <= 1.0):
            raise ValueError(f"weight must be in [0, 1], got {weight}")
        if m_ref <= 0:
            raise ValueError(f"m_ref must be positive, got {m_ref}")
        self.weight = float(weight)
        self.m_ref = float(m_ref)
        self.slack_ref = max(float(slack_ref), 1e-9 * self.m_ref)
        self.name = f"weighted-sum(w={weight:g})"

    @classmethod
    def for_problem(
        cls, problem: SchedulingProblem, weight: float
    ) -> "WeightedSumFitness":
        """Build with HEFT-derived normalizers."""
        from repro.heuristics.heft import HeftScheduler
        from repro.schedule.evaluation import evaluate

        ev = evaluate(HeftScheduler().schedule(problem))
        return cls(weight, ev.makespan, ev.avg_slack)

    def scores(self, population: Population) -> np.ndarray:
        """Per-row weighted sum (larger = fitter)."""
        return self.weight * (self.m_ref / population.makespans) + (
            1.0 - self.weight
        ) * (population.avg_slacks / self.slack_ref)
