"""The paper's headline algorithm as a one-call API.

:class:`RobustScheduler` wires together everything Sec. 4 describes:

1. run HEFT (or take the caller's HEFT schedule) to obtain the reference
   makespan ``M_HEFT``;
2. build the ε-constraint fitness (Eqn. 8) with the user's ``ε``;
3. evolve with the GA (Sec. 4.2), seeding the initial population with the
   HEFT chromosome (encoded from the step-1 schedule, so HEFT runs once);
4. return the slack-maximal schedule satisfying
   ``M_0(s) <= ε · M_HEFT`` (Eqn. 7), along with the HEFT baseline for
   comparison.

Typical use::

    problem = SchedulingProblem.random(m=4, rng=0)
    result = RobustScheduler(epsilon=1.3, rng=1).solve(problem)
    report = assess_robustness(result.schedule, n_realizations=1000, rng=2)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.engine import GAParams, GAResult, GeneticScheduler
from repro.ga.fitness import EpsilonConstraintFitness
from repro.heuristics.heft import HeftScheduler
from repro.schedule.evaluation import evaluate, expected_makespan
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["RobustScheduler", "RobustResult"]


@dataclass(frozen=True)
class RobustResult:
    """Everything produced by one ε-constraint solve.

    Attributes
    ----------
    schedule:
        The best schedule found by the GA.
    heft_schedule:
        The HEFT baseline schedule of the same problem.
    m_heft:
        ``M_HEFT`` — expected makespan of the baseline.
    epsilon:
        The constraint multiplier used.
    ga_result:
        Full GA outcome (history, stop reason, ...).
    """

    schedule: Schedule
    heft_schedule: Schedule
    m_heft: float
    epsilon: float
    ga_result: GAResult

    @property
    def expected_makespan(self) -> float:
        """``M_0`` of the returned schedule."""
        return evaluate(self.schedule).makespan

    @property
    def avg_slack(self) -> float:
        """Average slack of the returned schedule."""
        return evaluate(self.schedule).avg_slack

    @property
    def feasible(self) -> bool:
        """Whether the returned schedule satisfies the ε-constraint."""
        return self.expected_makespan <= self.epsilon * self.m_heft * (1 + 1e-12)


class RobustScheduler:
    """ε-constraint robust scheduler (Eqn. 7): max slack s.t. bounded makespan.

    Parameters
    ----------
    epsilon:
        Makespan budget as a multiple of ``M_HEFT`` (paper sweeps 1.0–2.0).
    params:
        GA hyper-parameters; defaults to the paper's
        (``Np=20, pc=0.9, pm=0.1``, 1000 iterations / 100 stagnation).
    rng:
        Seed or generator driving the GA.
    warm_start:
        Optional chromosomes seeding the GA's initial population (see
        :class:`~repro.ga.engine.GeneticScheduler`); the solve stays
        deterministic in ``(problem, params, rng, warm_start)``.
    """

    name = "robust-ga"

    def __init__(
        self,
        epsilon: float = 1.0,
        params: GAParams | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        warm_start=None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.params = params or GAParams()
        self._rng = as_generator(rng)
        self.warm_start = warm_start

    def solve(
        self,
        problem: SchedulingProblem,
        *,
        heft_schedule: Schedule | None = None,
    ) -> RobustResult:
        """Run the full pipeline on *problem*.

        ``heft_schedule`` is *problem*'s HEFT schedule when the caller
        already has it (a grid solving one instance for several ε); HEFT
        then does not run again.
        """
        if heft_schedule is None:
            heft_schedule = HeftScheduler().schedule(problem)
        elif heft_schedule.problem is not problem:
            raise ValueError("heft_schedule must schedule the problem being solved")
        m_heft = expected_makespan(heft_schedule)
        fitness = EpsilonConstraintFitness(self.epsilon, m_heft)
        engine = GeneticScheduler(
            fitness, self.params, self._rng, warm_start=self.warm_start
        )
        ga_result = engine.run(problem, heft_schedule=heft_schedule)
        return RobustResult(
            schedule=ga_result.schedule,
            heft_schedule=heft_schedule,
            m_heft=m_heft,
            epsilon=self.epsilon,
            ga_result=ga_result,
        )

    def schedule(self, problem: SchedulingProblem) -> Schedule:
        """Scheduler-protocol facade returning only the best schedule."""
        return self.solve(problem).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RobustScheduler(epsilon={self.epsilon})"
