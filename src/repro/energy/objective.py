"""The energy objective wired into the ε-constraint GA machinery.

The paper's Eqn. 7 is *max slack s.t. makespan ≤ ε·M_HEFT*; the energy
extension swaps the objective and keeps the constraint algebra:

    minimize   E(s)                       (expected joules, PowerModel)
    subject to M_0(s) ≤ ε · M_HEFT        (the paper's budget)
               σ̄(s)  ≥ R                 (reliability floor: average
                                           slack, the paper's robustness
                                           surrogate — Monte-Carlo R1/R2
                                           verify it post-hoc)

:class:`EnergyConstraintFitness` follows the population-based penalty
scheme of Eqn. 8 exactly: feasible individuals are ranked by
``1/(1+E)`` (positive, monotone in energy), infeasible ones sit strictly
below the worst feasible one, scaled by their constraint-violation
ratio.  Energies come from
:meth:`~repro.energy.power.PowerModel.population_energies`, which reads
the population's assignment matrix directly — no chromosome decode, so
a generation costs the same as the paper's slack fitness.

:class:`EnergyScheduler` is the one-call pipeline mirroring
:class:`~repro.core.robust.RobustScheduler`.  With a ``None`` or
all-zero power model it *is* the robust scheduler — same fitness object,
same RNG stream, bit-identical schedules (pinned by
``tests/property/test_energy_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.energy.power import EnergyBreakdown, PowerModel
from repro.ga.engine import GAParams, GAResult, GeneticScheduler
from repro.ga.fitness import EpsilonConstraintFitness, Population
from repro.heuristics.heft import HeftScheduler
from repro.obs import runtime as obs
from repro.schedule.evaluation import evaluate, expected_makespan
from repro.schedule.schedule import Schedule

__all__ = ["EnergyConstraintFitness", "EnergyScheduler", "EnergyResult"]

_TOL = 1e-12


class EnergyConstraintFitness:
    """Minimize energy subject to a makespan budget and a slack floor.

    Parameters
    ----------
    power:
        The :class:`~repro.energy.power.PowerModel` pricing the
        population (must not be null — the null model degenerates to
        :class:`~repro.ga.fitness.EpsilonConstraintFitness`, which
        :class:`EnergyScheduler` handles).
    problem:
        The instance being solved (pricing needs its expected times,
        graph and platform).
    epsilon / m_heft:
        The paper's budget: feasibility requires
        ``M_0 <= epsilon * m_heft``.
    min_slack:
        Reliability floor ``R``: feasibility additionally requires
        ``avg_slack >= min_slack``.  Zero disables the floor.
    """

    def __init__(
        self,
        power: PowerModel,
        problem: SchedulingProblem,
        epsilon: float,
        m_heft: float,
        *,
        min_slack: float = 0.0,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if m_heft <= 0:
            raise ValueError(f"m_heft must be positive, got {m_heft}")
        if min_slack < 0:
            raise ValueError(f"min_slack must be >= 0, got {min_slack}")
        power.validate_for(problem.m)
        self.power = power
        self.problem = problem
        self.epsilon = float(epsilon)
        self.m_heft = float(m_heft)
        self.min_slack = float(min_slack)
        self.name = f"energy(eps={epsilon:g}, R={min_slack:g})"

    @classmethod
    def for_problem(
        cls,
        problem: SchedulingProblem,
        power: PowerModel,
        epsilon: float,
        *,
        slack_ratio: float = 0.0,
    ) -> "EnergyConstraintFitness":
        """Build the policy by running HEFT for ``M_HEFT``.

        ``slack_ratio`` expresses the reliability floor relative to the
        HEFT schedule's average slack; any ratio ≤ 1 keeps the HEFT seed
        feasible, so the GA always returns a constraint-satisfying
        schedule.
        """
        heft = HeftScheduler().schedule(problem)
        ev = evaluate(heft)
        min_slack = slack_ratio * ev.avg_slack if slack_ratio > 0 else 0.0
        return cls(
            power, problem, epsilon, ev.makespan, min_slack=float(min_slack)
        )

    @property
    def bound(self) -> float:
        """The makespan ceiling ``epsilon * M_HEFT``."""
        return self.epsilon * self.m_heft

    def is_feasible(self, makespan: float) -> bool:
        """Makespan-budget check (the engine's feasibility telemetry)."""
        return makespan <= self.bound * (1.0 + _TOL)

    def scores(self, population: Population) -> np.ndarray:
        """Eqn.-8-style population scores with energy as the objective."""
        makespans = population.makespans
        energies = self.power.population_energies(
            self.problem, population.procs, makespans
        )

        feasible = makespans <= self.bound * (1.0 + _TOL)
        ratio = np.minimum(1.0, self.bound / makespans)
        if self.min_slack > 0.0:
            slacks = population.avg_slacks
            feasible &= slacks >= self.min_slack * (1.0 - _TOL)
            ratio = ratio * np.minimum(
                1.0, np.maximum(slacks, 0.0) / self.min_slack
            )

        out = np.empty(len(population), dtype=np.float64)
        out[feasible] = 1.0 / (1.0 + energies[feasible])
        if not np.any(~feasible):
            return out
        if np.any(feasible):
            # Strictly below every feasible score, ordered by violation.
            base = float(out[feasible].min())
            out[~feasible] = base * ratio[~feasible] * (1.0 - 1e-9)
        else:
            out[~feasible] = ratio[~feasible] - 1.0
        return out


@dataclass(frozen=True)
class EnergyResult:
    """Everything produced by one energy-constrained solve."""

    schedule: Schedule
    heft_schedule: Schedule
    m_heft: float
    epsilon: float
    min_slack: float
    power: PowerModel
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
        """Whether both constraints hold on the returned schedule."""
        return (
            self.expected_makespan <= self.epsilon * self.m_heft * (1 + _TOL)
            and self.avg_slack >= self.min_slack * (1 - _TOL)
        )

    @property
    def breakdown(self) -> EnergyBreakdown:
        """Energy breakdown of the returned schedule (full frequency)."""
        return self.power.energy_of(self.schedule)

    @property
    def energy(self) -> float:
        """Total expected joules of the returned schedule."""
        return self.breakdown.total

    @property
    def heft_energy(self) -> float:
        """Total expected joules of the HEFT baseline."""
        return self.power.energy_of(self.heft_schedule).total


class EnergyScheduler:
    """Energy-constrained scheduler: min energy s.t. bounded makespan.

    Drop-in sibling of :class:`~repro.core.robust.RobustScheduler`:
    HEFT for the reference makespan, then the GA under
    :class:`EnergyConstraintFitness`.  A ``None`` or null power model
    degenerates to the paper's ε-constraint fitness — same RNG
    consumption, bit-identical schedules — so energy awareness is free
    to thread through call sites unconditionally.

    Parameters
    ----------
    epsilon:
        Makespan budget as a multiple of ``M_HEFT``.
    power:
        The power model; ``None`` or :meth:`PowerModel.null` selects the
        degenerate slack-maximizing path.
    params / rng / warm_start:
        As for :class:`~repro.core.robust.RobustScheduler`.
    slack_ratio:
        Reliability floor as a fraction of HEFT's average slack
        (``R = slack_ratio × σ̄_HEFT``); ratios ≤ 1 keep the HEFT seed
        feasible.  Ignored on the degenerate path.
    """

    name = "energy-ga"

    def __init__(
        self,
        epsilon: float = 1.0,
        power: PowerModel | None = None,
        params: GAParams | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        slack_ratio: float = 0.0,
        warm_start=None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if not (0.0 <= slack_ratio <= 1.0):
            raise ValueError(
                f"slack_ratio must be in [0, 1] to keep the HEFT seed "
                f"feasible, got {slack_ratio}"
            )
        from repro.utils.rng import as_generator

        self.epsilon = float(epsilon)
        self.power = power
        self.params = params or GAParams()
        self._rng = as_generator(rng)
        self.slack_ratio = float(slack_ratio)
        self.warm_start = warm_start

    def solve(
        self,
        problem: SchedulingProblem,
        *,
        heft_schedule: Schedule | None = None,
    ) -> EnergyResult:
        """Run the full pipeline on *problem*.

        ``heft_schedule`` is *problem*'s HEFT schedule when the caller
        already has it (a sweep solving one instance for several ε); HEFT
        then does not run again.
        """
        if heft_schedule is not None and heft_schedule.problem is not problem:
            raise ValueError("heft_schedule must schedule the problem being solved")
        power = self.power
        degenerate = power is None or power.is_null
        with obs.trace(
            "energy.solve",
            epsilon=self.epsilon,
            power=(power.name if power is not None else "none"),
            degenerate=degenerate,
        ):
            if heft_schedule is None:
                heft_schedule = HeftScheduler().schedule(problem)
            m_heft = expected_makespan(heft_schedule)
            if degenerate:
                fitness = EpsilonConstraintFitness(self.epsilon, m_heft)
                min_slack = 0.0
            else:
                min_slack = (
                    self.slack_ratio * evaluate(heft_schedule).avg_slack
                    if self.slack_ratio > 0
                    else 0.0
                )
                fitness = EnergyConstraintFitness(
                    power, problem, self.epsilon, m_heft, min_slack=min_slack
                )
            engine = GeneticScheduler(
                fitness, self.params, self._rng, warm_start=self.warm_start
            )
            ga_result = engine.run(problem, heft_schedule=heft_schedule)
            obs.add("energy.solves")
            result = EnergyResult(
                schedule=ga_result.schedule,
                heft_schedule=heft_schedule,
                m_heft=m_heft,
                epsilon=self.epsilon,
                min_slack=float(min_slack),
                power=power if power is not None else PowerModel.null(problem.m),
                ga_result=ga_result,
            )
            if obs.enabled():
                obs.set_gauge("energy.last_total", result.energy)
            return result

    def schedule(self, problem: SchedulingProblem) -> Schedule:
        """Scheduler-protocol facade returning only the best schedule."""
        return self.solve(problem).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnergyScheduler(epsilon={self.epsilon}, "
            f"power={getattr(self.power, 'name', None)!r})"
        )
