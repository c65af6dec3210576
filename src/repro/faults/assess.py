"""Fault-aware Monte-Carlo robustness assessment.

:func:`assess_robustness_faulty` is the fault-injecting variant of
:func:`repro.robustness.montecarlo.assess_robustness`: same protocol
(sample ``N`` duration realizations, realize makespans, derive
tardiness / miss-rate / R1 / R2), but each realization runs through a
:class:`~repro.faults.scenario.FaultScenario` under a reactive policy.

Determinism contract (pinned by the property suite): with the empty
scenario and the default ``rerun-static`` policy, the generator calls,
the realized makespan samples and every derived metric are **bit-identical**
to the plain :func:`assess_robustness` path — fault awareness costs
nothing when there are no faults.

Realizations that never complete (a permanent processor failure strands
work the policy cannot move) have infinite makespans; they drive the
mean makespan and tardiness to infinity (``R1 = 0``) and count as
deadline misses, which is exactly what an unrecoverable fault should do
to a robustness score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.perturb import apply_tail_faults, realize_perturbed
from repro.faults.scenario import FaultScenario
from repro.heuristics.heft import upward_ranks
from repro.obs import runtime as obs
from repro.robustness.metrics import (
    mean_relative_tardiness,
    miss_rate,
    robustness_miss_rate,
    robustness_tardiness,
)
from repro.schedule.evaluation import batch_makespans, evaluate
from repro.schedule.schedule import Schedule
from repro.sim.dynamic import (
    luck_fractions,
    simulate_dynamic,
    simulate_semi_dynamic,
)
from repro.sim.eventsim import simulate
from repro.utils.rng import as_generator

__all__ = ["POLICIES", "FaultAssessment", "assess_robustness_faulty"]

#: The reactive policies a scenario can be assessed under.
POLICIES = ("rerun-static", "repair", "dynamic")


@dataclass(frozen=True)
class FaultAssessment:
    """Per-(schedule, scenario, policy) robustness under injected faults.

    Mirrors :class:`~repro.robustness.montecarlo.RobustnessReport` (same
    metric definitions, so numbers are directly comparable to the
    fault-free assessment) plus the fault bookkeeping.

    Attributes
    ----------
    scenario:
        Name of the assessed fault scenario.
    policy:
        Reactive policy (one of :data:`POLICIES`).
    expected_makespan:
        ``M_0`` — the promise made up front, always computed in the
        *fault-free* world (faults degrade delivery, not the promise).
        For the ``dynamic`` policy this is the makespan of the online run
        fed the expected durations.
    avg_slack:
        Average slack of the static schedule (``nan`` for ``dynamic``,
        which has no static schedule to take slack on).
    realized_makespans:
        The ``N`` per-realization makespans (``inf`` = never completed).
    n_failed:
        Realizations that never completed.
    n_tail_outliers:
        Duration draws replaced by heavy-tail outliers.
    n_redispatches:
        Repair actions taken (``repair`` policy only).
    """

    scenario: str
    policy: str
    expected_makespan: float
    avg_slack: float
    realized_makespans: np.ndarray
    mean_makespan: float
    mean_tardiness: float
    miss_rate: float
    r1: float
    r2: float
    n_failed: int
    n_tail_outliers: int
    n_redispatches: int

    @property
    def n_realizations(self) -> int:
        """Number of Monte-Carlo realizations behind this assessment."""
        return int(self.realized_makespans.size)


def _finalize(
    scenario: FaultScenario,
    policy: str,
    m0: float,
    avg_slack: float,
    realized: np.ndarray,
    n_outliers: int,
    n_redispatches: int,
) -> FaultAssessment:
    realized.setflags(write=False)
    n_failed = int(np.isinf(realized).sum())
    return FaultAssessment(
        scenario=scenario.name,
        policy=policy,
        expected_makespan=m0,
        avg_slack=avg_slack,
        realized_makespans=realized,
        mean_makespan=float(realized.mean()),
        mean_tardiness=mean_relative_tardiness(realized, m0),
        miss_rate=miss_rate(realized, m0),
        r1=robustness_tardiness(realized, m0),
        r2=robustness_miss_rate(realized, m0),
        n_failed=n_failed,
        n_tail_outliers=n_outliers,
        n_redispatches=n_redispatches,
    )


def assess_robustness_faulty(
    schedule: Schedule,
    scenario: FaultScenario | None = None,
    n_realizations: int = 1000,
    rng: np.random.Generator | int | None = None,
    *,
    policy: str = "rerun-static",
    family: str = "uniform",
) -> FaultAssessment:
    """Monte-Carlo robustness of *schedule* under *scenario* and *policy*.

    Parameters
    ----------
    schedule:
        The schedule under test (for ``policy="dynamic"`` only its
        problem is used — the online policy builds its own placements).
    scenario:
        The fault scenario; ``None`` means :meth:`FaultScenario.none`
        (then the default policy reproduces :func:`assess_robustness`
        bit-for-bit).
    n_realizations:
        ``N`` (paper default 1000).
    rng:
        Seed or generator for all draws (base durations first, tail
        faults after — the zero-fault stream layout matches the plain
        path exactly).
    policy:
        One of :data:`POLICIES`: ``rerun-static`` runs the schedule as
        planned (:func:`repro.sim.eventsim.simulate`), ``repair`` keeps
        its assignment but orders and re-dispatches at runtime
        (:func:`repro.sim.dynamic.simulate_semi_dynamic`), ``dynamic``
        places every task online
        (:func:`repro.sim.dynamic.simulate_dynamic`).
    family:
        Base duration distribution family (the faults perturb *on top*
        of it).

    Raises
    ------
    ValueError
        On an unknown policy, a fault referencing a task/processor the
        instance does not have, or invalid ``n_realizations``.
    """
    scenario = scenario if scenario is not None else FaultScenario.none()
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose one of {POLICIES}")
    n_realizations = int(n_realizations)
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    scenario.validate_for(schedule.n, schedule.m)

    gen = as_generator(rng)
    with obs.trace(
        "faults.assess",
        scenario=scenario.name,
        policy=policy,
        n_faults=len(scenario.faults),
        n_realizations=n_realizations,
    ):
        if scenario.faults:
            obs.add("faults.scenarios_assessed")
        if policy == "dynamic":
            return _assess_online(
                schedule, scenario, n_realizations, gen, family
            )

        # Static-assignment policies share the plain path's draw order:
        # evaluate (no RNG), then realize_durations, then tail faults.
        static = evaluate(schedule)
        m0 = static.makespan
        perturbed = realize_perturbed(
            schedule, scenario, n_realizations, gen,
            family=family, time_scale=m0,
        )
        if perturbed.n_tail_outliers:
            obs.add("faults.tail_outliers", perturbed.n_tail_outliers)
        env = perturbed.env
        durations = perturbed.durations

        n_redispatches = 0
        if policy == "rerun-static":
            if env is None:
                # No time-dependent faults: the vectorized kernel stays
                # valid (and bit-identical to the plain path when the
                # tail faults fired nowhere).
                realized = batch_makespans(
                    schedule, durations, validate=False
                ).copy()
            else:
                obs.add("faults.windows_injected", env.n_windows)
                realized = np.empty(n_realizations, dtype=np.float64)
                for r in range(n_realizations):
                    realized[r] = simulate(
                        schedule, durations[r], env=env
                    ).makespan
        else:  # repair
            if env is not None:
                obs.add("faults.windows_injected", env.n_windows)
            priorities = upward_ranks(schedule.problem)
            realized = np.empty(n_realizations, dtype=np.float64)
            for r in range(n_realizations):
                run = simulate_semi_dynamic(
                    schedule.problem,
                    schedule.proc_of,
                    durations[r],
                    priorities,
                    env=env,
                )
                realized[r] = run.makespan
                n_redispatches += int(
                    np.sum(run.proc_of != schedule.proc_of)
                )
        return _finalize(
            scenario, policy, m0, static.avg_slack, realized,
            perturbed.n_tail_outliers, n_redispatches,
        )


def _assess_online(
    schedule: Schedule,
    scenario: FaultScenario,
    n_realizations: int,
    gen: np.random.Generator,
    family: str,
) -> FaultAssessment:
    """The ``dynamic`` policy: online MCT runs through the faulty world.

    ``M_0`` is the fault-free online run fed the expected durations —
    the promise an online scheduler would make up front.  Realizations
    draw the full ``(n, m)`` duration matrix so the placement choice
    always sees a consistent world; tail outliers are drawn per task
    (one luck per task and realization) and mapped to every processor's
    support so an outlier straggles wherever it lands.
    """
    problem = schedule.problem
    if family != "uniform":
        raise ValueError(
            "the dynamic policy supports only the uniform duration family"
        )
    priorities = upward_ranks(problem)
    m0 = simulate_dynamic(problem, problem.expected_times, priorities).makespan

    unc = problem.uncertainty
    low_m = unc.bcet
    high_m = (2.0 * unc.ul - 1.0) * low_m
    env = scenario.environment(problem.m, time_scale=m0)
    if env is not None:
        obs.add("faults.windows_injected", env.n_windows)

    realized = np.empty(n_realizations, dtype=np.float64)
    n_outliers = 0
    # Representative per-task support for the shared-luck tail mapping:
    # the per-processor mean bounds.
    low_bar = low_m.mean(axis=1)
    high_bar = high_m.mean(axis=1)
    for r in range(n_realizations):
        durations = gen.uniform(low_m, high_m)
        if scenario.tail_faults:
            # Draw outliers on the mean support, then carry each task's
            # luck fraction to all processors.
            d_bar = durations.mean(axis=1)
            d_bar, k = apply_tail_faults(
                d_bar[None, :], low_bar, high_bar, scenario, gen
            )
            if k:
                n_outliers += k
                u = luck_fractions(d_bar[0], low_bar, high_bar)
                outlier_rows = u > 1.0
                if np.any(outlier_rows):
                    span = high_m - low_m
                    stretched = low_m + u[:, None] * np.where(
                        span > 0.0, span, high_m
                    )
                    durations = np.where(
                        outlier_rows[:, None], stretched, durations
                    )
        realized[r] = simulate_dynamic(
            problem, durations, priorities, env=env
        ).makespan
    if n_outliers:
        obs.add("faults.tail_outliers", n_outliers)
    return _finalize(
        scenario, "dynamic", m0, float("nan"), realized, n_outliers, 0
    )
