"""Fault-grid experiment: schedulers × reactive policies × fault scenarios.

The paper argues slack-maximizing schedules are robust against stochastic
duration noise; this experiment asks whether that robustness extends to
*faults* the GA never optimized for.  Per instance it pits

* HEFT under ``rerun-static`` and ``repair``,
* the ε-constraint robust GA under ``rerun-static`` and ``repair``,
* the fully online ``dynamic`` MCT baseline

against every requested :class:`~repro.faults.scenario.FaultScenario`,
assessing each cell with :func:`repro.faults.assess_robustness_faulty`
(same R1/R2/miss-rate definitions as the paper's Monte-Carlo protocol, so
numbers are comparable to the fault-free experiments).

Each instance is one cell of :func:`~repro.experiments.grid.run_grid` —
the GA is solved once per instance and reused across all scenarios —
with every random stream derived from the config seed, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import TaskSpec
from repro.core.robust import RobustScheduler
from repro.experiments.config import R1_CAP, ExperimentConfig
from repro.experiments.grid import run_grid
from repro.experiments.runner import capped
from repro.experiments.workloads import make_problem
from repro.faults.assess import FaultAssessment, assess_robustness_faulty
from repro.faults.scenario import FaultScenario
from repro.heuristics.heft import HeftScheduler
from repro.utils.rng import role_stream
from repro.utils.tables import format_table

__all__ = ["FaultOutcome", "FaultGridResults", "run_fault_grid", "STRATEGIES"]

#: (scheduler label, policy) combinations the grid evaluates by default.
STRATEGIES: tuple[tuple[str, str], ...] = (
    ("heft", "rerun-static"),
    ("heft", "repair"),
    ("robust-ga", "rerun-static"),
    ("robust-ga", "repair"),
    ("online", "dynamic"),
)


@dataclass(frozen=True)
class FaultOutcome:
    """One grid cell: (instance, scenario, scheduler, policy) assessed."""

    instance: int
    scenario: str
    scheduler: str
    policy: str
    assessment: FaultAssessment


def _instance_cells(
    config: ExperimentConfig,
    mean_ul: float,
    index: int,
    epsilon: float,
    scenarios: tuple[FaultScenario, ...],
    strategies: tuple[tuple[str, str], ...],
    ga_params=None,
) -> list[FaultOutcome]:
    """All (scenario, strategy) cells of one instance.

    HEFT and the GA are each solved once; the GA and every Monte-Carlo
    assessment draw the ``fault_grid.*`` streams of
    :data:`repro.utils.rng.STREAM_ROLES`, so the cells are
    order-independent and share no stream with another experiment.
    """
    problem = make_problem(config, mean_ul, index)
    n_real = config.scale.n_realizations
    ul_key = int(round(mean_ul * 1000))

    schedules = {"heft": HeftScheduler().schedule(problem)}
    if any(s == "robust-ga" for s, _ in strategies):
        ga_rng = role_stream(config.seed, "fault_grid.ga", index, ul_key)
        params = ga_params if ga_params is not None else config.ga_params()
        schedules["robust-ga"] = RobustScheduler(
            epsilon=epsilon, params=params, rng=ga_rng
        ).solve(problem, heft_schedule=schedules["heft"]).schedule
    # The online baseline only needs the problem; hand it any schedule.
    schedules["online"] = schedules["heft"]

    outcomes: list[FaultOutcome] = []
    for si, scenario in enumerate(scenarios):
        for ki, (scheduler, policy) in enumerate(strategies):
            mc_rng = role_stream(
                config.seed, "fault_grid.mc", index, ul_key, si, ki
            )
            assessment = assess_robustness_faulty(
                schedules[scheduler], scenario, n_real, mc_rng, policy=policy
            )
            outcomes.append(
                FaultOutcome(
                    instance=index,
                    scenario=scenario.name,
                    scheduler=scheduler,
                    policy=policy,
                    assessment=assessment,
                )
            )
    return outcomes


@dataclass(frozen=True)
class FaultGridResults:
    """All raw cells of one fault-grid run."""

    config: ExperimentConfig
    mean_ul: float
    epsilon: float
    scenarios: tuple[str, ...]
    strategies: tuple[tuple[str, str], ...]
    outcomes: list[FaultOutcome]

    def cells(self, scenario: str, scheduler: str, policy: str) -> list[FaultOutcome]:
        """Per-instance outcomes of one (scenario, strategy) cell."""
        return [
            o
            for o in self.outcomes
            if o.scenario == scenario
            and o.scheduler == scheduler
            and o.policy == policy
        ]

    def to_table(self) -> str:
        """Instance-averaged summary, one row per (scenario, strategy).

        ``mean M`` averages realized makespans across instances and
        realizations (``inf`` = some realization never completed);
        ``R1`` is the instance-mean with infinite values capped at
        ``R1_CAP``; ``fail%`` is the fraction of realizations
        that never completed; ``redisp`` the mean number of repair
        re-dispatches per realization.
        """
        rows = []
        for scenario in self.scenarios:
            for scheduler, policy in self.strategies:
                cells = self.cells(scenario, scheduler, policy)
                if not cells:
                    continue
                n_real = sum(o.assessment.n_realizations for o in cells)
                rows.append([
                    scenario,
                    scheduler,
                    policy,
                    float(np.mean([o.assessment.mean_makespan for o in cells])),
                    float(np.mean([o.assessment.miss_rate for o in cells])),
                    float(np.mean([capped(o.assessment.r1, R1_CAP) for o in cells])),
                    100.0 * sum(o.assessment.n_failed for o in cells) / n_real,
                    sum(o.assessment.n_redispatches for o in cells) / n_real,
                ])
        n_inst = len({o.instance for o in self.outcomes})
        return format_table(
            ["scenario", "scheduler", "policy", "mean M", "miss", "R1",
             "fail%", "redisp"],
            rows,
            title=(
                f"fault grid  (UL={self.mean_ul:g}, eps={self.epsilon:g}, "
                f"{n_inst} instances, N={self.config.scale.n_realizations})"
            ),
        )


def run_fault_grid(
    config: ExperimentConfig,
    scenarios: tuple[FaultScenario, ...],
    *,
    mean_ul: float = 4.0,
    epsilon: float = 1.4,
    strategies: tuple[tuple[str, str], ...] = STRATEGIES,
    ga_params=None,
    n_jobs: int = 1,
    progress=None,
) -> FaultGridResults:
    """Assess every (instance, scenario, strategy) cell of the fault grid.

    Parameters
    ----------
    config:
        Scale / seeding configuration (same object the figure drivers
        take; ``scale.n_graphs`` instances are generated).
    scenarios:
        The fault scenarios to grid over.
    mean_ul:
        Uncertainty level of the instance pool (paper sweeps 2–8; the
        fault grid fixes one level and varies the faults instead).
    epsilon:
        ε-constraint for the robust GA strategies.
    strategies:
        (scheduler, policy) pairs; see :data:`STRATEGIES`.
    ga_params:
        Optional :class:`~repro.ga.engine.GAParams` override for the
        robust-GA strategies (default: ``config.ga_params()``).
    n_jobs:
        Worker processes (1 = in-process); results are bit-identical for
        any value.
    progress:
        Optional ``progress(msg)`` callable.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ValueError("need at least one scenario")
    strategies = tuple((str(s), str(p)) for s, p in strategies)
    if not strategies:
        raise ValueError("need at least one (scheduler, policy) strategy")
    for scheduler, _ in strategies:
        if scheduler not in ("heft", "robust-ga", "online"):
            raise ValueError(
                f"unknown scheduler {scheduler!r}; "
                "choose heft, robust-ga or online"
            )

    specs = [
        TaskSpec(
            key=f"fault/instance={i}",
            fn=_instance_cells,
            args=(config, mean_ul, i, epsilon, scenarios, strategies, ga_params),
        )
        for i in range(config.scale.n_graphs)
    ]
    outcomes = [
        o
        for cell in run_grid(specs, n_jobs=n_jobs, progress=progress)
        for o in cell
    ]
    outcomes.sort(key=lambda o: (o.instance, o.scenario, o.scheduler, o.policy))
    return FaultGridResults(
        config=config,
        mean_ul=float(mean_ul),
        epsilon=float(epsilon),
        scenarios=tuple(s.name for s in scenarios),
        strategies=strategies,
        outcomes=outcomes,
    )
