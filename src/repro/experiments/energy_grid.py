"""Energy-grid experiment: the three-objective frontier study.

The paper trades makespan against robustness; :mod:`repro.energy` adds
expected energy as a third axis.  Per instance this grid pits

* HEFT (the paper's baseline — fast, power-oblivious),
* the ε-constraint robust GA (slack-maximizing, power-oblivious),
* the energy GA (min energy s.t. ``M_0 ≤ ε·M_HEFT`` and
  ``σ̄ ≥ slack_ratio·σ̄_HEFT``)

across a sweep of ε budgets, pricing every schedule with one shared
:class:`~repro.energy.power.PowerModel`, assessing each with the same
Monte-Carlo R1/R2 protocol as the paper's experiments, and adding a
DVFS post-pass column (:func:`~repro.energy.power.slowest_feasible_freqs`)
showing how much frequency scaling recovers within the same budget.

At the largest ε the energy-GA schedule is additionally hardened into
k-fault-tolerant :class:`~repro.energy.replication.ReplicationPlan`\\ s
under both backup policies (``overlap`` vs ``duplicate``), each verified
to survive every ≤k-processor permanent-failure subset via
:func:`~repro.energy.replication.verify_survival` — the grid's headline
comparison is that overlapping reserves strictly less backup energy at
equal verified reliability.

Each instance is one cell of :func:`~repro.experiments.grid.run_grid`;
every random stream is an ``energy_grid.*`` stream of
:data:`repro.utils.rng.STREAM_ROLES` rooted at the config seed, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import TaskSpec
from repro.core.robust import RobustScheduler
from repro.energy.objective import EnergyScheduler
from repro.energy.power import PowerModel, slowest_feasible_freqs
from repro.energy.replication import (
    REPLICATION_POLICIES,
    ReplicationEnergy,
    SurvivalReport,
    build_replication_plan,
    verify_survival,
)
from repro.experiments.config import R1_CAP, ExperimentConfig
from repro.experiments.grid import run_grid
from repro.experiments.runner import capped
from repro.experiments.workloads import make_problem
from repro.heuristics.heft import HeftScheduler
from repro.robustness.montecarlo import RobustnessReport, assess_robustness
from repro.schedule.evaluation import evaluate
from repro.utils.rng import role_stream
from repro.utils.tables import format_table

__all__ = [
    "EnergyOutcome",
    "ReplicationOutcome",
    "EnergyGridResults",
    "run_energy_grid",
    "STRATEGIES",
]

#: Scheduling strategies the grid evaluates by default.
STRATEGIES: tuple[str, ...] = ("heft", "robust-ga", "energy-ga")

_TOL = 1e-12


@dataclass(frozen=True)
class EnergyOutcome:
    """One grid cell: (instance, strategy, ε) solved, priced, assessed."""

    instance: int
    strategy: str
    epsilon: float
    m_heft: float
    makespan: float
    avg_slack: float
    min_slack: float
    energy: float
    dvfs_energy: float
    report: RobustnessReport

    @property
    def feasible(self) -> bool:
        """Both ε-budget and slack floor hold for this cell."""
        return (
            self.makespan <= self.epsilon * self.m_heft * (1.0 + _TOL)
            and self.avg_slack >= self.min_slack * (1.0 - _TOL)
        )


@dataclass(frozen=True)
class ReplicationOutcome:
    """One replication cell: the hardened schedule under one policy."""

    instance: int
    policy: str
    k: int
    deadline: float
    energy: ReplicationEnergy
    survival: SurvivalReport


def _instance_cells(
    config: ExperimentConfig,
    mean_ul: float,
    index: int,
    power: PowerModel,
    epsilons: tuple[float, ...],
    slack_ratio: float,
    k: int,
    deadline_factor: float,
    strategies: tuple[str, ...],
    replication_realizations: int,
    ga_params=None,
) -> tuple[list[EnergyOutcome], list[ReplicationOutcome]]:
    """All (strategy, ε) cells of one instance plus its replication cells.

    HEFT is solved once; each GA strategy is solved once per ε with its
    own ``energy_grid.ga`` stream; every Monte-Carlo / survival assessment
    draws an ``energy_grid.mc`` stream, which no other experiment uses, so
    grids can share a seed.
    """
    problem = make_problem(config, mean_ul, index)
    n_real = config.scale.n_realizations
    ul_key = int(round(mean_ul * 1000))

    heft_schedule = HeftScheduler().schedule(problem)
    heft_ev = evaluate(heft_schedule)
    m_heft = heft_ev.makespan
    min_slack = slack_ratio * heft_ev.avg_slack if slack_ratio > 0 else 0.0

    def _mc_rng(*key: int) -> np.random.Generator:
        return role_stream(config.seed, "energy_grid.mc", index, ul_key, *key)

    def _cell(strategy: str, eps: float, schedule, floor: float, si: int,
              ki: int) -> EnergyOutcome:
        ev = evaluate(schedule)
        breakdown = power.energy_of(schedule)
        _, dvfs = slowest_feasible_freqs(schedule, power, eps * m_heft)
        report = assess_robustness(schedule, n_real, _mc_rng(si, ki))
        return EnergyOutcome(
            instance=index,
            strategy=strategy,
            epsilon=float(eps),
            m_heft=m_heft,
            makespan=ev.makespan,
            avg_slack=ev.avg_slack,
            min_slack=float(floor),
            energy=breakdown.total,
            dvfs_energy=dvfs.total,
            report=report,
        )

    outcomes: list[EnergyOutcome] = []
    energy_best = None  # largest-ε energy-GA schedule, for replication
    for si, eps in enumerate(epsilons):
        eps_key = int(round(eps * 1000))
        for ki, strategy in enumerate(strategies):
            if strategy == "heft":
                # ε-independent; report once under the trivial ε = 1 budget.
                if si == 0:
                    outcomes.append(
                        _cell("heft", 1.0, heft_schedule, 0.0, si, ki)
                    )
                continue
            ga_rng = role_stream(
                config.seed, "energy_grid.ga", index, ul_key, eps_key, ki
            )
            params = ga_params if ga_params is not None else config.ga_params()
            if strategy == "robust-ga":
                schedule = RobustScheduler(
                    epsilon=eps, params=params, rng=ga_rng
                ).solve(problem, heft_schedule=heft_schedule).schedule
                outcomes.append(_cell(strategy, eps, schedule, 0.0, si, ki))
            else:  # energy-ga
                schedule = EnergyScheduler(
                    epsilon=eps,
                    power=power,
                    params=params,
                    rng=ga_rng,
                    slack_ratio=slack_ratio,
                ).solve(problem, heft_schedule=heft_schedule).schedule
                outcomes.append(
                    _cell(strategy, eps, schedule, min_slack, si, ki)
                )
                energy_best = schedule

    replication: list[ReplicationOutcome] = []
    if k > 0:
        base = energy_best if energy_best is not None else heft_schedule
        deadline = deadline_factor * m_heft
        for pi, policy in enumerate(REPLICATION_POLICIES):
            plan = build_replication_plan(
                problem, base, k=k, policy=policy, deadline=deadline
            )
            survival = verify_survival(
                plan,
                n_realizations=replication_realizations,
                rng=_mc_rng(1000, pi),
            )
            replication.append(
                ReplicationOutcome(
                    instance=index,
                    policy=policy,
                    k=k,
                    deadline=deadline,
                    energy=plan.energy(power),
                    survival=survival,
                )
            )
    return outcomes, replication


@dataclass(frozen=True)
class EnergyGridResults:
    """All raw cells of one energy-grid run."""

    config: ExperimentConfig
    mean_ul: float
    power: PowerModel
    epsilons: tuple[float, ...]
    slack_ratio: float
    k: int
    deadline_factor: float
    strategies: tuple[str, ...]
    outcomes: list[EnergyOutcome]
    replication: list[ReplicationOutcome]

    def cells(self, strategy: str, epsilon: float | None = None) -> list[EnergyOutcome]:
        """Per-instance outcomes of one (strategy[, ε]) cell."""
        return [
            o
            for o in self.outcomes
            if o.strategy == strategy
            and (epsilon is None or abs(o.epsilon - epsilon) < 1e-9)
        ]

    def replication_cells(self, policy: str) -> list[ReplicationOutcome]:
        """Per-instance replication outcomes of one backup policy."""
        return [r for r in self.replication if r.policy == policy]

    def to_table(self) -> str:
        """Instance-averaged frontier, one row per (strategy, ε).

        ``M/M_H`` is the mean makespan ratio against HEFT; ``E`` the mean
        expected joules, ``E dvfs`` after the slowest-feasible-frequency
        post-pass within the same ε budget; ``R1`` the instance-mean with
        infinities capped at ``R1_CAP``; ``feas%`` the
        fraction of cells meeting both constraints (must be 100 for the
        GA strategies — HEFT seeds the population).
        """
        rows = []
        keys: list[tuple[str, float]] = [("heft", 1.0)] if "heft" in self.strategies else []
        for eps in self.epsilons:
            for strategy in self.strategies:
                if strategy != "heft":
                    keys.append((strategy, eps))
        for strategy, eps in keys:
            cells = self.cells(strategy, eps)
            if not cells:
                continue
            rows.append([
                strategy,
                eps,
                float(np.mean([o.makespan / o.m_heft for o in cells])),
                float(np.mean([o.avg_slack for o in cells])),
                float(np.mean([o.energy for o in cells])),
                float(np.mean([o.dvfs_energy for o in cells])),
                float(np.mean([capped(o.report.r1, R1_CAP) for o in cells])),
                float(np.mean([o.report.miss_rate for o in cells])),
                100.0 * np.mean([o.feasible for o in cells]),
            ])
        n_inst = len({o.instance for o in self.outcomes})
        return format_table(
            ["strategy", "eps", "M/M_H", "slack", "E", "E dvfs", "R1",
             "miss", "feas%"],
            rows,
            title=(
                f"energy grid  (UL={self.mean_ul:g}, "
                f"R={self.slack_ratio:g}·HEFT, power={self.power.name}, "
                f"{n_inst} instances, N={self.config.scale.n_realizations})"
            ),
        )

    def replication_table(self) -> str:
        """Replication summary, one row per backup policy.

        ``E total`` is the fault-free energy (overlap pays zero backup
        joules until something fails — the EnSuRe saving); ``E worst``
        the worst-case recovery energy over every ≤k failure subset,
        ``reserve`` the total reserved backup capacity;
        ``survive%``/``guaranteed%`` the fraction of instances whose plan
        met the deadline across all subsets (Monte-Carlo / worst-case).
        """
        rows = []
        for policy in REPLICATION_POLICIES:
            cells = self.replication_cells(policy)
            if not cells:
                continue
            rows.append([
                policy,
                self.k,
                float(np.mean([r.energy.total for r in cells])),
                float(np.mean([r.energy.worst_case_backup for r in cells])),
                float(np.mean([r.energy.reserved_time.sum() for r in cells])),
                100.0 * np.mean([r.survival.survives for r in cells]),
                100.0 * np.mean([r.survival.guaranteed for r in cells]),
            ])
        return format_table(
            ["policy", "k", "E total", "E worst", "reserve",
             "survive%", "guaranteed%"],
            rows,
            title=(
                f"replication  (k={self.k}, "
                f"deadline={self.deadline_factor:g}·M_HEFT)"
            ),
        )


def run_energy_grid(
    config: ExperimentConfig,
    *,
    power: PowerModel | None = None,
    epsilons: tuple[float, ...] = (1.0, 1.3, 1.6),
    mean_ul: float = 4.0,
    slack_ratio: float = 0.5,
    k: int = 1,
    deadline_factor: float = 4.0,
    strategies: tuple[str, ...] = STRATEGIES,
    replication_realizations: int = 20,
    ga_params=None,
    n_jobs: int = 1,
    progress=None,
) -> EnergyGridResults:
    """Run the full energy frontier study.

    Parameters
    ----------
    config:
        Scale / seeding configuration (``scale.n_graphs`` instances).
    power:
        Power model shared by every cell (default:
        :meth:`PowerModel.default` for ``config.m`` processors).
    epsilons:
        Makespan budgets (multiples of per-instance ``M_HEFT``).
    mean_ul:
        Uncertainty level of the instance pool.
    slack_ratio:
        Reliability floor for the energy GA, as a fraction of HEFT's
        average slack; must stay ≤ 1 so the HEFT seed keeps every cell
        feasible.
    k / deadline_factor:
        Replication cells: tolerate any ≤k permanent processor failures
        while meeting ``deadline_factor · M_HEFT``; ``k=0`` skips
        replication entirely.
    strategies:
        Subset of :data:`STRATEGIES` to evaluate.
    replication_realizations:
        Monte-Carlo realizations per failure subset in
        :func:`~repro.energy.replication.verify_survival`.
    ga_params:
        Optional :class:`~repro.ga.engine.GAParams` override
        (default: ``config.ga_params()``).
    n_jobs:
        Worker processes (1 = in-process); results are bit-identical for
        any value.
    progress:
        Optional ``progress(msg)`` callable.
    """
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons:
        raise ValueError("need at least one epsilon")
    if any(e < 1.0 for e in epsilons):
        raise ValueError(f"epsilons must be >= 1.0, got {epsilons}")
    strategies = tuple(str(s) for s in strategies)
    if not strategies:
        raise ValueError("need at least one strategy")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > 0 and deadline_factor <= 0:
        raise ValueError(
            f"deadline_factor must be positive, got {deadline_factor}"
        )
    if power is None:
        power = PowerModel.default(config.m)
    power.validate_for(config.m)

    specs = [
        TaskSpec(
            key=f"energy/instance={i}",
            fn=_instance_cells,
            args=(
                config, mean_ul, i, power, epsilons, slack_ratio, k,
                deadline_factor, strategies, replication_realizations,
                ga_params,
            ),
        )
        for i in range(config.scale.n_graphs)
    ]
    outcomes: list[EnergyOutcome] = []
    replication: list[ReplicationOutcome] = []
    for cell_outcomes, cell_replication in run_grid(
        specs, n_jobs=n_jobs, progress=progress
    ):
        outcomes.extend(cell_outcomes)
        replication.extend(cell_replication)
    outcomes.sort(key=lambda o: (o.instance, o.epsilon, o.strategy))
    replication.sort(key=lambda r: (r.instance, r.policy))
    return EnergyGridResults(
        config=config,
        mean_ul=float(mean_ul),
        power=power,
        epsilons=epsilons,
        slack_ratio=float(slack_ratio),
        k=int(k),
        deadline_factor=float(deadline_factor),
        strategies=strategies,
        outcomes=outcomes,
        replication=replication,
    )
