"""Scheduler-zoo comparison: every scheduler over the instance pool.

The paper compares only GA-vs-HEFT; downstream users invariably ask "and
against everything else?".  This driver runs the full scheduler zoo —
HEFT, CPOP, PEFT, min-min, quantile-padded HEFT, simulated annealing,
the ε-constraint GA, and the dynamic online baseline — over the standard
instance pool and reports mean expected makespan, realized makespan,
slack, tardiness and miss rate per scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.robust import RobustScheduler
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_problems
from repro.faults.assess import assess_robustness_faulty
from repro.heuristics import MinMinScheduler, QuantileHeftScheduler
from repro.heuristics.annealing import AnnealingParams, AnnealingScheduler
from repro.heuristics.cpop import CpopScheduler
from repro.heuristics.heft import HeftScheduler
from repro.heuristics.peft import PeftScheduler
from repro.robustness.montecarlo import assess_robustness
from repro.utils.rng import role_stream
from repro.utils.tables import format_table

__all__ = ["ZooResult", "run_zoo"]


@dataclass(frozen=True)
class ZooResult:
    """Aggregated per-scheduler metrics (means over the instance pool)."""

    mean_ul: float
    n_instances: int
    metrics: dict[str, dict[str, float]]  # scheduler -> metric -> mean value

    def to_table(self) -> str:
        """Render the comparison as an ASCII table."""
        rows = [
            [
                name,
                vals["m0"],
                vals["mean_makespan"],
                vals["avg_slack"],
                vals["mean_tardiness"],
                vals["miss_rate"],
            ]
            for name, vals in self.metrics.items()
        ]
        return format_table(
            ["scheduler", "M0", "mean M", "slack", "tardiness", "miss"],
            rows,
            title=(
                f"Scheduler zoo — {self.n_instances} instances, "
                f"UL={self.mean_ul:g} (means)"
            ),
        )


def run_zoo(
    config: ExperimentConfig,
    mean_ul: float = 4.0,
    *,
    include_dynamic: bool = True,
    progress=None,
) -> ZooResult:
    """Compare the whole scheduler zoo on one uncertainty level.

    Every random stream is a ``zoo.*`` stream of
    :data:`repro.utils.rng.STREAM_ROLES` rooted at ``config.seed`` and
    keyed by instance and level.  The static schedulers of one instance
    share its ``zoo.mc`` stream (common random numbers).
    """
    problems = make_problems(config, mean_ul)
    ul_key = int(round(mean_ul * 1000))
    n_real = config.scale.n_realizations
    ga_params = config.ga_params()
    sa_params = AnnealingParams(
        iterations=10 * config.scale.ga_max_iterations, seed_heft=True
    )

    acc: dict[str, dict[str, list[float]]] = {}

    def record(name: str, report) -> None:
        slot = acc.setdefault(
            name,
            {
                "m0": [],
                "mean_makespan": [],
                "avg_slack": [],
                "mean_tardiness": [],
                "miss_rate": [],
            },
        )
        slot["m0"].append(report.expected_makespan)
        slot["mean_makespan"].append(report.mean_makespan)
        slot["avg_slack"].append(report.avg_slack)
        slot["mean_tardiness"].append(report.mean_tardiness)
        slot["miss_rate"].append(report.miss_rate)

    for i, problem in enumerate(problems):

        def stream(name: str) -> np.random.Generator:
            return role_stream(config.seed, name, i, ul_key)

        annealer = AnnealingScheduler(
            "makespan", params=sa_params, rng=stream("zoo.annealing")
        )
        ga = RobustScheduler(epsilon=1.0, params=ga_params, rng=stream("zoo.ga"))
        heft = HeftScheduler().schedule(problem)
        static = [
            ("heft", heft),
            ("cpop", CpopScheduler().schedule(problem)),
            ("peft", PeftScheduler().schedule(problem)),
            ("minmin", MinMinScheduler().schedule(problem)),
            ("heft-q0.9", QuantileHeftScheduler(0.9).schedule(problem)),
            ("annealing", annealer.schedule(problem)),
            ("robust-ga", ga.solve(problem, heft_schedule=heft).schedule),
        ]
        for name, schedule in static:
            report = assess_robustness(schedule, n_real, rng=stream("zoo.mc"))
            record(name, report)
        if include_dynamic:
            online = assess_robustness_faulty(
                heft, None, n_real, rng=stream("zoo.online_mc"), policy="dynamic"
            )
            record("online-mct", online)
        if progress is not None:
            progress(f"zoo UL={mean_ul:g}: instance {i + 1}/{len(problems)}")

    metrics = {
        name: {metric: float(np.mean(vals)) for metric, vals in slots.items()}
        for name, slots in acc.items()
    }
    return ZooResult(
        mean_ul=float(mean_ul), n_instances=len(problems), metrics=metrics
    )
