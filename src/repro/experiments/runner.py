"""Shared runner: HEFT baselines + ε-constraint GA solves over a grid.

Figures 4–8 all consume the same raw data — per (uncertainty level,
ε value, instance): a Monte-Carlo robustness report of the GA schedule and
of the instance's HEFT schedule.  :func:`run_eps_grid` collects it once;
the per-figure drivers reduce it.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cluster import Checkpoint, TaskSpec
from repro.core.robust import RobustScheduler
from repro.experiments.config import R1_CAP, ExperimentConfig
from repro.experiments.grid import run_grid
from repro.experiments.workloads import make_problem
from repro.heuristics.heft import HeftScheduler
from repro.robustness.montecarlo import RobustnessReport, assess_robustness
from repro.utils.rng import role_stream

__all__ = ["InstanceOutcome", "EpsGridResults", "run_eps_grid", "capped"]


def capped(value: float, cap: float) -> float:
    """Replace an infinite robustness value by a large finite cap."""
    return min(value, cap) if math.isfinite(cap) else value


@dataclass(frozen=True)
class InstanceOutcome:
    """One (instance, ε) cell: the GA schedule's report plus the baseline's."""

    instance: int
    epsilon: float
    mean_ul: float
    ga: RobustnessReport
    heft: RobustnessReport


@dataclass(frozen=True)
class EpsGridResults:
    """All raw outcomes of one grid run, indexed ``cells[(mean_ul, epsilon)]``."""

    config: ExperimentConfig
    uls: tuple[float, ...]
    epsilons: tuple[float, ...]
    cells: dict[tuple[float, float], list[InstanceOutcome]]

    def outcomes(self, mean_ul: float, epsilon: float) -> list[InstanceOutcome]:
        """The per-instance outcomes of one grid cell."""
        return self.cells[(mean_ul, epsilon)]

    def mean_log_ratio(
        self,
        mean_ul: float,
        epsilon: float,
        metric,
        reference,
    ) -> float:
        """Average of ``log(metric(outcome) / reference(outcome))`` over instances.

        *metric* / *reference* are callables on :class:`InstanceOutcome`.
        """
        values = [
            math.log(
                capped(metric(o), R1_CAP) / capped(reference(o), R1_CAP)
            )
            for o in self.outcomes(mean_ul, epsilon)
        ]
        return float(np.mean(values))


def _instance_outcomes(
    config: ExperimentConfig,
    ul: float,
    index: int,
    epsilons: tuple[float, ...],
) -> list[InstanceOutcome]:
    """All ε-cells for one (UL, instance) pair.

    Per instance, HEFT is scheduled once, and its schedule (the GA seed and
    ``M_HEFT`` of every ε-cell's solve) and Monte-Carlo report are reused
    across all ε cells, with all random streams derived deterministically
    from the config seed — results are identical whether instances run
    serially or in worker processes.
    """
    problem = make_problem(config, ul, index)
    n_real = config.scale.n_realizations
    mc_key = int(round(ul * 1000))

    heft_schedule = HeftScheduler().schedule(problem)
    heft_rng = role_stream(config.seed, "eps_grid.heft_mc", index, mc_key)
    heft_report = assess_robustness(heft_schedule, n_real, heft_rng)

    outcomes: list[InstanceOutcome] = []
    for j, eps in enumerate(epsilons):
        ga_rng = role_stream(config.seed, "eps_grid.ga", index, mc_key, j)
        result = RobustScheduler(
            epsilon=eps, params=config.ga_params(), rng=ga_rng
        ).solve(problem, heft_schedule=heft_schedule)
        mc_rng = role_stream(config.seed, "eps_grid.ga_mc", index, mc_key, j)
        report = assess_robustness(result.schedule, n_real, mc_rng)
        outcomes.append(
            InstanceOutcome(
                instance=index,
                epsilon=eps,
                mean_ul=ul,
                ga=report,
                heft=heft_report,
            )
        )
    return outcomes


def _outcome_to_dict(outcome: InstanceOutcome) -> dict[str, Any]:
    """JSON-compatible (bit-exact) encoding of one grid outcome."""
    from repro.io.json_io import report_to_dict

    return {
        "instance": outcome.instance,
        "epsilon": outcome.epsilon,
        "mean_ul": outcome.mean_ul,
        "ga": report_to_dict(outcome.ga),
        "heft": report_to_dict(outcome.heft),
    }


def _outcome_from_dict(payload: dict[str, Any]) -> InstanceOutcome:
    """Invert :func:`_outcome_to_dict` bit-for-bit."""
    from repro.io.json_io import report_from_dict

    return InstanceOutcome(
        instance=int(payload["instance"]),
        epsilon=float(payload["epsilon"]),
        mean_ul=float(payload["mean_ul"]),
        ga=report_from_dict(payload["ga"]),
        heft=report_from_dict(payload["heft"]),
    )


def _encode_cell(outcomes: list[InstanceOutcome]) -> list[dict[str, Any]]:
    return [_outcome_to_dict(o) for o in outcomes]


def _decode_cell(payload: list[dict[str, Any]]) -> list[InstanceOutcome]:
    return [_outcome_from_dict(o) for o in payload]


def _grid_run_id(
    config: ExperimentConfig,
    uls: tuple[float, ...],
    epsilons: tuple[float, ...],
) -> str:
    """Identity of one logical grid run — everything that shapes results."""
    s = config.scale
    return (
        f"eps_grid/seed={config.seed}/scale={s.name}"
        f"/graphs={s.n_graphs}/real={s.n_realizations}/tasks={s.n_tasks}"
        f"/iters={s.ga_max_iterations}/m={config.m}"
        f"/uls={','.join(f'{u:g}' for u in uls)}"
        f"/eps={','.join(f'{e:g}' for e in epsilons)}"
    )


def run_eps_grid(
    config: ExperimentConfig,
    uls: tuple[float, ...],
    epsilons: tuple[float, ...],
    *,
    n_jobs: int = 1,
    progress=None,
    checkpoint: str | pathlib.Path | None = None,
    resume: bool = False,
) -> EpsGridResults:
    """Run the ε-constraint GA over every (UL, ε, instance) combination.

    Each (UL, instance) pair is one cell of :func:`~repro.experiments.grid.run_grid`,
    retried on worker crashes/hangs and journaled to the checkpoint as it
    completes.

    Parameters
    ----------
    config:
        Scale, instance-generation and seeding configuration.
    uls:
        Mean uncertainty levels (paper: 2, 4, 6, 8).
    epsilons:
        ε values (paper: {1.0} for Fig. 4, 1.0–2.0 for Figs. 5–8).
    n_jobs:
        Number of worker processes; 1 (default) runs in-process.  Every
        random stream derives from the config seed, so results are
        bit-identical for any ``n_jobs``.
    progress:
        Optional callable ``progress(msg: str)``, called once per finished
        (UL, instance) cell.
    checkpoint:
        Optional JSONL journal path; finished cells are appended as the
        run progresses.
    resume:
        Restore already-journaled cells from *checkpoint* instead of
        recomputing them (requires *checkpoint*; restored cells are
        bit-identical to recomputed ones).
    """
    uls = tuple(float(u) for u in uls)
    epsilons = tuple(float(e) for e in epsilons)
    specs = [
        TaskSpec(
            key=f"ul={ul:g}/instance={i}",
            fn=_instance_outcomes,
            args=(config, ul, i, epsilons),
        )
        for ul in uls
        for i in range(config.scale.n_graphs)
    ]
    journal = None
    if checkpoint is not None:
        journal = Checkpoint(
            checkpoint,
            run_id=_grid_run_id(config, uls, epsilons),
            encode=_encode_cell,
            decode=_decode_cell,
        )
    results = run_grid(
        specs, n_jobs=n_jobs, progress=progress, checkpoint=journal, resume=resume
    )

    cells: dict[tuple[float, float], list[InstanceOutcome]] = {
        (u, e): [] for u in uls for e in epsilons
    }
    for outcomes in results:
        for o in outcomes:
            cells[(o.mean_ul, o.epsilon)].append(o)
    return EpsGridResults(config=config, uls=uls, epsilons=epsilons, cells=cells)
