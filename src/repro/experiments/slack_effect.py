"""Figs. 2 & 3: effectiveness of slack — single-objective GA evolution traces.

The paper's first experiment (Sec. 5.1) runs a single-objective GA —
minimizing makespan (Fig. 2) or maximizing slack (Fig. 3) — and plots, at
each evolution step and for each uncertainty level, the *log ratio versus
step 0* of three quantities of the incumbent best schedule:

* mean realized makespan over Monte-Carlo realizations ("the makespan of
  the schedule ... when executed in the 'real' environment");
* average slack (static, expected durations);
* tardiness-based robustness R1.

The expected shapes: minimizing makespan drags slack and R1 down (more so
at low UL, where the GA actually finds shorter schedules); maximizing
slack raises slack and R1 together while realized makespan grows
substantially.

These runs evolve from a purely random initial population (no HEFT seed):
the paper's plotted multi-x dynamics start from random-schedule levels,
which a HEFT-seeded population would hide.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass

import numpy as np

from repro.cluster import Checkpoint, TaskSpec
from repro.experiments.config import PAPER_ULS, R1_CAP, ExperimentConfig
from repro.experiments.grid import run_grid
from repro.experiments.runner import capped
from repro.experiments.workloads import make_problem
from repro.ga.engine import GeneticScheduler
from repro.ga.fitness import MakespanFitness, SlackFitness
from repro.robustness.montecarlo import assess_robustness
from repro.utils.rng import role_stream
from repro.utils.tables import format_series

__all__ = ["EvolutionSeries", "SlackEffectResult", "run_slack_effect"]


@dataclass(frozen=True)
class EvolutionSeries:
    """One uncertainty level's averaged evolution trace (log ratios vs step 0)."""

    mean_ul: float
    steps: np.ndarray
    makespan: np.ndarray
    slack: np.ndarray
    r1: np.ndarray


@dataclass(frozen=True)
class SlackEffectResult:
    """Everything Fig. 2 (``objective='makespan'``) / Fig. 3 (``'slack'``) plots."""

    objective: str
    series: list[EvolutionSeries]

    def to_table(self) -> str:
        """Render as one ASCII table: rows = steps, columns = UL x metric."""
        steps = self.series[0].steps
        columns: dict[str, np.ndarray] = {}
        for s in self.series:
            columns[f"UL={s.mean_ul:g} M"] = s.makespan
            columns[f"UL={s.mean_ul:g} slack"] = s.slack
            columns[f"UL={s.mean_ul:g} R1"] = s.r1
        title = (
            f"Fig. {'2' if self.objective == 'makespan' else '3'} — GA "
            f"{'minimizing makespan' if self.objective == 'makespan' else 'maximizing slack'}"
            " (log ratio vs step 0)"
        )
        return format_series("step", steps.tolist(), columns, title=title)

    def final(self, mean_ul: float) -> tuple[float, float, float]:
        """Final-step (makespan, slack, r1) log ratios for one UL."""
        for s in self.series:
            if s.mean_ul == mean_ul:
                return float(s.makespan[-1]), float(s.slack[-1]), float(s.r1[-1])
        raise KeyError(f"no series for UL={mean_ul}")


def _log_ratio_floored(value: float, reference: float, floor: float) -> float:
    return math.log(max(value, floor) / max(reference, floor))


def _instance_trace(
    config: ExperimentConfig,
    objective: str,
    ul: float,
    index: int,
    steps: tuple[int, ...],
) -> dict[str, np.ndarray]:
    """One instance's per-step log-ratio traces (makespan, slack, r1)."""
    problem = make_problem(config, ul, index)
    mc_key = int(round(ul * 1000))
    ga_rng = role_stream(config.seed, "slack_effect.ga", index, mc_key)
    fitness = MakespanFitness() if objective == "makespan" else SlackFitness()
    engine = GeneticScheduler(fitness, config.ga_params(seed_heft=False), ga_rng)
    result = engine.run(problem)
    chroms = result.history.best_chromosomes

    raw: dict[str, list[float]] = {"makespan": [], "slack": [], "r1": []}
    for k, step in enumerate(steps):
        idx = min(step, len(chroms) - 1)
        schedule = chroms[idx].decode(problem)
        mc_rng = role_stream(config.seed, "slack_effect.mc", index, mc_key, k)
        report = assess_robustness(schedule, config.scale.n_realizations, mc_rng)
        raw["makespan"].append(report.mean_makespan)
        raw["slack"].append(report.avg_slack)
        raw["r1"].append(capped(report.r1, R1_CAP))

    floor = 1e-9 * raw["makespan"][0]
    return {
        key: np.asarray(
            [_log_ratio_floored(v, values[0], floor) for v in values],
            dtype=np.float64,
        )
        for key, values in raw.items()
    }


def _encode_trace(trace: dict[str, np.ndarray]) -> dict[str, list[float]]:
    """JSON-compatible (bit-exact) encoding of one instance trace."""
    return {key: arr.tolist() for key, arr in trace.items()}


def _decode_trace(payload: dict[str, list[float]]) -> dict[str, np.ndarray]:
    return {
        key: np.asarray(values, dtype=np.float64)
        for key, values in payload.items()
    }


def _slack_run_id(
    config: ExperimentConfig,
    objective: str,
    uls: tuple[float, ...],
    steps: tuple[int, ...],
) -> str:
    s = config.scale
    return (
        f"slack_effect/{objective}/seed={config.seed}/scale={s.name}"
        f"/graphs={s.n_graphs}/real={s.n_realizations}/tasks={s.n_tasks}"
        f"/iters={s.ga_max_iterations}/m={config.m}"
        f"/uls={','.join(f'{u:g}' for u in uls)}"
        f"/steps={','.join(str(t) for t in steps)}"
    )


def run_slack_effect(
    config: ExperimentConfig,
    objective: str = "makespan",
    uls: tuple[float, ...] = PAPER_ULS,
    *,
    n_steps: int = 11,
    n_jobs: int = 1,
    progress=None,
    checkpoint: str | pathlib.Path | None = None,
    resume: bool = False,
) -> SlackEffectResult:
    """Run the Fig. 2 / Fig. 3 experiment.

    Each (UL, instance) evolution trace is one cell of
    :func:`~repro.experiments.grid.run_grid`, with crash retries and
    optional checkpoint/resume exactly as in
    :func:`~repro.experiments.runner.run_eps_grid`.

    Parameters
    ----------
    config:
        Scale and instance configuration.
    objective:
        ``"makespan"`` (Fig. 2) or ``"slack"`` (Fig. 3).
    uls:
        Uncertainty levels (paper: 2, 4, 6, 8).
    n_steps:
        Number of evolution steps sampled (including step 0 and the last).
    n_jobs:
        Worker processes; results are identical for any value (all random
        streams derive from the config seed).
    progress / checkpoint / resume:
        As in :func:`~repro.experiments.runner.run_eps_grid`.
    """
    if objective not in ("makespan", "slack"):
        raise ValueError(f"objective must be 'makespan' or 'slack', got {objective!r}")

    scale = config.scale
    step_grid = np.unique(
        np.linspace(0, scale.ga_max_iterations, n_steps).round().astype(np.int64)
    )
    uls = tuple(float(u) for u in uls)
    steps = tuple(int(s) for s in step_grid)
    specs = [
        TaskSpec(
            key=f"{objective}/ul={ul:g}/instance={i}",
            fn=_instance_trace,
            args=(config, objective, ul, i, steps),
        )
        for ul in uls
        for i in range(scale.n_graphs)
    ]
    journal = None
    if checkpoint is not None:
        journal = Checkpoint(
            checkpoint,
            run_id=_slack_run_id(config, objective, uls, steps),
            encode=_encode_trace,
            decode=_decode_trace,
        )
    results = run_grid(
        specs, n_jobs=n_jobs, progress=progress, checkpoint=journal, resume=resume
    )

    traces: dict[float, dict[str, list[np.ndarray]]] = {
        ul: {"makespan": [], "slack": [], "r1": []} for ul in uls
    }
    for spec, trace in zip(specs, results):
        ul = spec.args[2]
        for key, arr in trace.items():
            traces[ul][key].append(arr)

    series = [
        EvolutionSeries(
            mean_ul=ul,
            steps=step_grid,
            makespan=np.mean(traces[ul]["makespan"], axis=0),
            slack=np.mean(traces[ul]["slack"], axis=0),
            r1=np.mean(traces[ul]["r1"], axis=0),
        )
        for ul in uls
    ]
    return SlackEffectResult(objective=objective, series=series)
