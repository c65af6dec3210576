"""``fault-replay``: fault-injected Monte-Carlo replay of fixed schedules.

The HEFT and the robust-GA (ε = 1.5) schedule of each of ``INSTANCES``
``medium`` instances are built at set-up.  One unit assesses one
schedule with ``assess_robustness_faulty`` in four cells:
``outage-mid`` under ``rerun-static``, ``proc-failure`` under
``repair``, ``mixed`` under ``dynamic`` and ``heavy-tail`` under
``rerun-static`` (the vectorized tail path); a round assesses every
schedule.  The first three cells run the single-job event loops of
``sim/`` and ``faults/policies.py`` once per realization, so a change
to those loops shows here even when the stream loop is what it set out
to speed up.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from benchlib import (
    Layers,
    Outcome,
    Unit,
    derive_seeds,
    run_rounds,
    trace_round,
    unattributed,
)
from repro.core.robust import RobustScheduler
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_problem
from repro.faults import BUILTIN_SCENARIOS, assess_robustness_faulty
from repro.graph import _native
from repro.heuristics.heft import HeftScheduler

#: (label, scenario, policy); the label names the per-layer metric.
CELLS = (
    ("rerun-static", "outage-mid", "rerun-static"),
    ("repair", "proc-failure", "repair"),
    ("dynamic", "mixed", "dynamic"),
    ("tail", "heavy-tail", "rerun-static"),
)
INSTANCES = 4
MEAN_UL = 2.0
EPSILON = 1.5
N_REALIZATIONS = 40


@dataclasses.dataclass
class State:
    #: [(schedule, [one Monte-Carlo seed per cell])], two per instance.
    schedules: list
    build_seconds: float


def setup(seed: int, seconds: float) -> State:
    _native.get_lib()
    t0 = time.perf_counter()
    config_seed, ga_seed, mc_seed = derive_seeds(seed, "fault-replay", 3)
    config = ExperimentConfig(seed=config_seed)
    mc_seeds = iter(derive_seeds(mc_seed, "cells", INSTANCES * 2 * len(CELLS)))
    schedules = []
    for index, ga_rng in enumerate(derive_seeds(ga_seed, "ga", INSTANCES)):
        problem = make_problem(config, MEAN_UL, index)
        robust = RobustScheduler(
            epsilon=EPSILON, params=config.ga_params(), rng=ga_rng
        ).solve(problem)
        for schedule in (HeftScheduler().schedule(problem), robust.schedule):
            schedules.append((schedule, [next(mc_seeds) for _ in CELLS]))
    return State(schedules, time.perf_counter() - t0)


def close(state: State) -> None:
    pass


def _replay(schedule, seeds, seconds=None) -> list:
    """One schedule in every cell: [assessment per cell]."""
    out = []
    for (label, scenario, policy), mc_seed in zip(CELLS, seeds):
        t0 = time.perf_counter()
        out.append(
            assess_robustness_faulty(
                schedule,
                BUILTIN_SCENARIOS[scenario],
                N_REALIZATIONS,
                rng=mc_seed,
                policy=policy,
            )
        )
        if seconds is not None:
            seconds[label].append(time.perf_counter() - t0)
    return out


def _units(state: State, **kwargs) -> list[Unit]:
    return [
        Unit(lambda s=schedule, m=seeds: _replay(s, m, **kwargs), len(CELLS) * N_REALIZATIONS)
        for schedule, seeds in state.schedules
    ]


def _signature(assessment) -> tuple:
    return (
        assessment.realized_makespans.tobytes(),
        assessment.expected_makespan,
        assessment.miss_rate,
        assessment.n_failed,
        assessment.n_tail_outliers,
        assessment.n_redispatches,
    )


def _failures(cells: list, reference: list | None) -> int:
    """Realizations of cells that are malformed or differ from before."""
    failed = 0
    for i, a in enumerate(cells):
        valid = a.n_realizations == N_REALIZATIONS and 0.0 <= a.miss_rate <= 1.0
        same = reference is None or _signature(a) == _signature(reference[i])
        if not (valid and same):
            failed += N_REALIZATIONS
    return failed


def _miss_rate(replays) -> float:
    """Mean miss rate α over every (schedule, cell)."""
    return float(np.mean([a.miss_rate for cells in replays for a in cells]))


def measure(state: State, seconds: float, pauses=()) -> Outcome:
    units = _units(state)
    rounds = run_rounds(units, seconds, _failures, pauses=pauses)
    outcome = rounds.outcome()
    outcome.table = [
        ("realizations_per_s", outcome.throughput, "1/s"),
        ("fault_miss_rate", _miss_rate(rounds.reference), "ratio"),
    ]
    return outcome


def layers(state: State) -> Layers:
    per_cell: dict[str, list[float]] = {label: [] for label, _, _ in CELLS}
    units = _units(state, seconds=per_cell)
    rnd = trace_round(units)
    failed = sum(_failures(r, p) for r, p in zip(rnd.traced, rnd.plain))
    n = len(state.schedules)
    values = {
        # Second of the three rounds (warm-up, untraced, traced).
        f"faults.ms_per_realization.{label}": float(np.mean(ts[n : 2 * n]))
        * 1e3
        / N_REALIZATIONS
        for label, ts in per_cell.items()
    }
    values.update(
        {
            "faults.redispatches": sum(a.n_redispatches for cells in rnd.plain for a in cells),
            "faults.miss_rate": _miss_rate(rnd.plain),
            "faults.schedule_build_s": state.build_seconds,
            "obs.overhead_frac": rnd.overhead,
            "bench.unattributed_frac": unattributed(rnd.records, rnd.traced_seconds),
        }
    )
    return Layers(attempted=2 * sum(u.ops for u in units), failed=failed, values=values)
