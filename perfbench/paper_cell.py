"""``paper-cell``: the ε-grid behind ``repro fig5``-``fig8``.

One unit is one serial ``run_eps_grid`` call at the ``medium`` preset
with ULs {2, 8} x ε {1.0, 1.5, 2.0} over one instance: six ε-cells,
each one GA solve plus its Monte-Carlo report.  A round is ``GRIDS``
such calls on instances whose seeds derive from the run seed.  The
stagnation stop is off (see :func:`setup`).

GA generations and the native kernels do over 90% of the work; the
service, stream, sim and faults layers do none of it.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from benchlib import (
    Layers,
    Outcome,
    Unit,
    derive_seeds,
    layer_self_times,
    run_rounds,
    trace_round,
    traced,
    unattributed,
)
from repro import obs
from repro.core.robust import RobustScheduler
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_eps_grid
from repro.experiments.workloads import make_problem
from repro.graph import _native
from repro.heuristics.heft import HeftScheduler
from repro.io.json_io import report_to_dict
from repro.robustness.montecarlo import assess_robustness

ULS = (2.0, 8.0)
EPSILONS = (1.0, 1.5, 2.0)
GRIDS = 2
CELLS_PER_GRID = len(ULS) * len(EPSILONS)


@dataclasses.dataclass
class State:
    configs: list[ExperimentConfig]


def setup(seed: int, seconds: float) -> State:
    _native.get_lib()
    # One instance per grid, and no stagnation stop: every cell runs all
    # 300 generations, so the work of a run does not depend on which
    # cells of which seed happen to stagnate early.
    medium = SCALES["medium"]
    scale = dataclasses.replace(
        medium, n_graphs=1, ga_stagnation=medium.ga_max_iterations
    )
    return State(
        [
            ExperimentConfig(scale=scale, seed=s)
            for s in derive_seeds(seed, "paper-cell", GRIDS)
        ]
    )


def close(state: State) -> None:
    pass


def _units(state: State) -> list[Unit]:
    return [
        Unit(lambda c=config: run_eps_grid(c, ULS, EPSILONS), CELLS_PER_GRID)
        for config in state.configs
    ]


def _encode_grid(results) -> str:
    """Canonical JSON of a grid's outcomes, in (UL, ε, instance) order."""
    return json.dumps(
        [
            {
                "instance": o.instance,
                "epsilon": o.epsilon,
                "mean_ul": o.mean_ul,
                "ga": report_to_dict(o.ga),
                "heft": report_to_dict(o.heft),
            }
            for ul in ULS
            for eps in EPSILONS
            for o in results.outcomes(ul, eps)
        ]
    )


def _bad_cells(results) -> int:
    """ε-cells whose GA schedule breaks its ε constraint (or are missing)."""
    bad = 0
    for ul in ULS:
        for eps in EPSILONS:
            outcomes = results.outcomes(ul, eps)
            if not outcomes:
                bad += 1
            for o in outcomes:
                limit = eps * o.heft.expected_makespan * (1 + 1e-12)
                if not o.ga.expected_makespan <= limit:
                    bad += 1
    return bad


def _failures(results, reference) -> int:
    if reference is not None and _encode_grid(results) != _encode_grid(reference):
        return CELLS_PER_GRID
    return _bad_cells(results)


def _r1_gain(grids) -> float:
    """Geometric mean over cells of R1_GA / R1_HEFT, capped as the figures cap it."""
    logs = [
        results.mean_log_ratio(ul, eps, lambda o: o.ga.r1, lambda o: o.heft.r1)
        for results in grids
        if results is not None
        for ul in ULS
        for eps in EPSILONS
    ]
    return math.exp(float(np.mean(logs))) if logs else math.nan


def measure(state: State, seconds: float, pauses=()) -> Outcome:
    units = _units(state)
    rounds = run_rounds(units, seconds, _failures, pauses=pauses)
    outcome = rounds.outcome()
    outcome.table = [
        ("cells_per_s", outcome.throughput, "1/s"),
        ("r1_gain", _r1_gain(rounds.reference), "ratio"),
    ]
    return outcome


def _redrive(config: ExperimentConfig) -> str:
    """``run_eps_grid``'s computation, call by call, inside layer spans.

    Same ``SeedSequence`` keys as the runner, so its output must equal
    the grid's byte for byte.
    """
    n_real = config.scale.n_realizations
    cells: dict[tuple[float, float], list[dict]] = {
        (ul, eps): [] for ul in ULS for eps in EPSILONS
    }
    for ul in ULS:
        mc_key = int(round(ul * 1000))
        for index in range(config.scale.n_graphs):
            with obs.trace("graph.make_problem"):
                problem = make_problem(config, ul, index)
            with obs.trace("heuristics.heft"):
                heft_schedule = HeftScheduler().schedule(problem)
            heft_rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(3, index, mc_key)
                )
            )
            with obs.trace("robustness.assess"):
                heft = assess_robustness(heft_schedule, n_real, heft_rng)
            for j, eps in enumerate(EPSILONS):
                ga_rng = np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=config.seed, spawn_key=(4, index, mc_key, j)
                    )
                )
                with obs.trace("core.robust"):
                    result = RobustScheduler(
                        epsilon=eps, params=config.ga_params(), rng=ga_rng
                    ).solve(problem)
                mc_rng = np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=config.seed, spawn_key=(5, index, mc_key, j)
                    )
                )
                with obs.trace("robustness.assess"):
                    ga = assess_robustness(result.schedule, n_real, mc_rng)
                cells[(ul, eps)].append(
                    {
                        "instance": index,
                        "epsilon": eps,
                        "mean_ul": ul,
                        "ga": report_to_dict(ga),
                        "heft": report_to_dict(heft),
                    }
                )
    return json.dumps([o for ul in ULS for eps in EPSILONS for o in cells[(ul, eps)]])


def layers(state: State) -> Layers:
    units = _units(state)
    rnd = trace_round(units)
    failed = sum(_failures(r, p) for r, p in zip(rnd.traced, rnd.plain))

    redriven, redrive_seconds, records = traced(
        lambda: [_redrive(config) for config in state.configs]
    )
    failed += sum(
        CELLS_PER_GRID
        for encoded, results in zip(redriven, rnd.plain)
        if encoded != _encode_grid(results)
    )
    lt = layer_self_times(records)
    grid_lt = layer_self_times(rnd.records)

    def mean_ms(name: str) -> float:
        return lt[name].mean_self * 1e3 if name in lt else 0.0

    def self_s(source, names) -> float:
        return sum(source[n].self_time for n in names if n in source)

    # What run_eps_grid spends outside the calls the re-drive makes: its
    # traced wall time less the GA and Monte-Carlo spans it emits, less
    # the unspanned work the re-drive times (instance build, HEFT and the
    # solver's own set-up around ``ga.run``).
    runner = (
        rnd.traced_seconds
        - sum(grid_lt[n].total for n in ("ga.run", "mc.assess_robustness") if n in grid_lt)
        - self_s(lt, ("graph.make_problem", "heuristics.heft", "core.robust"))
    )
    assess_calls = lt["mc.assess_robustness"].count if "mc.assess_robustness" in lt else 0
    return Layers(
        attempted=2 * GRIDS * CELLS_PER_GRID,
        failed=failed,
        values={
            "experiments.runner_ms": runner * 1e3 / GRIDS,
            "graph.make_problem_ms": mean_ms("graph.make_problem"),
            "heuristics.heft_ms": mean_ms("heuristics.heft"),
            "core.robust_ms": mean_ms("core.robust"),
            "ga.init_ms": mean_ms("ga.run"),
            "ga.generation_ms": mean_ms("ga.generation"),
            "ga.generations": lt["ga.generation"].count if "ga.generation" in lt else 0,
            "robustness.assess_ms": self_s(lt, ("robustness.assess", "mc.assess_robustness"))
            * 1e3
            / max(assess_calls, 1),
            "robustness.realize_ms": mean_ms("mc.realize_durations"),
            "schedule.batch_makespans_ms": mean_ms("eval.batch_makespans"),
            "r1_gain": _r1_gain(rnd.plain),
            "obs.overhead_frac": rnd.overhead,
            "bench.unattributed_frac": unattributed(records, redrive_seconds),
        },
    )
