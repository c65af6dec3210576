"""Golden GA trajectories: a fixed corpus of seeded runs and their digests.

Every case builds a smoke-size problem, runs one GA configuration with a
fixed seed and reduces the run to a SHA-256 over its whole
:class:`~repro.ga.engine.GAHistory` (every per-generation float and every
incumbent chromosome), plus the generation count and the stop reason.
``tests/property/test_ga_golden.py`` recomputes the corpus on both
kernel backends and compares against ``ga_golden.json``, so any change
to the engine that moves a single random draw or a single bit of a
fitness value shows up.

Regenerate the fixture (only after a deliberate behaviour change, and
list the entries that moved in the change log)::

    PYTHONPATH=src python -m tests.property.ga_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.robust import RobustScheduler
from repro.energy.objective import EnergyScheduler
from repro.energy.power import PowerModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_problem
from repro.ga.analytic_fitness import AnalyticRobustnessFitness
from repro.ga.chromosome import random_chromosome
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    MakespanFitness,
    SlackFitness,
    quantile_duration_matrix,
)
from repro.ga.island import IslandGeneticScheduler, IslandParams
from repro.ga.variants import (
    adjacent_swap_mutation,
    order_only_crossover,
    rebalance_mutation,
    uniform_processor_crossover,
)
from repro.moop.weighted_sum import WeightedSumFitness

FIXTURE = Path(__file__).with_name("ga_golden.json")

PARAMS = GAParams(max_iterations=40, stagnation_limit=15)


def _problem(seed: int = 1, ul: float = 2.0, index: int = 0):
    return make_problem(ExperimentConfig(scale="smoke", seed=seed), ul, index)


def _eps_fitness(problem, eps: float) -> EpsilonConstraintFitness:
    return EpsilonConstraintFitness.for_problem(problem, eps)


def _run(fitness, problem, params=PARAMS, rng=1, **kwargs):
    return GeneticScheduler(fitness, params, rng, **kwargs).run(problem)


def _tiny_problem(n: int):
    from repro.core.problem import SchedulingProblem
    from repro.graph.generator import DagParams

    return SchedulingProblem.random(m=2, dag_params=DagParams(n=n), rng=n)


def _warm_seeds():
    donor = _problem(seed=2)
    rng = np.random.default_rng(5)
    return [random_chromosome(donor, rng) for _ in range(4)]


def _island():
    problem = _problem()
    result = IslandGeneticScheduler(
        _eps_fitness(problem, 1.2),
        replace(PARAMS, population_size=10),
        IslandParams(n_islands=2, epoch_generations=8, epochs=2),
        rng=4,
    ).run(problem)
    return result.best


CASES = {
    "eps-1.0": lambda: RobustScheduler(1.0, PARAMS, rng=1)
    .solve(_problem())
    .ga_result,
    "eps-1.5": lambda: RobustScheduler(1.5, PARAMS, rng=2)
    .solve(_problem(ul=8.0))
    .ga_result,
    "makespan": lambda: _run(MakespanFitness(), _problem(), rng=3),
    "slack": lambda: _run(SlackFitness(), _problem(), rng=4),
    "weighted-sum": lambda: (
        lambda p: _run(WeightedSumFitness.for_problem(p, 0.5), p, rng=5)
    )(_problem()),
    "energy-null": lambda: EnergyScheduler(1.2, None, PARAMS, rng=6)
    .solve(_problem())
    .ga_result,
    "energy-dvfs": lambda: (
        lambda p: EnergyScheduler(
            1.5, PowerModel.default(p.m), PARAMS, rng=7, slack_ratio=0.5
        )
        .solve(p)
        .ga_result
    )(_problem()),
    "analytic": lambda: (
        lambda p: _run(
            AnalyticRobustnessFitness.for_problem(p, 1.3), p, rng=1
        )
    )(_problem(seed=3, ul=4.0)),
    "quantile": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2),
            p,
            rng=8,
            duration_matrix=quantile_duration_matrix(p, 0.9),
        )
    )(_problem()),
    "warm-start": lambda: (
        lambda p: _run(_eps_fitness(p, 1.2), p, rng=9, warm_start=_warm_seeds())
    )(_problem()),
    "no-heft-seed": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2), p, replace(PARAMS, seed_heft=False), rng=10
        )
    )(_problem()),
    "all-infeasible": lambda: (
        lambda p: _run(
            _eps_fitness(p, 0.3), p, replace(PARAMS, seed_heft=False), rng=11
        )
    )(_problem()),
    "odd-population-high-mutation": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2),
            p,
            replace(PARAMS, population_size=7, mutation_prob=0.6),
            rng=12,
        )
    )(_problem()),
    "variant-uniform-processor-crossover": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2), p, rng=13, crossover_fn=uniform_processor_crossover
        )
    )(_problem()),
    "variant-order-only-crossover": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2), p, rng=14, crossover_fn=order_only_crossover
        )
    )(_problem()),
    "variant-adjacent-swap-mutation": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2),
            p,
            replace(PARAMS, mutation_prob=0.5),
            rng=15,
            mutation_fn=adjacent_swap_mutation,
        )
    )(_problem()),
    "variant-rebalance-mutation": lambda: (
        lambda p: _run(
            _eps_fitness(p, 1.2),
            p,
            replace(PARAMS, mutation_prob=0.5),
            rng=16,
            mutation_fn=rebalance_mutation,
        )
    )(_problem()),
    "island": _island,
    "single-task": lambda: _run(MakespanFitness(), _tiny_problem(1), rng=17),
    "two-tasks": lambda: _run(SlackFitness(), _tiny_problem(2), rng=18),
}


def digest(result) -> dict:
    """SHA-256 of a run's full history, plus its length and stop reason."""
    h = result.history
    sha = hashlib.sha256()
    for series in (
        h.best_fitness,
        h.best_makespan,
        h.best_slack,
        h.mean_fitness,
        h.diversity,
    ):
        sha.update(np.asarray(series, dtype=np.float64).tobytes())
    for c in h.best_chromosomes:
        sha.update(c.key())
    sha.update(np.float64(result.best_fitness).tobytes())
    sha.update(result.best.chromosome.key())
    return {
        "sha256": sha.hexdigest(),
        "generations": int(result.generations),
        "stop_reason": result.stop_reason,
    }


def compute() -> dict:
    return {name: digest(case()) for name, case in CASES.items()}


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args(argv)
    golden = compute()
    if args.write:
        FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    else:
        stored = load()
        for name, entry in golden.items():
            mark = "ok" if stored.get(name) == entry else "CHANGED"
            print(f"{mark:8s} {name}: {entry}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
