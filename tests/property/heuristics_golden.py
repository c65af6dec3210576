"""Golden list-scheduler outputs: a fixed corpus of problems and their digests.

Every case runs one named list scheduler on one corpus problem and
reduces the result to a SHA-256 over its processor orders, its
assignment vector and the JSON of a seeded 16-realization Monte-Carlo
report.  The corpus covers the experiment instances
(:func:`~repro.experiments.workloads.make_problem` at UL 2 and 8), the
four ``algo-grid`` graph families and degenerate shapes: one task, one
processor, a chain, uniform costs that force rank and processor ties,
and non-unit transfer rates.  ``tests/property/test_heuristics_golden.py``
recomputes the corpus on both kernel backends and compares against
``heuristics_golden.json``, so a change that moves one placement or one
bit of a report shows up.

Regenerate the fixture (only after a deliberate behaviour change, and
list the entries that moved in the change log)::

    PYTHONPATH=src python -m tests.property.heuristics_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.experiments.algo_grid import FAMILIES, family_graph
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_problem
from repro.graph.generator import DagParams
from repro.graph.taskgraph import TaskGraph
from repro.graph.workflows import fork_join
from repro.heuristics import (
    CpopScheduler,
    HeftScheduler,
    MinMinScheduler,
    PeftScheduler,
    QuantileHeftScheduler,
)
from repro.io.json_io import report_to_dict
from repro.platform.etc import EtcParams, generate_etc
from repro.platform.platform import Platform
from repro.platform.trgen import generate_transfer_rates
from repro.platform.uncertainty import UncertaintyModel, UncertaintyParams, generate_ul
from repro.robustness.montecarlo import assess_robustness

FIXTURE = Path(__file__).with_name("heuristics_golden.json")

#: Monte-Carlo realizations behind each digest's report.
N_REALIZATIONS = 16


def _random(n: int, m: int, seed: int, rates: bool = False) -> SchedulingProblem:
    rng = np.random.default_rng(seed)
    graph_rng, etc_rng, ul_rng, rate_rng = rng.spawn(4)
    return _bind(
        family_graph("layered", n, graph_rng), m, etc_rng, ul_rng,
        generate_transfer_rates(m, rng=rate_rng) if rates else None,
    )


def _bind(graph, m, etc_rng, ul_rng, rates=None) -> SchedulingProblem:
    bcet = generate_etc(graph.n, m, EtcParams(), etc_rng)
    ul = generate_ul(graph.n, m, UncertaintyParams(mean_ul=3.0), ul_rng)
    return SchedulingProblem(
        graph=graph,
        platform=Platform(m, rates),
        uncertainty=UncertaintyModel(bcet, ul),
    )


def _family(family: str) -> SchedulingProblem:
    graph_rng, etc_rng, ul_rng = np.random.default_rng(
        FAMILIES.index(family)
    ).spawn(3)
    return _bind(family_graph(family, 24, graph_rng), 3, etc_rng, ul_rng)


def _chain() -> SchedulingProblem:
    n = 8
    graph = TaskGraph(n, [(i, i + 1) for i in range(n - 1)], np.full(n - 1, 4.0))
    etc_rng, ul_rng = np.random.default_rng(3).spawn(2)
    return _bind(graph, 3, etc_rng, ul_rng)


def _uniform() -> SchedulingProblem:
    graph = fork_join(2, 4, data_size=2.0)
    shape = (graph.n, 3)
    return SchedulingProblem(
        graph=graph,
        platform=Platform(3),
        uncertainty=UncertaintyModel(np.full(shape, 5.0), np.full(shape, 2.0)),
    )


def _experiment(ul: float, index: int) -> SchedulingProblem:
    return make_problem(ExperimentConfig(scale="medium", seed=1), ul, index)


#: Problem name -> builder.  A problem's position seeds its report.
PROBLEMS = {
    "make-ul2-i0": lambda: _experiment(2.0, 0),
    "make-ul2-i1": lambda: _experiment(2.0, 1),
    "make-ul8-i0": lambda: _experiment(8.0, 0),
    "make-ul8-i1": lambda: _experiment(8.0, 1),
    **{f"family-{f}": (lambda f=f: _family(f)) for f in FAMILIES},
    "one-task": lambda: _random(1, 3, seed=4),
    "one-processor": lambda: _random(12, 1, seed=5),
    "chain": _chain,
    "uniform-ties": _uniform,
    "transfer-rates": lambda: _random(20, 4, seed=6, rates=True),
}

#: Scheduler name -> constructor.
SCHEDULERS = {
    "heft": HeftScheduler,
    "cpop": CpopScheduler,
    "peft": PeftScheduler,
    "minmin": MinMinScheduler,
    **{f"heft-q{q:g}": (lambda q=q: QuantileHeftScheduler(q)) for q in (0.5, 0.9, 1.0)},
}


def digest(schedule, seed: int) -> str:
    """SHA-256 over a schedule's orders, assignment and seeded report."""
    report = assess_robustness(schedule, N_REALIZATIONS, rng=seed)
    payload = {
        "orders": [[int(t) for t in order] for order in schedule.proc_orders],
        "proc_of": [int(p) for p in schedule.proc_of],
        "report": report_to_dict(report),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_problem(name: str) -> dict[str, str]:
    """Every scheduler's digest on one corpus problem."""
    problem = PROBLEMS[name]()
    seed = list(PROBLEMS).index(name)
    return {
        f"{name}/{sched}": digest(build().schedule(problem), seed)
        for sched, build in SCHEDULERS.items()
    }


def compute() -> dict[str, str]:
    return {k: v for name in PROBLEMS for k, v in compute_problem(name).items()}


def load() -> dict[str, str]:
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
