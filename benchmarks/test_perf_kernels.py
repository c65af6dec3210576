"""Micro-benchmarks of the library's hot kernels.

These are real timing benchmarks (multiple rounds), covering the paths
the GA and Monte-Carlo evaluation hammer: schedule construction, static
evaluation, batch makespans (on a warm and on a freshly decoded
schedule), a whole Monte-Carlo report (one
``mc_makespans`` call with the native library), a one-generation GA run,
a paper-cell-shaped GA run of 300 generations, the GA's initial
population (one ``ga_random_rows`` call), and HEFT.  Two cases time what
every service request pays before it solves: decoding a problem payload
(``test_perf_problem_from_dict``) and building its task graph
(``test_perf_taskgraph_build``).
"""

import numpy as np
import pytest

from repro.core.problem import SchedulingProblem
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import EpsilonConstraintFitness, SlackFitness
from repro.graph.generator import DagParams
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.heft import HeftScheduler
from repro.heuristics.random_sched import random_schedule
from repro.io.json_io import problem_from_dict, problem_to_dict
from repro.platform.uncertainty import UncertaintyParams
from repro.robustness.montecarlo import assess_robustness
from repro.schedule.evaluation import batch_makespans, evaluate
from repro.schedule.schedule import Schedule


@pytest.fixture(scope="module")
def paper_problem():
    """A paper-sized instance: 100 tasks, 4 processors, UL = 2."""
    return SchedulingProblem.random(
        m=4,
        dag_params=DagParams(n=100),
        uncertainty_params=UncertaintyParams(mean_ul=2.0),
        rng=0,
    )


@pytest.fixture(scope="module")
def paper_schedule(paper_problem):
    return HeftScheduler().schedule(paper_problem)


def test_perf_schedule_construction(benchmark, paper_problem, paper_schedule):
    orders = [list(t) for t in paper_schedule.proc_orders]
    result = benchmark(lambda: Schedule(paper_problem, orders))
    assert result.n == 100


def test_perf_static_evaluation(benchmark, paper_problem, paper_schedule):
    durations = paper_schedule.expected_durations()
    result = benchmark(lambda: evaluate(paper_schedule, durations))
    assert result.makespan > 0


def test_perf_batch_makespans_1000(benchmark, paper_schedule):
    """The paper's Monte-Carlo unit: 1000 realizations of one schedule."""
    durations = paper_schedule.realize_durations(1000, rng=1)
    out = benchmark(lambda: batch_makespans(paper_schedule, durations))
    assert out.shape == (1000,)


def test_perf_batch_makespans_1000_fresh(benchmark, paper_problem, paper_schedule):
    """The same call on a freshly decoded schedule, as every Monte-Carlo
    report makes it: the graph's lazy indexes and buffers start empty."""
    order = paper_schedule.linear_order()
    durations = paper_schedule.realize_durations(1000, rng=1)

    def decode():
        schedule = Schedule.from_assignment(
            paper_problem, order, paper_schedule.proc_of
        )
        return (schedule, durations), {}

    out = benchmark.pedantic(batch_makespans, setup=decode, rounds=200)
    assert out.shape == (1000,)


def test_perf_assess_robustness_1000(benchmark, paper_schedule):
    """Draws and makespans of 1000 realizations, then the report."""
    report = benchmark(lambda: assess_robustness(paper_schedule, 1000, rng=1))
    assert report.n_realizations == 1000


def test_perf_initial_population(benchmark, paper_problem, paper_schedule):
    """The HEFT seed and 19 uniqueness-checked random rows."""
    engine = GeneticScheduler(SlackFitness(), GAParams(), rng=3)
    orders, _ = benchmark(
        lambda: engine._initial_population(paper_problem, paper_schedule)
    )
    assert orders.shape == (20, 100)


def test_perf_heft_100_tasks(benchmark, paper_problem):
    schedule = benchmark(lambda: HeftScheduler().schedule(paper_problem))
    assert schedule.n == 100


def test_perf_ga_generation(benchmark, paper_problem):
    """A whole one-generation GA run at the paper's population size: the
    engine's set-up and HEFT seed, the initial population, generation 0
    and one generation."""
    params = GAParams(max_iterations=1, stagnation_limit=100)

    def one_generation():
        return GeneticScheduler(SlackFitness(), params, rng=2).run(paper_problem)

    result = benchmark(one_generation)
    assert result.generations == 1


def test_perf_ga_run(benchmark, paper_problem, paper_schedule):
    """A ``paper-cell`` solve's GA: the ε-constraint policy at ε = 1.5, 300
    generations with the stagnation stop off, HEFT given."""
    fitness = EpsilonConstraintFitness.for_problem(paper_problem, 1.5)
    params = GAParams(max_iterations=300, stagnation_limit=300)

    def run():
        return GeneticScheduler(fitness, params, rng=2).run(
            paper_problem, heft_schedule=paper_schedule
        )

    result = benchmark(run)
    assert result.generations == 300


def test_perf_random_schedule_decode(benchmark, paper_problem):
    out = benchmark(lambda: random_schedule(paper_problem, 3))
    assert out.n == 100


def test_perf_problem_from_dict(benchmark):
    """One decode of a ``service-mix``-shaped payload (40 tasks, 4
    processors), fingerprint check included."""
    payload = problem_to_dict(
        SchedulingProblem.random(
            m=4,
            dag_params=DagParams(n=40),
            uncertainty_params=UncertaintyParams(mean_ul=2.0),
            rng=1,
        )
    )
    problem = benchmark(lambda: problem_from_dict(payload))
    assert problem.n == 40


def test_perf_taskgraph_build(benchmark, paper_problem):
    """The checks, CSR indexes and topological order of a 100-task graph,
    built from its JSON-style edge list."""
    graph = paper_problem.graph
    edges = [[int(u), int(v)] for u, v in zip(graph.edge_src, graph.edge_dst)]
    data = graph.edge_data.tolist()
    built = benchmark(lambda: TaskGraph(graph.n, edges, data))
    assert built == graph
