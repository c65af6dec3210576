"""The native population fill draws the population the Python loop draws.

``GeneticScheduler._initial_population`` writes the HEFT and warm-start
rows, then :func:`~repro.ga.chromosome.random_rows` fills the rest: one
``ga_random_rows`` call with the library loaded, else the
``random_chromosome`` loop, its reference.  Both must write the same rows
and leave the generator in the same state: with uniqueness budget to
spare, with the budget spent on search spaces of two individuals, and
with none, the island's rule.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import random_chromosome, random_rows
from repro.ga.engine import INIT_RETRY_FACTOR, GAParams, GeneticScheduler
from repro.ga.fitness import SlackFitness
from repro.ga.island import _SeededEngine
from repro.graph import _native
from repro.graph.taskgraph import TaskGraph
from tests.conftest import make_random_problem, numpy_backend
from tests.property.strategies import problems

pytestmark = pytest.mark.skipif(
    _native.get_lib() is None, reason="native kernel unavailable"
)

BACKENDS = (contextlib.nullcontext, numpy_backend)


def _both(fill):
    """Run ``fill(backend)`` on both backends: the rows it returns and the
    generator's next draw must agree.  Returns the native rows."""
    (o1, p1, d1), (o2, p2, d2) = (fill(b) for b in BACKENDS)
    assert np.array_equal(o1, o2)
    assert np.array_equal(p1, p2)
    assert d1 == d2
    return o1, p1


def _engine_rows(problem, size, seed, *, seed_heft=True, warm=(), island=None):
    def fill(backend):
        params = GAParams(population_size=size, seed_heft=seed_heft)
        with backend():
            if island is None:
                engine = GeneticScheduler(
                    SlackFitness(), params, seed, warm_start=warm
                )
            else:
                engine = _SeededEngine(
                    SlackFitness(), params, seed, seed_population=island
                )
            orders, procs = engine._initial_population(problem, None)
        return orders, procs, engine._rng.random()

    return _both(fill)


def _seeds(problem, seed, k):
    """*k* random chromosomes of *problem*, the first one twice."""
    rng = np.random.default_rng(seed)
    seeds = [random_chromosome(problem, rng) for _ in range(k)]
    return seeds + seeds[:1]


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(min_n=1, max_n=40, max_m=6),
    size=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    seed_heft=st.booleans(),
    n_warm=st.integers(0, 6),
)
def test_engine_population_matches_python(problem, size, seed, seed_heft, n_warm):
    _engine_rows(
        problem,
        size,
        seed,
        seed_heft=seed_heft,
        warm=_seeds(problem, seed + 1, n_warm) if n_warm else (),
    )


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(min_n=1, max_n=30, max_m=6),
    size=st.integers(1, 25),
    data=st.data(),
)
def test_random_rows_matches_python(problem, size, data):
    """Any prefix of given rows, duplicates included, and any budget."""
    k = data.draw(st.integers(0, size))
    budget = data.draw(st.sampled_from([0, 1, 3, size, INIT_RETRY_FACTOR * size]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rows = _seeds(problem, seed + 1, max(k - 1, 1))[:k]

    def fill(backend):
        orders = np.zeros((size, problem.n), dtype=np.int64)
        procs = np.zeros_like(orders)
        for i, c in enumerate(rows):
            orders[i], procs[i] = c.order, c.proc_of
        gen = np.random.default_rng(seed)
        with backend():
            random_rows(problem, gen, orders, procs, k, budget)
        return orders, procs, gen.random()

    _both(fill)


def _two_individuals(n_tasks: int) -> SchedulingProblem:
    """A search space of two: one task on two processors, or two
    independent tasks (two orders) on one."""
    times = np.array([[7.0, 9.0]]) if n_tasks == 1 else np.array([[3.0], [4.0]])
    return SchedulingProblem.deterministic(TaskGraph(n_tasks, []), times)


@pytest.mark.parametrize("n_tasks", [1, 2])
@pytest.mark.parametrize("seed_heft", [True, False])
def test_spent_budget_fills_with_duplicates(n_tasks, seed_heft):
    """Two distinct individuals, eight rows: the budget runs out and the
    rest are duplicates, the same ones on both backends."""
    problem = _two_individuals(n_tasks)
    orders, procs = _engine_rows(problem, 8, 5, seed_heft=seed_heft)
    assert len({o.tobytes() + p.tobytes() for o, p in zip(orders, procs)}) == 2


@pytest.mark.parametrize("n_seeds", [1, 5, 12])
def test_island_seeds_fill_with_no_uniqueness_check(n_seeds):
    problem = make_random_problem(8, n=10, m=2)
    seeds = _seeds(problem, 9, n_seeds)
    orders, procs = _engine_rows(problem, 10, 4, island=seeds)
    for i, c in enumerate(seeds[:10]):
        assert np.array_equal(orders[i], c.order)
        assert np.array_equal(procs[i], c.proc_of)


@pytest.mark.parametrize(
    "shape, k",
    [((4, 5), 0), ((4, 6), 5), ((4, 6), -1)],
    ids=["narrow", "past-the-end", "negative"],
)
def test_random_rows_rejects_bad_arrays_before_drawing(shape, k):
    problem = SchedulingProblem.deterministic(
        TaskGraph(6, [(0, 1)], [1.0]), np.ones((6, 2))
    )
    gen = np.random.default_rng(1)
    before = gen.bit_generator.state
    orders = np.zeros(shape, dtype=np.int64)
    for backend in BACKENDS:
        with backend(), pytest.raises(ValueError, match="cannot be filled"):
            random_rows(problem, gen, orders, orders.copy(), k, 10)
    assert gen.bit_generator.state == before
