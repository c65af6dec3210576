"""Property tests: the engine's in-place generation step equals the
chromosome-by-chromosome operators.

A generation selects by binary tournament, then
``GeneticScheduler._next_generation`` writes the children of the selected
rows straight into population arrays.  It must yield the same children
and counts, and leave the Generator in the same ``bit_generator.state``,
as the loop it replaced: pair the intermediate population in a random
order, cross each pair with ``pc`` (an odd leftover is copied through),
then mutate each child with ``pm``.  :func:`_reference_generation` is that
loop, kept here as the reference.  Operator overrides run through the
engine's chromosome adapter and are held to the same reference.  Scores
include ties, NaN and ``±inf``, which decide tournaments too.

Where the native library loads, the engine's generation step
(``GeneticScheduler._vary`` on a native evaluator) runs the paper's
operators as one C call, and is held to the same reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import engine as engine_module
from repro.ga.chromosome import Chromosome, random_chromosome
from repro.ga.crossover import single_point_crossover
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import SlackFitness
from repro.ga.mutation import mutate
from repro.ga.popeval import PopulationEvaluator
from repro.ga.selection import binary_tournament
from repro.graph import _native
from repro.ga.variants import (
    adjacent_swap_mutation,
    order_only_crossover,
    rebalance_mutation,
    uniform_processor_crossover,
)
from tests.conftest import make_random_problem
from tests.property.strategies import problems

OPERATORS = [
    (single_point_crossover, mutate),
    (uniform_processor_crossover, adjacent_swap_mutation),
    (order_only_crossover, rebalance_mutation),
]


#: Scores that tie, compare false (NaN) or sit at either infinity.
SPECIAL_SCORES = [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]


def _reference_generation(problem, parents, params, gen, crossover_fn, mutation_fn):
    """Pair, cross and mutate chromosome objects one by one; also return
    the crossover and mutation counts."""
    n_pop = len(parents)
    perm = gen.permutation(n_pop)
    offspring: list[Chromosome] = []
    n_crossovers = n_mutations = 0
    i = 0
    while i + 1 < n_pop:
        a, b = parents[perm[i]], parents[perm[i + 1]]
        if gen.random() < params.crossover_prob:
            c1, c2 = crossover_fn(a, b, gen)
            n_crossovers += 1
        else:
            c1, c2 = a, b
        offspring.extend((c1, c2))
        i += 2
    if i < n_pop:
        offspring.append(parents[perm[i]])
    children = []
    for c in offspring:
        if gen.random() < params.mutation_prob:
            children.append(mutation_fn(problem, c, gen))
            n_mutations += 1
        else:
            children.append(c)
    return children, (n_crossovers, n_mutations)


def _check_step(problem, pop_size, pc, pm, seed, operators, scores=None):
    crossover_fn, mutation_fn = operators
    rng = np.random.default_rng(seed)
    pool = [random_chromosome(problem, rng) for _ in range(pop_size)]
    if scores is None:
        scores = rng.choice(SPECIAL_SCORES, size=pop_size)
    scores = np.asarray(scores, dtype=np.float64)
    params = GAParams(
        population_size=pop_size, crossover_prob=pc, mutation_prob=pm
    )
    reference_gen = np.random.default_rng(seed + 1)
    selected = binary_tournament(scores, reference_gen)
    expected, expected_counts = _reference_generation(
        problem,
        [pool[i] for i in selected],
        params,
        reference_gen,
        crossover_fn,
        mutation_fn,
    )

    orders = np.stack([c.order for c in pool])
    procs = np.stack([c.proc_of for c in pool])
    # None: selection, then the in-place operators (the numpy path).
    evaluators = [None]
    if _native.get_lib() is not None:
        evaluators.append(PopulationEvaluator(problem))
    for evaluator in evaluators:
        engine = GeneticScheduler(
            SlackFitness(),
            params,
            rng=seed + 1,
            crossover_fn=crossover_fn,
            mutation_fn=mutation_fn,
        )
        out_orders = np.empty_like(orders)
        out_procs = np.empty_like(procs)
        if evaluator is None:
            counts = engine._next_generation(
                problem,
                orders,
                procs,
                binary_tournament(scores, engine._rng),
                out_orders,
                out_procs,
            )
        else:
            counts = engine._vary(
                evaluator, scores, orders, procs, out_orders, out_procs
            )

        assert counts == expected_counts
        assert engine._rng.bit_generator.state == reference_gen.bit_generator.state
        assert np.array_equal(out_orders, np.stack([c.order for c in expected]))
        assert np.array_equal(out_procs, np.stack([c.proc_of for c in expected]))
        # The parents are read, never written.
        assert np.array_equal(orders, np.stack([c.order for c in pool]))
        assert np.array_equal(procs, np.stack([c.proc_of for c in pool]))


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(min_n=1, max_n=10),
    pop_size=st.integers(2, 9),
    pc=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    pm=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**31 - 2),
    operators=st.sampled_from(OPERATORS),
    data=st.data(),
)
def test_in_place_step_matches_object_operators(
    problem, pop_size, pc, pm, seed, operators, data
):
    scores = data.draw(
        st.lists(
            st.sampled_from(SPECIAL_SCORES) | st.floats(-1e3, 1e3),
            min_size=pop_size,
            max_size=pop_size,
        )
    )
    _check_step(problem, pop_size, pc, pm, seed, operators, scores)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("operators", OPERATORS, ids=["paper", "variants-a", "variants-b"])
def test_in_place_step_on_one_and_two_tasks(n, operators):
    for seed in range(25):
        problem = make_random_problem(seed, n=n, m=2)
        _check_step(problem, 2 + seed % 5, 0.9, 0.5, seed, operators)


def test_native_step_runs_only_the_paper_operators(monkeypatch):
    """On a native evaluator the paper's operators never reach the numpy
    selection; operator overrides always do."""
    if _native.get_lib() is None:
        pytest.skip("native kernel unavailable")
    calls = []

    def counting(scores, rng):
        calls.append(1)
        return binary_tournament(scores, rng)

    monkeypatch.setattr(engine_module, "binary_tournament", counting)
    problem = make_random_problem(0, n=8)
    evaluator = PopulationEvaluator(problem)
    pool = [random_chromosome(problem, i) for i in range(4)]
    orders = np.stack([c.order for c in pool])
    procs = np.stack([c.proc_of for c in pool])
    for crossover_fn, mutation_fn in OPERATORS:
        engine = GeneticScheduler(
            SlackFitness(), rng=0, crossover_fn=crossover_fn, mutation_fn=mutation_fn
        )
        engine._vary(
            evaluator,
            np.arange(4.0),
            orders,
            procs,
            np.empty_like(orders),
            np.empty_like(procs),
        )
    assert len(calls) == len(OPERATORS) - 1
