"""Unit tests for GA operator variants and weighted-sum fitness."""

import numpy as np
import pytest

from repro.ga.chromosome import random_chromosome
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import Population, SlackFitness
from repro.ga.variants import (
    adjacent_swap_mutation,
    order_only_crossover,
    rebalance_mutation,
    uniform_processor_crossover,
)
from repro.graph.taskgraph import TaskGraph
from repro.moop.weighted_sum import WeightedSumFitness


def _pop(*rows: tuple[float, float]) -> Population:
    """Metric-only stub: these policies read only makespans and slacks."""
    makespans, slacks = np.array(rows, dtype=np.float64).T
    return Population(None, None, None, makespans, slacks)


class TestUniformProcessorCrossover:
    def test_orders_preserved(self, small_random_problem):
        rng = np.random.default_rng(0)
        pa = random_chromosome(small_random_problem, rng)
        pb = random_chromosome(small_random_problem, rng)
        c1, c2 = uniform_processor_crossover(pa, pb, rng)
        assert np.array_equal(c1.order, pa.order)
        assert np.array_equal(c2.order, pb.order)
        c1.validate(small_random_problem)
        c2.validate(small_random_problem)

    def test_children_complementary(self, small_random_problem):
        rng = np.random.default_rng(1)
        pa = random_chromosome(small_random_problem, rng)
        pb = random_chromosome(small_random_problem, rng)
        c1, c2 = uniform_processor_crossover(pa, pb, 3)
        for v in range(small_random_problem.n):
            pair = {int(c1.proc_of[v]), int(c2.proc_of[v])}
            assert pair <= {int(pa.proc_of[v]), int(pb.proc_of[v])}

    def test_mismatched_raises(self, small_random_problem, diamond_problem):
        pa = random_chromosome(small_random_problem, 0)
        pb = random_chromosome(diamond_problem, 0)
        with pytest.raises(ValueError):
            uniform_processor_crossover(pa, pb, 0)


class TestOrderOnlyCrossover:
    def test_valid_children(self, small_random_problem):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pa = random_chromosome(small_random_problem, rng)
            pb = random_chromosome(small_random_problem, rng)
            c1, c2 = order_only_crossover(pa, pb, rng)
            c1.validate(small_random_problem)
            c2.validate(small_random_problem)
            assert np.array_equal(c1.proc_of, pa.proc_of)
            assert np.array_equal(c2.proc_of, pb.proc_of)

    def test_single_task_passthrough(self, single_task_problem):
        pa = random_chromosome(single_task_problem, 0)
        pb = random_chromosome(single_task_problem, 1)
        c1, c2 = order_only_crossover(pa, pb, 2)
        assert c1 is pa and c2 is pb


class TestAdjacentSwapMutation:
    def test_always_valid(self, small_random_problem):
        rng = np.random.default_rng(3)
        c = random_chromosome(small_random_problem, rng)
        for _ in range(30):
            c = adjacent_swap_mutation(small_random_problem, c, rng)
            c.validate(small_random_problem)

    def test_pure_chain_unchanged(self):
        from repro.core.problem import SchedulingProblem

        graph = TaskGraph(4, [(0, 1), (1, 2), (2, 3)])
        problem = SchedulingProblem.deterministic(graph, np.ones((4, 2)))
        c = random_chromosome(problem, 0)
        out = adjacent_swap_mutation(problem, c, 1)
        assert np.array_equal(out.order, c.order)

    def test_single_task_unchanged(self, single_task_problem):
        c = random_chromosome(single_task_problem, 0)
        assert adjacent_swap_mutation(single_task_problem, c, 1) is c

    def test_swaps_independent_pair(self):
        from repro.core.problem import SchedulingProblem

        graph = TaskGraph(2)  # two independent tasks
        problem = SchedulingProblem.deterministic(graph, np.ones((2, 2)))
        c = random_chromosome(problem, 0)
        out = adjacent_swap_mutation(problem, c, 1)
        assert out.order.tolist() == c.order[::-1].tolist()


class TestRebalanceMutation:
    def test_always_valid(self, small_random_problem):
        rng = np.random.default_rng(4)
        c = random_chromosome(small_random_problem, rng)
        for _ in range(30):
            c = rebalance_mutation(small_random_problem, c, rng)
            c.validate(small_random_problem)

    def test_targets_underloaded_processor(self):
        from repro.core.problem import SchedulingProblem

        graph = TaskGraph(4)  # independent tasks
        times = np.ones((4, 2))
        problem = SchedulingProblem.deterministic(graph, times)
        # Everything on processor 0.
        c = random_chromosome(problem, 0)
        c = type(c)(order=c.order, proc_of=np.zeros(4, dtype=np.int64))
        out = rebalance_mutation(problem, c, 5)
        # The moved task lands on the empty processor 1.
        assert np.sum(out.proc_of == 1) == 1


class TestEngineWithVariants:
    def test_engine_accepts_variant_operators(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(),
            GAParams(max_iterations=10),
            rng=0,
            crossover_fn=uniform_processor_crossover,
            mutation_fn=adjacent_swap_mutation,
        )
        result = engine.run(small_random_problem)
        assert result.generations == 10
        result.best.chromosome.validate(small_random_problem)


class TestWeightedSumFitness:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedSumFitness(1.5, 100.0, 5.0)
        with pytest.raises(ValueError):
            WeightedSumFitness(0.5, 0.0, 5.0)

    def test_pure_makespan_ordering(self):
        fit = WeightedSumFitness(1.0, 100.0, 5.0)
        scores = fit.scores(_pop((50.0, 0.0), (200.0, 99.0)))
        assert scores[0] > scores[1]

    def test_pure_slack_ordering(self):
        fit = WeightedSumFitness(0.0, 100.0, 5.0)
        scores = fit.scores(_pop((50.0, 1.0), (200.0, 9.0)))
        assert scores[1] > scores[0]

    def test_reference_scores_near_one(self):
        fit = WeightedSumFitness(0.5, 100.0, 5.0)
        scores = fit.scores(_pop((100.0, 5.0)))
        assert scores[0] == pytest.approx(1.0)

    def test_zero_slack_ref_clamped(self):
        fit = WeightedSumFitness(0.5, 100.0, 0.0)
        scores = fit.scores(_pop((100.0, 1.0)))
        assert np.isfinite(scores[0])

    def test_for_problem_factory(self, small_random_problem):
        fit = WeightedSumFitness.for_problem(small_random_problem, 0.7)
        assert fit.weight == 0.7
        assert fit.m_ref > 0

    def test_usable_in_engine(self, small_random_problem):
        fit = WeightedSumFitness.for_problem(small_random_problem, 0.5)
        engine = GeneticScheduler(fit, GAParams(max_iterations=15), rng=1)
        result = engine.run(small_random_problem)
        assert result.best_fitness >= 1.0 - 1e-9  # HEFT seed scores ~1
