"""Unit tests for the GA engine."""

import numpy as np
import pytest

from repro.ga.chromosome import Chromosome
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    MakespanFitness,
    SlackFitness,
)
from repro.heuristics.heft import HeftScheduler
from repro.schedule.evaluation import evaluate, expected_makespan
from tests.conftest import make_random_problem


class TestGAParams:
    def test_paper_defaults(self):
        p = GAParams()
        assert p.population_size == 20
        assert p.crossover_prob == 0.9
        assert p.mutation_prob == 0.1
        assert p.max_iterations == 1000
        assert p.stagnation_limit == 100
        assert p.seed_heft is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"crossover_prob": 1.5},
            {"mutation_prob": -0.1},
            {"max_iterations": 0},
            {"stagnation_limit": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            GAParams(**kwargs)


def _population(engine, problem, heft_schedule=None) -> list[Chromosome]:
    """The engine's initial rows, one chromosome each."""
    orders, procs = engine._initial_population(problem, heft_schedule)
    assert orders.shape == procs.shape == (engine.params.population_size, problem.n)
    return [Chromosome(o, p) for o, p in zip(orders, procs)]


class TestInitialPopulation:
    def test_contains_heft_seed(self, small_random_problem):
        engine = GeneticScheduler(SlackFitness(), GAParams(max_iterations=1), rng=0)
        pop = _population(engine, small_random_problem)
        heft = HeftScheduler().schedule(small_random_problem)
        assert pop[0].decode(small_random_problem) == heft
        # The caller's HEFT schedule gives the same row 0.
        given = _population(
            GeneticScheduler(SlackFitness(), GAParams(max_iterations=1), rng=0),
            small_random_problem,
            heft,
        )
        assert [c.key() for c in given] == [c.key() for c in pop]

    def test_no_heft_when_disabled(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(), GAParams(max_iterations=1, seed_heft=False), rng=0
        )
        pop = _population(engine, small_random_problem)
        assert len(pop) == 20

    def test_unique_chromosomes(self, small_random_problem):
        engine = GeneticScheduler(SlackFitness(), GAParams(max_iterations=1), rng=1)
        pop = _population(engine, small_random_problem)
        keys = {c.key() for c in pop}
        assert len(keys) == len(pop) == 20
        for c in pop:
            c.validate(small_random_problem)

    def test_population_size_respected(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(), GAParams(population_size=7, max_iterations=1), rng=2
        )
        assert len(_population(engine, small_random_problem)) == 7

    def test_tiny_search_space_fills_with_duplicates(self, single_task_problem):
        # Single task on 2 procs: only 2 distinct chromosomes exist.
        engine = GeneticScheduler(
            SlackFitness(), GAParams(population_size=5, max_iterations=1), rng=3
        )
        pop = _population(engine, single_task_problem)
        assert len(pop) == 5
        assert len({c.key() for c in pop}) == 2


class TestRun:
    @pytest.mark.parametrize("n_other", [20, 25])
    def test_heft_schedule_of_another_problem_is_rejected(self, n_other):
        """Another problem's HEFT schedule raises before anything is drawn,
        whether its task count matches the run's (it would seed a foreign
        row) or not (it would break the population's shape)."""
        problem = make_random_problem(30, n=20, m=3)
        other = HeftScheduler().schedule(make_random_problem(31, n=n_other, m=3))
        gen = np.random.default_rng(6)
        before = gen.bit_generator.state
        engine = GeneticScheduler(SlackFitness(), GAParams(max_iterations=3), gen)
        with pytest.raises(ValueError, match="problem being solved"):
            engine.run(problem, heft_schedule=other)
        assert gen.bit_generator.state == before

    def test_monotone_best_fitness(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(), GAParams(max_iterations=60, stagnation_limit=30), rng=4
        )
        result = engine.run(small_random_problem)
        hist = np.array(result.history.best_fitness)
        assert np.all(np.diff(hist) >= -1e-12)  # elitism: never degrades

    def test_slack_improves_over_initial(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(),
            GAParams(max_iterations=80, stagnation_limit=40, seed_heft=False),
            rng=5,
        )
        result = engine.run(small_random_problem)
        assert result.history.best_slack[-1] > result.history.best_slack[0]

    def test_makespan_never_worse_than_heft_with_seed(self, small_random_problem):
        engine = GeneticScheduler(
            MakespanFitness(), GAParams(max_iterations=40, stagnation_limit=20), rng=6
        )
        result = engine.run(small_random_problem)
        heft_m = expected_makespan(HeftScheduler().schedule(small_random_problem))
        assert result.best.makespan <= heft_m + 1e-9

    def test_stagnation_stop(self, single_task_problem):
        engine = GeneticScheduler(
            MakespanFitness(),
            GAParams(max_iterations=500, stagnation_limit=5),
            rng=7,
        )
        result = engine.run(single_task_problem)
        assert result.stop_reason == "stagnation"
        assert result.generations <= 20

    @pytest.mark.parametrize("score", [-1e6, -1.0, -1e-9, 0.0, 1e-9, 1.0])
    def test_equal_scores_stagnate_at_any_sign(self, small_random_problem, score):
        """An unchanged best score is never an improvement — also when it
        is negative, as analytic-robustness and all-infeasible ε-constraint
        scores are."""

        class ConstantFitness:
            name = "constant"

            def scores(self, population):
                return np.full(len(population), score)

        engine = GeneticScheduler(
            ConstantFitness(),
            GAParams(max_iterations=50, stagnation_limit=5),
            rng=9,
        )
        result = engine.run(small_random_problem)
        assert result.stop_reason == "stagnation"
        assert result.generations == 5

    @pytest.mark.parametrize("start", [-2.0, -1e-3, 0.0, 1e-3, 2.0])
    def test_strict_gains_reset_stagnation_at_any_sign(
        self, small_random_problem, start
    ):
        """A best score that rises every generation never stagnates."""

        class RisingFitness:
            name = "rising"
            calls = 0

            def scores(self, population):
                self.calls += 1
                return np.full(len(population), start + 0.01 * self.calls)

        engine = GeneticScheduler(
            RisingFitness(),
            GAParams(max_iterations=30, stagnation_limit=3),
            rng=10,
        )
        result = engine.run(small_random_problem)
        assert result.stop_reason == "max_iterations"
        assert result.generations == 30

    def test_max_iterations_stop(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(),
            GAParams(max_iterations=3, stagnation_limit=100),
            rng=8,
        )
        result = engine.run(small_random_problem)
        assert result.generations == 3
        assert result.stop_reason == "max_iterations"

    def test_history_lengths(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(), GAParams(max_iterations=5, stagnation_limit=100), rng=9
        )
        result = engine.run(small_random_problem)
        assert len(result.history) == result.generations + 1  # + initial snapshot
        assert len(result.history.best_chromosomes) == len(result.history)

    def test_reproducible(self, small_random_problem):
        params = GAParams(max_iterations=20, stagnation_limit=50)
        r1 = GeneticScheduler(SlackFitness(), params, rng=10).run(small_random_problem)
        r2 = GeneticScheduler(SlackFitness(), params, rng=10).run(small_random_problem)
        assert r1.best.chromosome.key() == r2.best.chromosome.key()
        assert r1.history.best_fitness == r2.history.best_fitness

    def test_best_schedule_is_valid(self, small_random_problem):
        engine = GeneticScheduler(
            SlackFitness(), GAParams(max_iterations=10), rng=11
        )
        result = engine.run(small_random_problem)
        # Decoding and evaluation must both succeed and agree with history.
        assert np.isclose(
            evaluate(result.schedule).avg_slack, result.history.best_slack[-1]
        )

    def test_scheduler_protocol_facade(self, small_random_problem):
        engine = GeneticScheduler(
            MakespanFitness(), GAParams(max_iterations=5), rng=12
        )
        s = engine.schedule(small_random_problem)
        assert evaluate(s).makespan > 0


class TestEpsilonConstraintRun:
    def test_constraint_respected(self, small_random_problem):
        heft_m = expected_makespan(HeftScheduler().schedule(small_random_problem))
        fit = EpsilonConstraintFitness(1.0, heft_m)
        engine = GeneticScheduler(
            fit, GAParams(max_iterations=60, stagnation_limit=30), rng=13
        )
        result = engine.run(small_random_problem)
        assert result.best.makespan <= heft_m * (1 + 1e-9)

    def test_larger_epsilon_larger_slack(self, small_random_problem):
        heft_m = expected_makespan(HeftScheduler().schedule(small_random_problem))
        slacks = []
        for eps in (1.0, 2.0):
            fit = EpsilonConstraintFitness(eps, heft_m)
            engine = GeneticScheduler(
                fit, GAParams(max_iterations=80, stagnation_limit=40), rng=14
            )
            slacks.append(engine.run(small_random_problem).best.avg_slack)
        assert slacks[1] >= slacks[0]


class TestDurationMatrixOverride:
    def test_quantile_view_changes_metrics(self, uncertain_diamond):
        from repro.ga.fitness import quantile_duration_matrix

        q_matrix = quantile_duration_matrix(uncertain_diamond, 0.95)
        engine = GeneticScheduler(
            MakespanFitness(),
            GAParams(max_iterations=5, population_size=6),
            rng=15,
            duration_matrix=q_matrix,
        )
        result = engine.run(uncertain_diamond)
        # Under the pessimistic view the evaluated makespan must exceed the
        # expected-duration makespan of the same schedule.
        assert result.best.makespan > evaluate(result.schedule).makespan - 1e-9
