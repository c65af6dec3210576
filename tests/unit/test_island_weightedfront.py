"""Unit tests for the island-model GA and the weighted-sum front tracer."""

import numpy as np
import pytest

from repro.ga.engine import GAParams
from repro.ga.fitness import SlackFitness
from repro.ga.island import IslandGeneticScheduler, IslandParams
from repro.moop.fronts import weighted_sum_front
from repro.schedule.evaluation import evaluate
from tests.conftest import make_random_problem


class TestIslandParams:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_islands": 1}, {"epoch_generations": 0}, {"epochs": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IslandParams(**kwargs)


class TestIslandGeneticScheduler:
    @pytest.fixture(scope="class")
    def run_result(self):
        problem = make_random_problem(7, n=14, m=3)
        scheduler = IslandGeneticScheduler(
            SlackFitness(),
            GAParams(population_size=8, max_iterations=20),
            IslandParams(n_islands=3, epoch_generations=10, epochs=3),
            rng=0,
        )
        return problem, scheduler.run(problem)

    def test_result_structure(self, run_result):
        _, result = run_result
        assert result.epochs == 3
        assert len(result.island_bests) == 3
        assert result.best.best_fitness == max(result.island_bests)

    def test_best_schedule_valid(self, run_result):
        problem, result = run_result
        ev = evaluate(result.schedule)
        assert ev.makespan > 0
        assert np.isclose(ev.avg_slack, result.best.best.avg_slack)

    def test_reproducible(self):
        problem = make_random_problem(8, n=10, m=2)
        def once():
            return IslandGeneticScheduler(
                SlackFitness(),
                GAParams(population_size=6, max_iterations=10),
                IslandParams(n_islands=2, epoch_generations=5, epochs=2),
                rng=42,
            ).run(problem)

        a, b = once(), once()
        assert a.best.best_fitness == b.best.best_fitness
        assert a.island_bests == b.island_bests

    def test_cluster_run_matches_serial(self):
        """The island tasks (migrants via the scheduler's dependency
        results) give bit-identical results on a 2-worker pool and
        in-process (``n_jobs=1``)."""
        problem = make_random_problem(9, n=12, m=2)

        def scheduler():
            return IslandGeneticScheduler(
                SlackFitness(),
                GAParams(population_size=6, max_iterations=10),
                IslandParams(n_islands=2, epoch_generations=5, epochs=2),
                rng=42,
            )

        serial = scheduler().run(problem)
        parallel = scheduler().run(problem, n_jobs=2)
        assert serial.island_bests == parallel.island_bests
        assert serial.best.best_fitness == parallel.best.best_fitness
        assert np.array_equal(
            serial.schedule.proc_of, parallel.schedule.proc_of
        )

    def test_rejects_bad_n_jobs(self):
        problem = make_random_problem(9, n=10, m=2)
        with pytest.raises(ValueError, match="n_jobs"):
            IslandGeneticScheduler(
                SlackFitness(),
                GAParams(population_size=6, max_iterations=10),
                IslandParams(n_islands=2, epoch_generations=5, epochs=1),
                rng=1,
            ).run(problem, n_jobs=0)

    def test_competitive_with_single_population(self):
        """At a comparable total budget the island model should land within
        a reasonable factor of the single-population GA (it is a diversity
        mechanism, not a magic accelerator)."""
        from repro.ga.engine import GeneticScheduler

        problem = make_random_problem(9, n=14, m=3)
        island = IslandGeneticScheduler(
            SlackFitness(),
            GAParams(population_size=10, max_iterations=20),
            IslandParams(n_islands=3, epoch_generations=20, epochs=2),
            rng=1,
        ).run(problem)
        single = GeneticScheduler(
            SlackFitness(),
            GAParams(population_size=10, max_iterations=120, stagnation_limit=120),
            rng=1,
        ).run(problem)
        assert island.best.best_fitness >= 0.5 * single.best_fitness

    def test_scheduler_facade(self):
        problem = make_random_problem(10, n=8, m=2)
        s = IslandGeneticScheduler(
            SlackFitness(),
            GAParams(population_size=6, max_iterations=5),
            IslandParams(n_islands=2, epoch_generations=3, epochs=1),
            rng=2,
        ).schedule(problem)
        assert evaluate(s).makespan > 0


class TestWeightedSumFront:
    @pytest.fixture(scope="class")
    def front(self):
        problem = make_random_problem(11, n=12, m=3, mean_ul=3.0)
        params = GAParams(max_iterations=30, stagnation_limit=15)
        return problem, weighted_sum_front(
            problem, (1.0, 0.5, 0.0), params=params, rng=0
        )

    def test_front_shape(self, front):
        _, result = front
        assert len(result.schedules) >= 1
        assert np.all(np.diff(result.makespans) >= 0)
        assert np.all(np.diff(result.slacks) >= 0)

    def test_members_consistent(self, front):
        _, result = front
        for schedule, mk, sl in zip(result.schedules, result.makespans, result.slacks):
            ev = evaluate(schedule)
            assert np.isclose(ev.makespan, mk)
            assert np.isclose(ev.avg_slack, sl)

    def test_extreme_weights_order(self, front):
        """w=1 (makespan) solutions sit at the short end, w=0 (slack) at
        the long end — if both survived the dominance filter."""
        _, result = front
        if 1.0 in result.values and 0.0 in result.values:
            i1 = result.values.index(1.0)
            i0 = result.values.index(0.0)
            assert result.makespans[i1] <= result.makespans[i0]

    def test_heft_runs_once_per_sweep(self):
        from repro.obs import InMemorySink
        from repro.obs import runtime as obs_runtime

        problem = make_random_problem(12, n=8, m=2, mean_ul=3.0)
        sink = InMemorySink()
        obs_runtime.enable(sink)
        try:
            weighted_sum_front(
                problem, (1.0, 0.5, 0.0), params=GAParams(max_iterations=2), rng=0
            )
        finally:
            obs_runtime.disable()
        spans = sink.spans("algebra.solve")
        assert [s["attrs"]["scheduler"] for s in spans] == ["heft"]

    def test_rejects_empty_weights(self, front):
        problem, _ = front
        with pytest.raises(ValueError, match="non-empty"):
            weighted_sum_front(problem, ())

    def test_as_minimization_orientation(self, front):
        _, result = front
        as_min = result.as_minimization()
        assert np.allclose(as_min[:, 1], -result.slacks)
