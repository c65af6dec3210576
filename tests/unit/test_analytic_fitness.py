"""Unit tests for the analytic-robustness fitness and sensitivity driver."""

import numpy as np
import pytest

from repro.ga.analytic_fitness import AnalyticRobustnessFitness
from repro.ga.chromosome import heft_chromosome, random_chromosome
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import Population
from repro.heuristics.heft import HeftScheduler
from repro.schedule.evaluation import evaluate, expected_makespan


def _population(problem, chromosomes) -> Population:
    """The chromosomes' rows and static metrics, as the engine passes them."""
    evs = [evaluate(c.decode(problem)) for c in chromosomes]
    return Population(
        problem,
        np.stack([c.order for c in chromosomes]),
        np.stack([c.proc_of for c in chromosomes]),
        np.array([ev.makespan for ev in evs]),
        np.array([ev.avg_slack for ev in evs]),
    )


class TestAnalyticRobustnessFitness:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticRobustnessFitness(0.0, 10.0)
        with pytest.raises(ValueError):
            AnalyticRobustnessFitness(1.0, 0.0)

    def test_feasible_scores_are_negated_tardiness(self, small_random_problem):
        fit = AnalyticRobustnessFitness.for_problem(small_random_problem, 2.0)
        chromosome = heft_chromosome(small_random_problem)
        pop = _population(small_random_problem, [chromosome])
        scores = fit.scores(pop)
        from repro.robustness.clark import clark_makespan

        schedule = chromosome.decode(small_random_problem)
        expected = -clark_makespan(schedule).mean_relative_tardiness(
            pop.makespans[0]
        )
        assert scores[0] == pytest.approx(expected)

    def test_infeasible_below_feasible(self, small_random_problem):
        m_heft = expected_makespan(
            HeftScheduler().schedule(small_random_problem)
        )
        fit = AnalyticRobustnessFitness(1.0, m_heft)
        rng = np.random.default_rng(0)
        feasible = heft_chromosome(small_random_problem)
        # Random chromosomes are near-surely infeasible at eps = 1.0.
        others = [random_chromosome(small_random_problem, rng) for _ in range(5)]
        pop = _population(small_random_problem, [feasible, *others])
        scores = fit.scores(pop)
        infeasible = [
            s for makespan, s in zip(pop.makespans, scores) if makespan > fit.bound
        ]
        for s in infeasible:
            assert s < scores[0]

    def test_cache_hit(self, small_random_problem):
        fit = AnalyticRobustnessFitness.for_problem(small_random_problem, 2.0)
        chromosome = heft_chromosome(small_random_problem)
        pop = _population(small_random_problem, [chromosome])
        fit.scores(pop)
        assert chromosome.key() in fit._cache
        # Second call reuses the cache (same value).
        again = fit.scores(pop)
        assert again[0] == fit.scores(pop)[0]

    def test_ga_run_respects_constraint(self, small_random_problem):
        m_heft = expected_makespan(
            HeftScheduler().schedule(small_random_problem)
        )
        fit = AnalyticRobustnessFitness(1.1, m_heft)
        engine = GeneticScheduler(
            fit, GAParams(max_iterations=30, stagnation_limit=15), rng=1
        )
        result = engine.run(small_random_problem)
        assert result.best.makespan <= 1.1 * m_heft * (1 + 1e-9)

    def test_ga_reduces_analytic_tardiness(self, small_random_problem):
        from repro.robustness.clark import clark_makespan

        m_heft = expected_makespan(
            HeftScheduler().schedule(small_random_problem)
        )
        fit = AnalyticRobustnessFitness(1.5, m_heft)
        engine = GeneticScheduler(
            fit, GAParams(max_iterations=60, stagnation_limit=30), rng=2
        )
        result = engine.run(small_random_problem)
        heft_schedule = HeftScheduler().schedule(small_random_problem)
        heft_tard = clark_makespan(heft_schedule).mean_relative_tardiness(
            evaluate(heft_schedule).makespan
        )
        best_tard = clark_makespan(result.schedule).mean_relative_tardiness(
            result.best.makespan
        )
        assert best_tard <= heft_tard + 1e-9


class TestSensitivityDriver:
    def test_smoke_run(self):
        from repro.experiments.config import SCALES, ExperimentConfig
        from repro.experiments.sensitivity import run_sensitivity

        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=4)
        result = run_sensitivity(cfg, "m", (2, 4), mean_ul=2.0)
        assert result.values == (2.0, 4.0)
        assert result.r1_gain.shape == (2,)
        assert "Sensitivity" in result.to_table()

    def test_rejects_unknown_parameter(self):
        from repro.experiments.config import SCALES, ExperimentConfig
        from repro.experiments.sensitivity import run_sensitivity

        cfg = ExperimentConfig(scale=SCALES["smoke"])
        with pytest.raises(ValueError, match="parameter"):
            run_sensitivity(cfg, "n_tasks", (10,))
        with pytest.raises(ValueError, match="non-empty"):
            run_sensitivity(cfg, "ccr", ())
