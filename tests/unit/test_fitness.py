"""Unit tests for GA fitness policies (Eqn. 8 in particular)."""

import numpy as np
import pytest

from repro.ga.fitness import (
    EpsilonConstraintFitness,
    MakespanFitness,
    Population,
    SlackFitness,
    quantile_duration_matrix,
)


def _pop(*rows: tuple[float, float]) -> Population:
    """Metric-only stub: these policies read only makespans and slacks."""
    makespans, slacks = np.array(rows, dtype=np.float64).T
    return Population(None, None, None, makespans, slacks)


class TestSingleObjectivePolicies:
    def test_makespan_ordering(self):
        pop = _pop((10.0, 1.0), (5.0, 0.0), (20.0, 9.0))
        scores = MakespanFitness().scores(pop)
        assert np.argmax(scores) == 1  # smallest makespan wins
        assert np.allclose(scores, [0.1, 0.2, 0.05])

    def test_slack_ordering(self):
        pop = _pop((10.0, 1.0), (5.0, 0.0), (20.0, 9.0))
        scores = SlackFitness().scores(pop)
        assert np.argmax(scores) == 2
        assert np.allclose(scores, [1.0, 0.0, 9.0])


class TestEpsilonConstraintFitness:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EpsilonConstraintFitness(0.0, 100.0)
        with pytest.raises(ValueError):
            EpsilonConstraintFitness(1.0, -5.0)

    def test_bound(self):
        fit = EpsilonConstraintFitness(1.5, 100.0)
        assert fit.bound == 150.0
        assert fit.is_feasible(150.0)
        assert not fit.is_feasible(150.1)

    def test_feasible_scored_by_slack(self):
        fit = EpsilonConstraintFitness(1.0, 100.0)
        pop = _pop((90.0, 3.0), (100.0, 7.0))
        assert np.allclose(fit.scores(pop), [3.0, 7.0])

    def test_infeasible_penalized_below_feasible(self):
        fit = EpsilonConstraintFitness(1.0, 100.0)
        pop = _pop((90.0, 3.0), (120.0, 50.0), (100.0, 7.0))
        scores = fit.scores(pop)
        # Eqn. 8: min feasible fitness (3.0) * bound/M0 = 3 * 100/120 = 2.5.
        assert np.isclose(scores[1], 2.5)
        assert scores[1] < scores[0] < scores[2]

    def test_worse_violation_penalized_more(self):
        fit = EpsilonConstraintFitness(1.0, 100.0)
        pop = _pop((90.0, 3.0), (120.0, 50.0), (200.0, 99.0))
        scores = fit.scores(pop)
        assert scores[1] > scores[2]

    def test_no_feasible_individuals(self):
        fit = EpsilonConstraintFitness(1.0, 100.0)
        pop = _pop((120.0, 5.0), (150.0, 9.0))
        scores = fit.scores(pop)
        assert np.all(scores < 0)  # below any feasible slack (>= 0)
        assert scores[0] > scores[1]  # closer to feasibility scores higher

    def test_zero_min_feasible_slack_keeps_dominance(self):
        fit = EpsilonConstraintFitness(1.0, 100.0)
        pop = _pop((100.0, 0.0), (120.0, 50.0), (150.0, 70.0))
        scores = fit.scores(pop)
        assert scores[0] > scores[1] > scores[2]
        assert scores[1] < 0

    def test_boundary_feasible_inclusive(self):
        fit = EpsilonConstraintFitness(1.0, 100.0)
        pop = _pop((100.0, 4.0))
        assert np.allclose(fit.scores(pop), [4.0])

    def test_all_feasible_is_pure_slack(self):
        fit = EpsilonConstraintFitness(2.0, 100.0)
        pop = _pop((150.0, 1.0), (180.0, 2.0))
        assert np.allclose(fit.scores(pop), [1.0, 2.0])

    def test_for_problem_factory(self, small_random_problem):
        fit = EpsilonConstraintFitness.for_problem(small_random_problem, 1.3)
        from repro.heuristics.heft import HeftScheduler
        from repro.schedule.evaluation import expected_makespan

        m = expected_makespan(HeftScheduler().schedule(small_random_problem))
        assert np.isclose(fit.bound, 1.3 * m)


class TestQuantileDurations:
    def test_median_equals_expectation(self, uncertain_diamond):
        q = quantile_duration_matrix(uncertain_diamond, 0.5)
        assert np.allclose(q, uncertain_diamond.expected_times)

    def test_pessimism_increases(self, uncertain_diamond):
        q9 = quantile_duration_matrix(uncertain_diamond, 0.9)
        q5 = quantile_duration_matrix(uncertain_diamond, 0.5)
        assert np.all(q9 >= q5)
