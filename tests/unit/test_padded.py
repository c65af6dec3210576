"""Unit tests for the quantile-padded HEFT baseline."""

import numpy as np
import pytest

from repro.heuristics import HeftScheduler, QuantileHeftScheduler
from repro.robustness.montecarlo import assess_robustness
from repro.schedule.evaluation import evaluate
from tests.conftest import make_random_problem


class TestQuantileHeftScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileHeftScheduler(1.5)
        with pytest.raises(ValueError):
            QuantileHeftScheduler(-0.1)

    def test_median_equals_plain_heft(self, small_random_problem):
        """For the uniform model the median equals the mean, so q=0.5
        reproduces plain HEFT exactly."""
        plain = HeftScheduler().schedule(small_random_problem)
        padded = QuantileHeftScheduler(0.5).schedule(small_random_problem)
        assert padded == plain

    def test_schedule_bound_to_real_problem(self, small_random_problem):
        padded = QuantileHeftScheduler(0.9).schedule(small_random_problem)
        assert padded.problem is small_random_problem
        # Evaluation uses the real expected durations, not the padded view.
        assert np.allclose(
            padded.expected_durations(),
            small_random_problem.uncertainty.expected_durations(padded.proc_of),
        )

    def test_deterministic(self, small_random_problem):
        a = QuantileHeftScheduler(0.8).schedule(small_random_problem)
        b = QuantileHeftScheduler(0.8).schedule(small_random_problem)
        assert a == b

    def test_padding_changes_decisions_without_systematic_harm(self):
        """Overestimation must actually change placement decisions on some
        instances (it is not a no-op), and must not systematically *hurt*
        robustness.  Whether it helps is instance-dependent — that
        measurement lives in ablation A7 (benchmarks)."""
        deltas = []
        changed = 0
        for seed in range(6):
            problem = make_random_problem(300 + seed, n=20, m=3, mean_ul=4.0)
            plain = HeftScheduler().schedule(problem)
            padded = QuantileHeftScheduler(0.95).schedule(problem)
            changed += plain != padded
            rep_plain = assess_robustness(plain, 600, rng=seed)
            rep_padded = assess_robustness(padded, 600, rng=seed)
            deltas.append(rep_plain.mean_tardiness - rep_padded.mean_tardiness)
        assert changed >= 3
        assert np.mean(deltas) > -0.03

    def test_valid_partition(self, small_random_problem):
        s = QuantileHeftScheduler(0.99).schedule(small_random_problem)
        assert sorted(
            int(v) for tasks in s.proc_orders for v in tasks
        ) == list(range(small_random_problem.n))
        assert evaluate(s).makespan > 0
