"""Unit tests for the Monte-Carlo robustness evaluator."""

import numpy as np
import pytest

from repro.robustness.montecarlo import assess_robustness
from repro.schedule.evaluation import evaluate
from repro.schedule.schedule import Schedule


@pytest.fixture
def uncertain_schedule(uncertain_diamond):
    return Schedule(uncertain_diamond, [[0, 1], [2, 3]])


class TestAssessRobustness:
    def test_report_consistency(self, uncertain_schedule):
        report = assess_robustness(uncertain_schedule, 400, rng=0)
        ev = evaluate(uncertain_schedule)
        assert report.expected_makespan == ev.makespan
        assert report.avg_slack == ev.avg_slack
        assert report.n_realizations == 400
        assert report.mean_makespan == pytest.approx(
            report.realized_makespans.mean()
        )

    def test_reproducible(self, uncertain_schedule):
        a = assess_robustness(uncertain_schedule, 100, rng=42)
        b = assess_robustness(uncertain_schedule, 100, rng=42)
        assert np.array_equal(a.realized_makespans, b.realized_makespans)
        assert a.r1 == b.r1

    def test_realized_at_least_bcet_makespan(self, uncertain_schedule):
        report = assess_robustness(uncertain_schedule, 200, rng=1)
        # Realized durations >= BCET, so realized makespans >= BCET makespan.
        bcet = uncertain_schedule.problem.uncertainty.bcet
        durs = bcet[np.arange(4), uncertain_schedule.proc_of]
        lower = evaluate(uncertain_schedule, durs).makespan
        assert np.all(report.realized_makespans >= lower - 1e-9)

    def test_metrics_internally_consistent(self, uncertain_schedule):
        report = assess_robustness(uncertain_schedule, 300, rng=2)
        if report.miss_rate > 0:
            assert report.r2 == pytest.approx(1.0 / report.miss_rate)
        if report.mean_tardiness > 0:
            assert report.r1 == pytest.approx(1.0 / report.mean_tardiness)
        assert 0.0 <= report.miss_rate <= 1.0

    def test_deterministic_problem_perfectly_robust(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        report = assess_robustness(s, 50, rng=3)
        assert report.mean_tardiness == 0.0
        assert report.miss_rate == 0.0
        assert report.r1 == np.inf
        assert report.r2 == np.inf
        assert np.allclose(report.realized_makespans, report.expected_makespan)

    def test_rejects_bad_realization_count(self, uncertain_schedule):
        with pytest.raises(ValueError):
            assess_robustness(uncertain_schedule, 0)

    def test_larger_slack_schedule_is_more_robust(self, uncertain_diamond):
        """The paper's core claim on a micro-instance: more slack => higher R1."""
        tight = Schedule(uncertain_diamond, [[0, 1], [2, 3]])
        # Serializing everything on one processor yields zero comm and a
        # longer expected makespan with different slack structure; instead
        # compare against the same schedule with stretched expectations is
        # not possible, so use the other assignment and just sanity-check
        # ordering between slack and tardiness direction on both.
        packed = Schedule(uncertain_diamond, [[0, 1, 2, 3], []])
        r_tight = assess_robustness(tight, 2000, rng=4)
        r_packed = assess_robustness(packed, 2000, rng=5)
        hi_slack, lo_slack = (
            (r_tight, r_packed)
            if r_tight.avg_slack > r_packed.avg_slack
            else (r_packed, r_tight)
        )
        assert hi_slack.mean_tardiness <= lo_slack.mean_tardiness


class TestArgumentValidation:
    def test_rejects_negative_realizations(self, uncertain_schedule):
        with pytest.raises(ValueError, match="n_realizations"):
            assess_robustness(uncertain_schedule, -5)
