"""Unit tests for schedule validation/repair and front-quality tools."""

import numpy as np
import pytest

from repro.moop.fronts import epsilon_front
from repro.moop.pareto import coverage, hypervolume_2d
from repro.schedule.evaluation import evaluate
from repro.schedule.validation import (
    ValidationReport,
    schedule_from_proc_map,
    validate_orders,
)


class TestValidateOrders:
    def test_valid(self, diamond_problem):
        report = validate_orders(diamond_problem, [[0, 1], [2, 3]])
        assert report.ok
        assert "valid" in str(report)

    def test_missing_task(self, diamond_problem):
        report = validate_orders(diamond_problem, [[0, 1], [2]])
        assert not report.ok
        assert report.missing_tasks == (3,)

    def test_duplicated_task(self, diamond_problem):
        report = validate_orders(diamond_problem, [[0, 1, 2], [2, 3]])
        assert report.duplicated_tasks == (2,)

    def test_out_of_range(self, diamond_problem):
        report = validate_orders(diamond_problem, [[0, 1, 9], [2, 3]])
        assert report.out_of_range_tasks == (9,)

    def test_wrong_processor_count(self, diamond_problem):
        report = validate_orders(diamond_problem, [[0, 1, 2, 3]])
        assert report.wrong_processor_count == (2, 1)

    def test_precedence_conflict_direct(self, diamond_problem):
        report = validate_orders(diamond_problem, [[1, 0], [2, 3]])
        assert (1, 0) in report.precedence_conflicts

    def test_precedence_conflict_transitive(self, diamond_problem):
        # 3 before 0 on the same processor: 0 is a transitive ancestor.
        report = validate_orders(diamond_problem, [[3, 0], [1, 2]])
        assert (3, 0) in report.precedence_conflicts

    def test_multiple_problems_reported_together(self, diamond_problem):
        report = validate_orders(diamond_problem, [[1, 0, 0], [9]])
        assert report.duplicated_tasks
        assert report.out_of_range_tasks
        assert report.missing_tasks
        assert report.precedence_conflicts
        text = str(report)
        assert "duplicated" in text and "missing" in text

    def test_agreement_with_schedule_constructor(self, diamond_problem):
        """validate_orders().ok iff Schedule() accepts."""
        from repro.schedule.schedule import Schedule

        cases = [
            [[0, 1], [2, 3]],
            [[0, 3, 1], [2]],
            [[0, 1, 2, 3], []],
            [[2, 0, 1], [3]],
        ]
        for orders in cases:
            report = validate_orders(diamond_problem, orders)
            try:
                Schedule(diamond_problem, orders)
                constructed = True
            except ValueError:
                constructed = False
            assert report.ok == constructed, orders


class TestScheduleFromProcMap:
    def test_valid_output(self, small_random_problem):
        rng = np.random.default_rng(0)
        proc_of = rng.integers(small_random_problem.m, size=small_random_problem.n)
        s = schedule_from_proc_map(small_random_problem, proc_of)
        assert np.array_equal(s.proc_of, proc_of)
        assert evaluate(s).makespan > 0

    def test_rejects_bad_shapes(self, small_random_problem):
        with pytest.raises(ValueError, match="shape"):
            schedule_from_proc_map(small_random_problem, np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="out of range"):
            schedule_from_proc_map(
                small_random_problem,
                np.full(small_random_problem.n, 99, dtype=int),
            )


class TestHypervolume:
    def test_single_point(self):
        hv = hypervolume_2d(np.array([[1.0, 1.0]]), np.array([3.0, 3.0]))
        assert hv == pytest.approx(4.0)

    def test_staircase(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0]])
        hv = hypervolume_2d(pts, np.array([3.0, 3.0]))
        # Two 2x1 rectangles overlapping in a 1x1 square: 2 + 2 - 1 = 3.
        assert hv == pytest.approx(3.0)

    def test_dominated_point_ignored(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        hv = hypervolume_2d(pts, np.array([3.0, 3.0]))
        assert hv == pytest.approx(4.0)

    def test_points_outside_reference(self):
        assert hypervolume_2d(np.array([[5.0, 5.0]]), np.array([3.0, 3.0])) == 0.0

    def test_monotone_in_front_quality(self):
        worse = np.array([[2.0, 2.0]])
        better = np.array([[1.0, 1.0]])
        ref = np.array([4.0, 4.0])
        assert hypervolume_2d(better, ref) > hypervolume_2d(worse, ref)

    def test_validation(self):
        with pytest.raises(ValueError, match="2 objectives"):
            hypervolume_2d(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match="reference"):
            hypervolume_2d(np.ones((2, 2)), np.ones(3))


class TestCoverage:
    def test_full_coverage(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 1.0], [2.0, 0.5]])
        assert coverage(a, b) == 1.0

    def test_no_coverage(self):
        a = np.array([[2.0, 2.0]])
        b = np.array([[1.0, 1.0]])
        assert coverage(a, b) == 0.0

    def test_identical_points_covered(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[1.0, 1.0]])
        assert coverage(a, b) == 1.0

    def test_partial(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[2.0, 2.0], [0.5, 0.5]])
        assert coverage(a, b) == 0.5

    def test_asymmetric(self):
        a = np.array([[1.0, 3.0], [3.0, 1.0]])
        b = np.array([[2.0, 2.0]])
        assert coverage(a, b) == 0.0
        assert coverage(b, a) == 0.0


class TestEpsilonFront:
    @pytest.fixture(scope="class")
    def front(self):
        from repro.ga.engine import GAParams
        from tests.conftest import make_random_problem

        problem = make_random_problem(9, n=14, m=3, mean_ul=3.0)
        params = GAParams(max_iterations=40, stagnation_limit=20)
        return problem, epsilon_front(
            problem, (1.0, 1.4, 1.8), params=params, rng=0
        )

    def test_sorted_and_nondominated(self, front):
        _, result = front
        assert np.all(np.diff(result.makespans) >= 0)
        assert np.all(np.diff(result.slacks) >= 0)  # clean 2-D front shape

    def test_members_consistent(self, front):
        _, result = front
        for schedule, mk, sl in zip(result.schedules, result.makespans, result.slacks):
            ev = evaluate(schedule)
            assert np.isclose(ev.makespan, mk)
            assert np.isclose(ev.avg_slack, sl)

    def test_rejects_empty_grid(self, front):
        problem, _ = front
        with pytest.raises(ValueError, match="non-empty"):
            epsilon_front(problem, ())

    def test_m_heft_recorded(self, front):
        _, result = front
        assert result.m_heft > 0
        # eps = 1.0 member (if kept) respects the budget.
        assert result.makespans[0] <= result.m_heft * 1.8 * (1 + 1e-9)
