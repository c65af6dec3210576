"""Unit tests for JSON serialization and DOT export."""

import json

import numpy as np
import pytest

from repro.heuristics.heft import HeftScheduler
from repro.io import (
    disjunctive_to_dot,
    graph_to_dot,
    load_problem,
    load_schedule,
    problem_from_dict,
    problem_to_dict,
    report_from_dict,
    report_to_dict,
    save_problem,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.schedule.evaluation import evaluate
from repro.schedule.schedule import Schedule


class TestProblemRoundtrip:
    def test_dict_roundtrip(self, small_random_problem):
        payload = problem_to_dict(small_random_problem)
        back = problem_from_dict(payload)
        assert back.graph == small_random_problem.graph
        assert np.array_equal(back.uncertainty.bcet, small_random_problem.uncertainty.bcet)
        assert np.array_equal(back.uncertainty.ul, small_random_problem.uncertainty.ul)
        assert back.name == small_random_problem.name

    def test_file_roundtrip(self, small_random_problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(small_random_problem, path)
        back = load_problem(path)
        assert back.graph == small_random_problem.graph
        # The file is valid, human-readable JSON.
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.problem"

    def test_schedules_transferable(self, small_random_problem, tmp_path):
        """A schedule computed on the original solves the loaded copy."""
        path = tmp_path / "p.json"
        save_problem(small_random_problem, path)
        loaded = load_problem(path)
        s1 = HeftScheduler().schedule(small_random_problem)
        s2 = HeftScheduler().schedule(loaded)
        assert np.isclose(evaluate(s1).makespan, evaluate(s2).makespan)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a repro problem"):
            problem_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self, small_random_problem):
        payload = problem_to_dict(small_random_problem)
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            problem_from_dict(payload)

    @pytest.mark.parametrize("n", [1_000_000, 10**12])
    def test_rejects_task_count_past_the_matrices(self, small_random_problem, n):
        """A declared task count the BCET rows disagree with is rejected
        before anything is sized by it: 10**12 tasks would not fit."""
        payload = problem_to_dict(small_random_problem)
        payload["graph"]["n"] = n
        rows = small_random_problem.n
        with pytest.raises(
            ValueError, match=f"covers {rows} tasks but the graph has {n}$"
        ):
            problem_from_dict(payload)

    def test_detects_corruption(self, small_random_problem):
        payload = problem_to_dict(small_random_problem)
        payload["uncertainty"]["bcet"][0][0] += 1.0
        with pytest.raises(ValueError, match="fingerprint"):
            problem_from_dict(payload)

    def test_custom_transfer_rates_preserved(self, diamond_graph):
        from repro.core.problem import SchedulingProblem
        from repro.platform.platform import Platform

        tr = np.array([[1.0, 3.0], [0.5, 1.0]])
        problem = SchedulingProblem.deterministic(
            diamond_graph, np.ones((4, 2)), Platform(2, tr)
        )
        back = problem_from_dict(problem_to_dict(problem))
        assert back.platform.comm_time(6.0, 0, 1) == 2.0
        assert back.platform.comm_time(6.0, 1, 0) == 12.0


class TestScheduleRoundtrip:
    def test_dict_roundtrip(self, small_random_problem):
        schedule = HeftScheduler().schedule(small_random_problem)
        payload = schedule_to_dict(schedule)
        back = schedule_from_dict(payload, small_random_problem)
        assert back == schedule

    def test_file_roundtrip(self, small_random_problem, tmp_path):
        schedule = HeftScheduler().schedule(small_random_problem)
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        back = load_schedule(path, small_random_problem)
        assert np.isclose(evaluate(back).makespan, evaluate(schedule).makespan)

    def test_rejects_mismatched_problem(self, small_random_problem, diamond_problem):
        schedule = HeftScheduler().schedule(small_random_problem)
        payload = schedule_to_dict(schedule)
        with pytest.raises(ValueError, match="different problem"):
            schedule_from_dict(payload, diamond_problem)

    def test_rejects_wrong_format(self, small_random_problem):
        with pytest.raises(ValueError, match="not a repro schedule"):
            schedule_from_dict({"format": "nope"}, small_random_problem)


class TestReportRoundtrip:
    """report_to_dict / report_from_dict must be bit-exact — the cluster
    checkpoint relies on restored cells being indistinguishable from
    recomputed ones."""

    def _report(self, problem, rng=0):
        from repro.robustness.montecarlo import assess_robustness

        schedule = HeftScheduler().schedule(problem)
        return assess_robustness(schedule, 50, rng)

    def test_round_trip_bit_exact(self, small_random_problem):
        report = self._report(small_random_problem)
        # Through actual JSON text, not just dicts — exactly what the
        # checkpoint journal does.
        payload = json.loads(json.dumps(report_to_dict(report)))
        restored = report_from_dict(payload)
        for attr in (
            "expected_makespan",
            "avg_slack",
            "mean_makespan",
            "mean_tardiness",
            "miss_rate",
            "r1",
            "r2",
        ):
            a, b = getattr(report, attr), getattr(restored, attr)
            assert a == b or (np.isnan(a) and np.isnan(b)), attr
        assert restored.realized_makespans.dtype == np.float64
        assert np.array_equal(
            report.realized_makespans, restored.realized_makespans
        )

    def test_round_trip_preserves_infinite_robustness(self, small_random_problem):
        import dataclasses

        report = self._report(small_random_problem)
        # A schedule that never misses its deadline has R = inf — legal,
        # and not representable in standard JSON without the string coding.
        report = dataclasses.replace(report, r1=float("inf"), r2=float("inf"))
        payload = json.dumps(report_to_dict(report), allow_nan=False)
        restored = report_from_dict(json.loads(payload))
        assert restored.r1 == float("inf")
        assert restored.r2 == float("inf")

    def test_arbitrary_floats_survive_json(self):
        # The fidelity claim the checkpoint rests on: repr-based JSON
        # round-trips reproduce IEEE-754 doubles bit-for-bit.
        rng = np.random.default_rng(7)
        values = rng.random(1000) * np.float64(10.0) ** rng.integers(-300, 300, 1000)
        decoded = np.asarray(json.loads(json.dumps(values.tolist())))
        assert values.tobytes() == decoded.tobytes()

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a repro robustness-report"):
            report_from_dict({"format": "nope"})

    def test_rejects_wrong_version(self, small_random_problem):
        payload = report_to_dict(self._report(small_random_problem))
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            report_from_dict(payload)


class TestDot:
    def test_graph_to_dot_structure(self, diamond_graph):
        dot = graph_to_dot(diamond_graph)
        assert dot.startswith("digraph")
        assert "0 -> 1" in dot
        assert "2 -> 3" in dot
        assert 'label="20"' in dot  # data size on (0, 2)

    def test_graph_to_dot_custom_labels(self, diamond_graph):
        dot = graph_to_dot(diamond_graph, node_labels={0: "entry"})
        assert 'label="entry"' in dot

    def test_graph_to_dot_hide_data(self, diamond_graph):
        dot = graph_to_dot(diamond_graph, show_data=False)
        assert 'label="20"' not in dot

    def test_disjunctive_to_dot(self, diamond_problem):
        schedule = Schedule(diamond_problem, [[0], [1, 2, 3]])
        dot = disjunctive_to_dot(schedule)
        assert "cluster_p0" in dot
        assert "cluster_p1" in dot
        # The added chain edge (1, 2) is dashed.
        assert "1 -> 2 [style=dashed]" in dot
        # Cross-processor DAG edge carries its comm time.
        assert "0 -> 2" in dot
