"""Unit tests for CPOP, min-min, random scheduler and PartialSchedule."""

import numpy as np
import pytest

from repro.heuristics.base import PartialSchedule
from repro.heuristics.cpop import CpopScheduler, critical_path_tasks
from repro.heuristics import MinMinScheduler
from repro.heuristics.heft import HeftScheduler
from repro.heuristics.random_sched import RandomScheduler, random_schedule
from repro.schedule.evaluation import evaluate
from tests.conftest import make_random_problem


class TestPartialSchedule:
    def test_place_and_query(self, diamond_problem):
        ps = PartialSchedule(diamond_problem)
        assert not ps.is_placed(0)
        start, fin = ps.place(0, 0)
        assert (start, fin) == (0.0, 2.0)
        assert ps.is_placed(0)

    def test_ready_time_includes_comm(self, diamond_problem):
        ps = PartialSchedule(diamond_problem)
        ps.place(0, 0)
        assert ps.ready_time(1, 0) == 2.0  # same proc, no comm
        assert ps.ready_time(1, 1) == 12.0  # 2 + 10/1

    def test_ready_time_unplaced_pred_raises(self, diamond_problem):
        ps = PartialSchedule(diamond_problem)
        with pytest.raises(ValueError, match="not placed"):
            ps.ready_time(3, 0)

    def test_eft_insertion_into_gap(self, diamond_problem):
        ps = PartialSchedule(diamond_problem)
        ps.place(0, 0)  # occupies [0, 2) on p0
        ps.place(2, 0)  # ready at 2 -> occupies [2, 8)
        ps.place(1, 1)  # elsewhere
        # Now p0 busy [0,8); a 3-long job ready at 0 must start at 8...
        start, fin = ps.eft(3, 0)
        assert start >= 8.0

    def test_gap_is_used_when_it_fits(self):
        from repro.core.problem import SchedulingProblem
        from repro.graph.taskgraph import TaskGraph

        # Three independent tasks on one processor; place 0 then 2 with a
        # deliberate gap by placing 2 after a fake delay via ready times.
        graph = TaskGraph(3, [(0, 1)], [50.0])
        times = np.array([[2.0, 2.0], [4.0, 4.0], [3.0, 3.0]])
        problem = SchedulingProblem.deterministic(graph, times)
        ps = PartialSchedule(problem)
        ps.place(0, 0)  # [0, 2)
        ps.place(1, 1)  # ready on p1 at 2 + 50 = 52 -> [52, 56)
        # p1 has an idle gap [0, 52); task 2 (3 long) fits at the front.
        start, fin = ps.eft(2, 1)
        assert (start, fin) == (0.0, 3.0)

    def test_double_place_raises(self, diamond_problem):
        ps = PartialSchedule(diamond_problem)
        ps.place(0, 0)
        with pytest.raises(ValueError, match="already placed"):
            ps.place(0, 1)

    def test_to_schedule_requires_all_placed(self, diamond_problem):
        ps = PartialSchedule(diamond_problem)
        ps.place(0, 0)
        with pytest.raises(ValueError, match="not yet placed"):
            ps.to_schedule()

    def test_best_processor_tie_breaks_low_index(self, single_task_problem):
        ps = PartialSchedule(single_task_problem)
        proc, _, fin = ps.best_processor(0)
        assert proc == 0
        assert fin == 7.0


class TestCpop:
    def test_critical_path_is_a_path(self, small_random_problem):
        path = critical_path_tasks(small_random_problem)
        g = small_random_problem.graph
        assert len(path) >= 1
        assert int(path[0]) in g.entry_nodes
        assert int(path[-1]) in g.exit_nodes
        for a, b in zip(path[:-1], path[1:]):
            assert g.has_edge(int(a), int(b))

    def test_produces_valid_schedule(self, small_random_problem):
        s = CpopScheduler().schedule(small_random_problem)
        assert evaluate(s).makespan > 0

    def test_cp_tasks_share_processor(self, small_random_problem):
        s = CpopScheduler().schedule(small_random_problem)
        cp = critical_path_tasks(small_random_problem)
        procs = {int(s.proc_of[v]) for v in cp}
        assert len(procs) == 1

    def test_deterministic(self, small_random_problem):
        assert CpopScheduler().schedule(small_random_problem) == CpopScheduler().schedule(
            small_random_problem
        )

    def test_reasonable_quality(self):
        # CPOP should be within 3x of HEFT on average instances.
        for seed in range(5):
            problem = make_random_problem(seed, n=20, m=3)
            heft_m = evaluate(HeftScheduler().schedule(problem)).makespan
            cpop_m = evaluate(CpopScheduler().schedule(problem)).makespan
            assert cpop_m < 3.0 * heft_m


class TestMinMin:
    def test_produces_valid_schedule(self, small_random_problem):
        s = MinMinScheduler().schedule(small_random_problem)
        assert evaluate(s).makespan > 0

    def test_deterministic(self, small_random_problem):
        assert MinMinScheduler().schedule(
            small_random_problem
        ) == MinMinScheduler().schedule(small_random_problem)

    def test_single_task(self, single_task_problem):
        s = MinMinScheduler().schedule(single_task_problem)
        assert evaluate(s).makespan == 7.0

    def test_chain_serialized_correctly(self, chain_problem):
        s = MinMinScheduler().schedule(chain_problem)
        ev = evaluate(s)
        # Lower bound: best-case times of the chain without comm.
        assert ev.makespan >= 2.0 + 1.0 + 2.0


class TestRandomScheduler:
    def test_valid_and_seedable(self, small_random_problem):
        a = random_schedule(small_random_problem, 5)
        b = random_schedule(small_random_problem, 5)
        assert a == b

    def test_different_seeds_differ(self, small_random_problem):
        a = random_schedule(small_random_problem, 1)
        b = random_schedule(small_random_problem, 2)
        assert a != b

    def test_scheduler_facade_advances_stream(self, small_random_problem):
        sched = RandomScheduler(0)
        a = sched.schedule(small_random_problem)
        b = sched.schedule(small_random_problem)
        assert a != b  # same generator, consecutive draws

    def test_all_tasks_assigned(self, small_random_problem):
        s = random_schedule(small_random_problem, 3)
        assert sorted(
            int(v) for tasks in s.proc_orders for v in tasks
        ) == list(range(small_random_problem.n))
