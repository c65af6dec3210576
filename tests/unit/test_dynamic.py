"""Unit tests for the dynamic (online) scheduling baseline."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.faults import assess_robustness_faulty
from repro.heuristics.heft import HeftScheduler
from repro.sim.dynamic import simulate_dynamic, simulate_semi_dynamic
from tests.conftest import make_random_problem


def _send_result(conn, fn, args):
    conn.send(fn(*args))
    conn.close()


def _call_bounded(fn, *args, timeout=60.0):
    """``fn(*args)`` in a spawned child; fails instead of hanging."""
    ctx = mp.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(send, fn, args), daemon=True)
    child.start()
    send.close()
    try:
        result = recv.recv() if recv.poll(timeout) else None
        child.join(timeout=10.0)
        assert not child.is_alive(), f"{fn.__name__} did not return in {timeout:g}s"
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        recv.close()
    return result


def _infinite_duration_case():
    """A medium-sized instance, its HEFT assignment, and one realization
    in which an early task with successors never finishes."""
    from repro.heuristics.heft import HeftScheduler

    problem = make_random_problem(17, n=60, m=4)
    heft = HeftScheduler().schedule(problem)
    durations = heft.realize_durations(1, rng=3)[0]
    graph = problem.graph
    stuck = next(v for v in heft.proc_orders[0] if len(graph.successors(v)))
    return problem, heft.proc_of, durations, int(stuck)


def _assert_causal(problem, run):
    """No task starts before a predecessor finishes; every task is placed."""
    assert not np.any(np.isnan(run.start_times))
    assert not np.any(np.isnan(run.finish_times))
    assert np.all((run.proc_of >= 0) & (run.proc_of < problem.m))
    for u, v, _ in problem.graph.edges():
        assert run.start_times[v] >= run.finish_times[u]


class TestInfiniteDurations:
    """A task that never finishes ends the run at ``+inf``; it must not
    hang the loop, invent a processor, or start successors early."""

    def test_semi_dynamic_terminates_with_infinite_makespan(self):
        problem, proc_of, durations, stuck = _infinite_duration_case()
        durations[stuck] = np.inf
        run = _call_bounded(simulate_semi_dynamic, problem, proc_of, durations)
        assert run.makespan == np.inf
        assert np.array_equal(run.proc_of, proc_of)
        _assert_causal(problem, run)

    def test_mct_keeps_processors_in_range_and_causal(self):
        problem, _, _, stuck = _infinite_duration_case()
        durations = problem.expected_times.copy()
        durations[stuck, :] = np.inf
        run = _call_bounded(simulate_dynamic, problem, durations)
        assert run.makespan == np.inf
        _assert_causal(problem, run)


class TestSimulateDynamic:
    def test_all_tasks_placed(self, small_random_problem):
        run = simulate_dynamic(
            small_random_problem, small_random_problem.expected_times
        )
        assert np.all(run.proc_of >= 0)
        assert np.all(np.isfinite(run.finish_times))
        assert run.makespan == run.finish_times.max()

    def test_precedence_respected(self, small_random_problem):
        run = simulate_dynamic(
            small_random_problem, small_random_problem.expected_times
        )
        graph = small_random_problem.graph
        platform = small_random_problem.platform
        for u, v, d in graph.edges():
            arrival = run.finish_times[u] + platform.comm_time(
                d, int(run.proc_of[u]), int(run.proc_of[v])
            )
            assert run.start_times[v] >= arrival - 1e-9

    def test_no_processor_overlap(self, small_random_problem):
        run = simulate_dynamic(
            small_random_problem, small_random_problem.expected_times
        )
        for p in range(small_random_problem.m):
            tasks = np.flatnonzero(run.proc_of == p)
            order = tasks[np.argsort(run.start_times[tasks])]
            for a, b in zip(order[:-1], order[1:]):
                assert run.start_times[b] >= run.finish_times[a] - 1e-9

    def test_per_task_durations_accepted(self, diamond_problem):
        run = simulate_dynamic(diamond_problem, np.array([2.0, 4.0, 4.0, 3.0]))
        assert run.makespan > 0

    def test_rejects_bad_shapes(self, diamond_problem):
        with pytest.raises(ValueError, match="durations"):
            simulate_dynamic(diamond_problem, np.ones((3, 2)))
        with pytest.raises(ValueError, match="durations"):
            simulate_dynamic(diamond_problem, np.ones(3))

    def test_deterministic(self, small_random_problem):
        a = simulate_dynamic(
            small_random_problem, small_random_problem.expected_times
        )
        b = simulate_dynamic(
            small_random_problem, small_random_problem.expected_times
        )
        assert a.makespan == b.makespan
        assert np.array_equal(a.proc_of, b.proc_of)

    def test_competitive_with_heft_in_expectation(self):
        """Fed exact expected durations, the online MCT policy should be in
        HEFT's ballpark (it is HEFT without insertion or lookahead)."""
        from repro.heuristics.heft import HeftScheduler
        from repro.schedule.evaluation import expected_makespan

        ratios = []
        for seed in range(6):
            problem = make_random_problem(seed, n=20, m=3)
            online = simulate_dynamic(problem, problem.expected_times).makespan
            heft = expected_makespan(HeftScheduler().schedule(problem))
            ratios.append(online / heft)
        assert np.mean(ratios) < 1.4

    def test_adapts_to_realization(self):
        """When one processor's realized speed collapses, the online policy
        visibly reacts relative to its expected-duration plan."""
        problem = make_random_problem(3, n=15, m=3, mean_ul=4.0)
        expected_run = simulate_dynamic(problem, problem.expected_times)
        # Worst-case durations: everything at the upper bound.
        unc = problem.uncertainty
        worst = (2.0 * unc.ul - 1.0) * unc.bcet
        worst_run = simulate_dynamic(problem, worst)
        assert worst_run.makespan > expected_run.makespan


def _online_report(problem, n_realizations, rng):
    """The online policy's Monte-Carlo report (only the problem of the
    schedule is used)."""
    schedule = HeftScheduler().schedule(problem)
    return assess_robustness_faulty(
        schedule, None, n_realizations, rng, policy="dynamic"
    )


class TestAssessDynamic:
    def test_report_fields(self, small_random_problem):
        report = _online_report(small_random_problem, 50, rng=0)
        assert report.realized_makespans.shape == (50,)
        assert report.mean_makespan == pytest.approx(
            report.realized_makespans.mean()
        )
        assert 0.0 <= report.miss_rate <= 1.0

    def test_reproducible(self, small_random_problem):
        a = _online_report(small_random_problem, 30, rng=5)
        b = _online_report(small_random_problem, 30, rng=5)
        assert np.array_equal(a.realized_makespans, b.realized_makespans)

    def test_deterministic_problem_no_variance(self, diamond_problem):
        report = _online_report(diamond_problem, 20, rng=1)
        assert np.allclose(report.realized_makespans, report.expected_makespan)
        assert report.miss_rate == 0.0


class TestSimulateSemiDynamic:
    def test_respects_assignment(self, small_random_problem):
        from repro.heuristics.heft import HeftScheduler
        from repro.sim.dynamic import simulate_semi_dynamic

        heft = HeftScheduler().schedule(small_random_problem)
        run = simulate_semi_dynamic(
            small_random_problem, heft.proc_of, heft.expected_durations()
        )
        assert np.array_equal(run.proc_of, heft.proc_of)
        assert np.all(np.isfinite(run.finish_times))

    def test_precedence_and_exclusivity(self, small_random_problem):
        from repro.heuristics.heft import HeftScheduler
        from repro.sim.dynamic import simulate_semi_dynamic

        heft = HeftScheduler().schedule(small_random_problem)
        run = simulate_semi_dynamic(
            small_random_problem, heft.proc_of, heft.expected_durations()
        )
        graph = small_random_problem.graph
        platform = small_random_problem.platform
        for u, v, d in graph.edges():
            arrival = run.finish_times[u] + platform.comm_time(
                d, int(run.proc_of[u]), int(run.proc_of[v])
            )
            assert run.start_times[v] >= arrival - 1e-9
        for p in range(small_random_problem.m):
            tasks = np.flatnonzero(run.proc_of == p)
            order = tasks[np.argsort(run.start_times[tasks])]
            for a, b in zip(order[:-1], order[1:]):
                assert run.start_times[b] >= run.finish_times[a] - 1e-9

    def test_never_much_worse_than_static_in_expectation(self):
        """With expected durations, runtime reordering of a HEFT assignment
        should land near the static HEFT makespan on average."""
        from repro.heuristics.heft import HeftScheduler
        from repro.schedule.evaluation import evaluate
        from repro.sim.dynamic import simulate_semi_dynamic

        ratios = []
        for seed in range(6):
            problem = make_random_problem(400 + seed, n=20, m=3)
            heft = HeftScheduler().schedule(problem)
            static_m = evaluate(heft).makespan
            semi = simulate_semi_dynamic(
                problem, heft.proc_of, heft.expected_durations()
            )
            ratios.append(semi.makespan / static_m)
        assert np.mean(ratios) < 1.3

    def test_validation(self, diamond_problem):
        from repro.sim.dynamic import simulate_semi_dynamic

        with pytest.raises(ValueError, match="proc_of"):
            simulate_semi_dynamic(diamond_problem, np.zeros(3, int), np.ones(4))
        for bad in (9, -1):
            with pytest.raises(ValueError, match="out of range"):
                simulate_semi_dynamic(
                    diamond_problem, np.full(4, bad), np.ones(4)
                )
        with pytest.raises(ValueError, match="durations"):
            simulate_semi_dynamic(
                diamond_problem, np.zeros(4, int), np.ones(3)
            )

    def test_deterministic(self, small_random_problem):
        from repro.heuristics.heft import HeftScheduler
        from repro.sim.dynamic import simulate_semi_dynamic

        heft = HeftScheduler().schedule(small_random_problem)
        durs = heft.realize_durations(1, rng=0)[0]
        a = simulate_semi_dynamic(small_random_problem, heft.proc_of, durs)
        b = simulate_semi_dynamic(small_random_problem, heft.proc_of, durs)
        assert a.makespan == b.makespan
