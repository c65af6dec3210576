"""Unit tests for the fault-injection subsystem (`repro.faults`).

Hand-computed fault-environment timelines, scenario validation, the
tail-outlier perturbation, the reactive policies and the fault-aware
assessment; the zero-fault bit-identity contract lives in
``tests/property/test_fault_identity.py``.
"""

import math

import numpy as np
import pytest

from repro.faults import (
    BUILTIN_SCENARIOS,
    FaultEnvironment,
    FaultScenario,
    LinkFault,
    OutageFault,
    SlowdownFault,
    TailFault,
    apply_tail_faults,
    assess_robustness_faulty,
    load_scenario,
    luck_fractions,
    resolve_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.robustness.montecarlo import assess_robustness
from repro.schedule.schedule import Schedule
from repro.sim.dynamic import simulate_dynamic, simulate_semi_dynamic
from repro.sim.eventsim import simulate
from tests.conftest import make_random_problem

INF = float("inf")


# --------------------------------------------------------------------- #
# Fault dataclass validation
# --------------------------------------------------------------------- #


class TestFaultValidation:
    def test_slowdown_rejects_bad_factor(self):
        for factor in (0.0, -1.0, INF, float("nan")):
            with pytest.raises(ValueError, match="factor"):
                SlowdownFault(factor=factor)

    def test_window_must_be_nonempty(self):
        with pytest.raises(ValueError, match="end > start"):
            OutageFault(start=2.0, end=2.0)
        with pytest.raises(ValueError, match="end > start"):
            SlowdownFault(factor=2.0, start=3.0, end=1.0)

    def test_window_start_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            OutageFault(start=-1.0)

    def test_negative_processor_rejected(self):
        with pytest.raises(ValueError, match="processor"):
            OutageFault(processor=-1)

    def test_tail_probability_range(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError, match="probability"):
                TailFault(probability=p)

    def test_tail_family_and_shape(self):
        with pytest.raises(ValueError, match="family"):
            TailFault(probability=0.1, family="cauchy")
        with pytest.raises(ValueError, match="shape"):
            TailFault(probability=0.1, shape=0.0)

    def test_tail_task_ids_normalized(self):
        f = TailFault(probability=0.1, tasks=[np.int64(3), 1])
        assert f.tasks == (3, 1)
        with pytest.raises(ValueError, match="task ids"):
            TailFault(probability=0.1, tasks=(-1,))

    def test_link_fault_matches(self):
        f = LinkFault(factor=2.0, src=0, dst=1)
        assert f.matches(0, 1)
        assert not f.matches(1, 0)
        wild = LinkFault(factor=2.0)
        assert wild.matches(2, 7)

    def test_outage_permanent_flag(self):
        assert OutageFault(start=1.0).permanent
        assert not OutageFault(start=1.0, end=2.0).permanent


class TestScenario:
    def test_rejects_unknown_fault_objects(self):
        with pytest.raises(TypeError, match="unknown fault type"):
            FaultScenario(faults=("not-a-fault",))

    def test_classification(self):
        s = FaultScenario(
            faults=(
                SlowdownFault(factor=2.0),
                OutageFault(start=0.0, end=1.0),
                LinkFault(factor=3.0),
                TailFault(probability=0.1),
            )
        )
        assert len(s.proc_faults) == 2
        assert len(s.link_faults) == 1
        assert len(s.tail_faults) == 1
        assert s.time_dependent
        assert not s.has_permanent_failures
        assert FaultScenario(
            faults=(OutageFault(processor=0, start=1.0),)
        ).has_permanent_failures

    def test_tail_only_scenario_has_no_environment(self):
        s = FaultScenario(faults=(TailFault(probability=0.5),))
        assert not s.time_dependent
        assert s.environment(4) is None
        assert FaultScenario.none().environment(4) is None

    def test_environment_rejects_bad_time_scale(self):
        s = FaultScenario(
            faults=(OutageFault(start=0.1, end=0.2),), relative_times=True
        )
        for scale in (0.0, -1.0, INF):
            with pytest.raises(ValueError, match="time_scale"):
                s.environment(2, time_scale=scale)

    def test_validate_for_out_of_range(self):
        with pytest.raises(ValueError, match="processor 5"):
            FaultScenario(
                faults=(OutageFault(processor=5, start=0.0, end=1.0),)
            ).validate_for(10, 2)
        with pytest.raises(ValueError, match="endpoint"):
            FaultScenario(faults=(LinkFault(factor=2.0, dst=3),)).validate_for(10, 2)
        with pytest.raises(ValueError, match="tasks"):
            FaultScenario(
                faults=(TailFault(probability=0.1, tasks=(12,)),)
            ).validate_for(10, 2)

    def test_validate_for_accepts_in_range(self):
        for scenario in BUILTIN_SCENARIOS.values():
            scenario.validate_for(50, 2)


# --------------------------------------------------------------------- #
# FaultEnvironment: hand-computed speed timelines
# --------------------------------------------------------------------- #


class TestFaultEnvironment:
    def test_requires_a_processor(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultEnvironment(0)

    def test_no_faults_is_unit_speed(self):
        env = FaultEnvironment(3)
        assert env.speed_at(1, 123.0) == 1.0
        assert env.finish_time(0, 5.0, 7.0) == 12.0
        assert env.earliest_start(2, 4.0) == 4.0
        assert env.comm_factor(0, 1, 0.0) == 1.0
        assert not env.has_permanent_failures
        assert env.dead_from(0) == INF

    def test_slowdown_window_integration(self):
        # Speed 1/2 on [0, 10): 6 work units = 5 done by t=10, 1 after.
        env = FaultEnvironment(1, (SlowdownFault(factor=2.0, start=0.0, end=10.0),))
        assert env.speed_at(0, 5.0) == 0.5
        assert env.speed_at(0, 10.0) == 1.0
        assert env.finish_time(0, 0.0, 6.0) == 11.0
        # Entirely inside the window: 2 work at half speed.
        assert env.finish_time(0, 1.0, 2.0) == 5.0
        # After recovery the window is irrelevant.
        assert env.finish_time(0, 10.0, 3.0) == 13.0

    def test_overlapping_slowdowns_multiply(self):
        env = FaultEnvironment(
            1,
            (
                SlowdownFault(factor=2.0, start=0.0, end=10.0),
                SlowdownFault(factor=2.0, start=5.0, end=15.0),
            ),
        )
        assert env.speed_at(0, 2.0) == 0.5
        assert env.speed_at(0, 7.0) == 0.25
        assert env.speed_at(0, 12.0) == 0.5

    def test_outage_suspends_progress(self):
        # 8 work started at 0; 5 done by the outage at t=5, stall to 10,
        # the remaining 3 finish at 13.
        env = FaultEnvironment(1, (OutageFault(start=5.0, end=10.0),))
        assert env.speed_at(0, 7.0) == 0.0
        assert env.finish_time(0, 0.0, 8.0) == 13.0
        assert env.earliest_start(0, 7.0) == 10.0
        assert env.earliest_start(0, 10.0) == 10.0

    def test_outage_dominates_slowdown(self):
        env = FaultEnvironment(
            1,
            (
                SlowdownFault(factor=2.0, start=0.0, end=10.0),
                OutageFault(start=2.0, end=4.0),
            ),
        )
        assert env.speed_at(0, 3.0) == 0.0

    def test_overlapping_outages_merge(self):
        env = FaultEnvironment(
            1,
            (OutageFault(start=1.0, end=3.0), OutageFault(start=2.0, end=5.0)),
        )
        # Work of 1 started at 0 waits through the union [1, 5).
        assert env.finish_time(0, 0.0, 2.0) == 6.0
        assert env.earliest_start(0, 2.5) == 5.0

    def test_permanent_failure(self):
        env = FaultEnvironment(2, (OutageFault(processor=0, start=4.0),))
        assert env.finish_time(0, 0.0, 4.0) == 4.0  # exactly done at death
        assert env.finish_time(0, 0.0, 4.5) == INF
        assert env.earliest_start(0, 4.0) == INF
        assert env.dead_from(0) == 4.0
        assert env.dead_from(1) == INF
        assert env.has_permanent_failures
        # The live processor is untouched.
        assert env.finish_time(1, 0.0, 9.0) == 9.0

    def test_zero_work_finishes_immediately(self):
        env = FaultEnvironment(1, (OutageFault(start=0.0, end=10.0),))
        assert env.finish_time(0, 3.0, 0.0) == 3.0

    def test_finish_time_rejects_bad_work(self):
        env = FaultEnvironment(1)
        with pytest.raises(ValueError, match="work"):
            env.finish_time(0, 0.0, -1.0)

    def test_infinite_start_propagates(self):
        env = FaultEnvironment(1)
        assert env.finish_time(0, INF, 1.0) == INF
        assert env.earliest_start(0, INF) == INF

    def test_time_scale_stretches_windows(self):
        env = FaultEnvironment(
            1, (OutageFault(start=0.3, end=0.6),), time_scale=100.0
        )
        assert env.speed_at(0, 50.0) == 0.0
        assert env.speed_at(0, 20.0) == 1.0
        assert env.earliest_start(0, 40.0) == 60.0

    def test_comm_factor_windows_and_matching(self):
        env = FaultEnvironment(
            2, link_faults=(LinkFault(factor=3.0, src=0, dst=1, start=0.0, end=10.0),)
        )
        assert env.comm_factor(0, 1, 5.0) == 3.0
        assert env.comm_factor(1, 0, 5.0) == 1.0  # direction matters
        assert env.comm_factor(0, 1, 10.0) == 1.0  # window is half-open
        assert env.comm_factor(0, 0, 5.0) == 1.0  # intra-processor free

    def test_rejects_foreign_fault_types(self):
        with pytest.raises(TypeError, match="processor fault"):
            FaultEnvironment(1, (LinkFault(factor=2.0),))
        with pytest.raises(TypeError, match="link fault"):
            FaultEnvironment(1, link_faults=(OutageFault(start=0.0, end=1.0),))

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError, match="m=1"):
            FaultEnvironment(1, (OutageFault(processor=3, start=0.0, end=1.0),))


# --------------------------------------------------------------------- #
# Fault-aware event simulation (hand-computed on the diamond)
# --------------------------------------------------------------------- #


class TestSimulateWithEnvironment:
    def test_neutral_environment_is_identity(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        plain = simulate(s)
        faulty = simulate(s, env=FaultEnvironment(2))
        assert faulty.makespan == plain.makespan == 29.0
        assert np.array_equal(faulty.start_times, plain.start_times)
        assert np.array_equal(faulty.finish_times, plain.finish_times)

    def test_global_outage_shifts_everything(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        env = FaultEnvironment(2, (OutageFault(start=0.0, end=5.0),))
        res = simulate(s, env=env)
        base = simulate(s)
        assert res.makespan == base.makespan + 5.0
        assert np.array_equal(res.start_times, base.start_times + 5.0)

    def test_mid_task_outage_suspends(self, diamond_problem):
        # Task 0 (2 time units on p0) runs [0, 1), stalls [1, 2), ends at 3.
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        env = FaultEnvironment(2, (OutageFault(processor=0, start=1.0, end=2.0),))
        res = simulate(s, env=env)
        assert res.start_times[0] == 0.0
        assert res.finish_times[0] == 3.0

    def test_permanent_failure_gives_infinite_makespan(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        env = FaultEnvironment(2, (OutageFault(processor=0, start=1.0),))
        res = simulate(s, env=env)  # never deadlocks
        assert math.isinf(res.makespan)
        assert math.isinf(res.finish_times[0])
        # Downstream tasks on the live processor starve on task 0's data.
        assert math.isinf(res.finish_times[2])

    def test_link_fault_delays_transfer(self, diamond_problem):
        # Baseline: task 2 starts at 22 = finish(0) + comm(20, p0 -> p1).
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        env = FaultEnvironment(
            2, link_faults=(LinkFault(factor=2.0, src=0, dst=1, start=0.0, end=10.0),)
        )
        res = simulate(s, env=env)
        assert res.start_times[2] == 42.0  # 2 + 2 * 20

    def test_slowdown_stretches_execution(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        env = FaultEnvironment(2, (SlowdownFault(factor=2.0, processor=0),))
        res = simulate(s, env=env)
        assert res.finish_times[0] == 4.0  # 2 units at half speed
        assert res.finish_times[1] == 12.0  # starts at 4, 4 units at half speed


# --------------------------------------------------------------------- #
# Tail-fault perturbation
# --------------------------------------------------------------------- #


class TestTailFaults:
    def _support(self, n):
        low = np.linspace(1.0, 2.0, n)
        high = low * 3.0
        return low, high

    def test_no_tail_faults_returns_same_object(self):
        low, high = self._support(4)
        d = np.random.default_rng(0).uniform(low, high, size=(5, 4))
        out, k = apply_tail_faults(d, low, high, FaultScenario.none(), None)
        assert out is d
        assert k == 0

    def test_certain_outliers_exceed_worst_case(self):
        low, high = self._support(6)
        gen = np.random.default_rng(1)
        d = gen.uniform(low, high, size=(20, 6))
        s = FaultScenario(faults=(TailFault(probability=1.0),))
        out, k = apply_tail_faults(d, low, high, s, gen)
        assert k == 20 * 6
        assert np.all(out >= high)  # every outlier lands at/beyond the bound
        assert np.all(d <= high)  # the input array was not mutated

    def test_task_subset_leaves_others_untouched(self):
        low, high = self._support(5)
        gen = np.random.default_rng(2)
        d = gen.uniform(low, high, size=(30, 5))
        s = FaultScenario(faults=(TailFault(probability=1.0, tasks=(1, 3)),))
        out, k = apply_tail_faults(d, low, high, s, gen)
        assert k == 30 * 2
        untouched = [0, 2, 4]
        assert np.array_equal(out[:, untouched], d[:, untouched])
        assert np.all(out[:, [1, 3]] >= high[[1, 3]])

    def test_lognormal_family(self):
        low, high = self._support(3)
        gen = np.random.default_rng(3)
        d = gen.uniform(low, high, size=(10, 3))
        s = FaultScenario(
            faults=(TailFault(probability=1.0, family="lognormal", shape=0.5),)
        )
        out, k = apply_tail_faults(d, low, high, s, gen)
        assert k == 30
        assert np.all(out >= high)

    def test_deterministic_support_uses_high_as_spread(self):
        low = np.array([2.0, 2.0])
        high = np.array([2.0, 6.0])  # task 0 deterministic
        gen = np.random.default_rng(4)
        d = np.tile(low, (8, 1))
        s = FaultScenario(faults=(TailFault(probability=1.0),))
        out, _ = apply_tail_faults(d, low, high, s, gen)
        assert np.all(out[:, 0] > 2.0)  # spread = high itself, not zero

    def test_luck_fractions(self):
        low = np.array([1.0, 2.0, 3.0])
        high = np.array([3.0, 2.0, 5.0])  # task 1 deterministic
        d = np.array([2.0, 2.0, 7.0])  # mid-support, exact, outlier
        u = luck_fractions(d, low, high)
        assert u[0] == 0.5
        assert u[1] == 0.0
        assert u[2] == 2.0  # outliers map above 1 and stay outliers


# --------------------------------------------------------------------- #
# Reactive policies
# --------------------------------------------------------------------- #


def _assigned_durations(problem, proc_of, rng=0):
    gen = np.random.default_rng(rng)
    low = problem.uncertainty.bcet
    high = (2.0 * problem.uncertainty.ul - 1.0) * low
    full = gen.uniform(low, high)
    return full[np.arange(problem.n), proc_of]


class TestRepairPolicy:
    def test_fault_free_world_never_redispatches(self):
        problem = make_random_problem(7, n=14, m=3)
        from repro.heuristics.heft import HeftScheduler

        s = HeftScheduler().schedule(problem)
        d = _assigned_durations(problem, s.proc_of, rng=5)
        run = simulate_semi_dynamic(problem, s.proc_of, d, env=FaultEnvironment(3))
        assert np.isfinite(run.makespan)
        assert np.array_equal(run.proc_of, s.proc_of)
        assert np.all(np.isfinite(run.finish_times))

    def test_permanent_failure_moves_tasks_to_live_processor(
        self, diamond_problem
    ):
        proc_of = np.array([0, 0, 1, 1])
        d = np.array([2.0, 4.0, 4.0, 3.0])  # expected times on assignment
        env = FaultEnvironment(2, (OutageFault(processor=0, start=0.0),))
        run = simulate_semi_dynamic(diamond_problem, proc_of, d, env=env)
        assert np.isfinite(run.makespan)
        assert np.all(run.proc_of == 1)  # both p0 tasks repaired onto p1
        # rerun-static in the same world strands everything.
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        assert math.isinf(simulate(s, d, env=env).makespan)

    def test_all_processors_dead_degrades_to_infinity(self, diamond_problem):
        proc_of = np.array([0, 0, 1, 1])
        d = np.array([2.0, 4.0, 4.0, 3.0])
        env = FaultEnvironment(2, (OutageFault(start=0.0),))
        run = simulate_semi_dynamic(diamond_problem, proc_of, d, env=env)  # no deadlock
        assert math.isinf(run.makespan)

    def test_mid_run_failure_repairs_remaining_tasks(self):
        problem = make_random_problem(11, n=16, m=3)
        from repro.heuristics.heft import HeftScheduler

        s = HeftScheduler().schedule(problem)
        d = _assigned_durations(problem, s.proc_of, rng=6)
        env = FaultEnvironment(3, (OutageFault(processor=0, start=1.0),))
        run = simulate_semi_dynamic(problem, s.proc_of, d, env=env)
        assert np.isfinite(run.makespan)
        # Whatever could not run on p0 before its death moved elsewhere.
        late_on_p0 = (run.proc_of == 0) & (run.start_times >= 1.0)
        assert not np.any(late_on_p0)

    def test_rejects_wrong_shapes(self, diamond_problem):
        env = FaultEnvironment(2)
        with pytest.raises(ValueError, match="proc_of"):
            simulate_semi_dynamic(
                diamond_problem, np.zeros(3, dtype=int), np.ones(4), env=env
            )
        with pytest.raises(ValueError, match="durations"):
            simulate_semi_dynamic(
                diamond_problem, np.zeros(4, dtype=int), np.ones(3), env=env
            )


class TestDynamicFaultyPolicy:
    def test_avoids_dead_processor(self):
        problem = make_random_problem(5, n=12, m=3)
        env = FaultEnvironment(3, (OutageFault(processor=1, start=0.0),))
        durations = np.maximum(problem.expected_times, 1e-9)
        run = simulate_dynamic(problem, durations, env=env)
        assert np.isfinite(run.makespan)
        assert not np.any(run.proc_of == 1)

    def test_all_dead_world_completes_with_infinite_makespan(self):
        problem = make_random_problem(6, n=8, m=2)
        env = FaultEnvironment(2, (OutageFault(start=0.0),))
        run = simulate_dynamic(problem, problem.expected_times, env=env)
        assert math.isinf(run.makespan)
        assert np.all((run.proc_of >= 0) & (run.proc_of < 2))

    def test_rejects_wrong_shape(self, diamond_problem):
        with pytest.raises(ValueError, match="durations"):
            simulate_dynamic(diamond_problem, np.ones((4, 3)), env=FaultEnvironment(2))


@pytest.mark.parametrize("sim", ["static", "semi-dynamic", "dynamic"])
@pytest.mark.parametrize("env_m", [1, 3])
def test_environment_must_match_processor_count(diamond_problem, sim, env_m):
    """An environment for more processors would silently drop their
    faults, one for fewer would index past its timelines: both raise."""
    env = FaultEnvironment(env_m, (OutageFault(processor=env_m - 1, start=0.0),))
    d = np.array([2.0, 4.0, 4.0, 3.0])
    proc_of = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="m="):
        if sim == "static":
            simulate(Schedule(diamond_problem, [[0, 1], [2, 3]]), d, env=env)
        elif sim == "semi-dynamic":
            simulate_semi_dynamic(diamond_problem, proc_of, d, env=env)
        else:
            simulate_dynamic(diamond_problem, d, env=env)


# --------------------------------------------------------------------- #
# Fault-aware assessment
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def heft_schedule():
    problem = make_random_problem(21, n=18, m=3, mean_ul=3.0)
    from repro.heuristics.heft import HeftScheduler

    return HeftScheduler().schedule(problem)


class TestAssessRobustnessFaulty:
    def test_rejects_bad_arguments(self, heft_schedule):
        with pytest.raises(ValueError, match="unknown policy"):
            assess_robustness_faulty(heft_schedule, policy="hope")
        with pytest.raises(ValueError, match="n_realizations"):
            assess_robustness_faulty(heft_schedule, n_realizations=0)
        with pytest.raises(ValueError, match="processor"):
            assess_robustness_faulty(
                heft_schedule,
                FaultScenario(faults=(OutageFault(processor=9, start=0.0, end=1.0),)),
            )
        with pytest.raises(ValueError, match="uniform"):
            assess_robustness_faulty(
                heft_schedule, n_realizations=5, policy="dynamic", family="beta"
            )

    def test_none_scenario_defaults_to_plain_assessment(self, heft_schedule):
        plain = assess_robustness(heft_schedule, 64, rng=42)
        faulty = assess_robustness_faulty(heft_schedule, None, 64, rng=42)
        assert np.array_equal(faulty.realized_makespans, plain.realized_makespans)
        assert faulty.r1 == plain.r1
        assert faulty.scenario == "none"
        assert faulty.n_realizations == 64
        assert faulty.n_failed == 0

    def test_samples_are_frozen(self, heft_schedule):
        fa = assess_robustness_faulty(heft_schedule, None, 8, rng=0)
        with pytest.raises(ValueError):
            fa.realized_makespans[0] = 0.0

    def test_tail_faults_only_inflate(self, heft_schedule):
        scenario = BUILTIN_SCENARIOS["heavy-tail"]
        plain = assess_robustness(heft_schedule, 128, rng=7)
        faulty = assess_robustness_faulty(heft_schedule, scenario, 128, rng=7)
        # Same base draws; outliers only lengthen tasks, so each realized
        # makespan dominates its fault-free counterpart.
        assert np.all(faulty.realized_makespans >= plain.realized_makespans)
        assert faulty.n_tail_outliers > 0
        assert faulty.policy == "rerun-static"

    def test_permanent_failure_static_vs_repair(self, heft_schedule):
        scenario = BUILTIN_SCENARIOS["proc-failure"]
        static = assess_robustness_faulty(heft_schedule, scenario, 16, rng=3)
        assert static.n_failed == 16
        assert static.r1 == 0.0
        assert static.miss_rate == 1.0
        assert math.isinf(static.mean_makespan)
        repaired = assess_robustness_faulty(
            heft_schedule, scenario, 16, rng=3, policy="repair"
        )
        assert repaired.n_failed == 0
        assert repaired.n_redispatches > 0
        assert np.all(np.isfinite(repaired.realized_makespans))
        # Both policies promise the same fault-free M_0.
        assert repaired.expected_makespan == static.expected_makespan

    def test_outage_window_delays_but_completes(self, heft_schedule):
        scenario = BUILTIN_SCENARIOS["outage-mid"]
        fa = assess_robustness_faulty(heft_schedule, scenario, 16, rng=5)
        assert fa.n_failed == 0
        assert np.all(np.isfinite(fa.realized_makespans))

    def test_dynamic_policy(self, heft_schedule):
        fa = assess_robustness_faulty(
            heft_schedule,
            BUILTIN_SCENARIOS["proc-failure"],
            8,
            rng=1,
            policy="dynamic",
        )
        assert fa.policy == "dynamic"
        assert math.isnan(fa.avg_slack)  # no static schedule to take slack on
        assert np.isfinite(fa.expected_makespan)
        assert fa.n_realizations == 8


# --------------------------------------------------------------------- #
# Spec round-trip and the builtin library
# --------------------------------------------------------------------- #


class TestScenarioSpec:
    def test_dict_round_trip(self):
        for scenario in BUILTIN_SCENARIOS.values():
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_infinity_encodes_as_string(self):
        d = scenario_to_dict(BUILTIN_SCENARIOS["proc-failure"])
        assert d["faults"][0]["end"] == "inf"
        assert scenario_from_dict(d).faults[0].permanent

    def test_tasks_tuple_encodes_as_list(self):
        s = FaultScenario(faults=(TailFault(probability=0.1, tasks=(1, 2)),))
        d = scenario_to_dict(s)
        assert d["faults"][0]["tasks"] == [1, 2]
        assert scenario_from_dict(d) == s

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError, match="mapping"):
            scenario_from_dict("not-a-dict")
        with pytest.raises(ValueError, match="unknown fault type"):
            scenario_from_dict({"faults": [{"type": "meteor"}]})
        with pytest.raises(ValueError, match="unknown field"):
            scenario_from_dict(
                {"faults": [{"type": "outage", "severity": "bad"}]}
            )
        with pytest.raises(ValueError, match="fault entry"):
            scenario_from_dict({"faults": ["outage"]})

    def test_json_file_round_trip(self, tmp_path):
        scenario = BUILTIN_SCENARIOS["mixed"]
        path = save_scenario(scenario, tmp_path / "mixed.json")
        assert load_scenario(path) == scenario

    def test_yaml_file_round_trip(self, tmp_path):
        pytest.importorskip("yaml")
        scenario = BUILTIN_SCENARIOS["mixed"]
        path = save_scenario(scenario, tmp_path / "mixed.yaml")
        assert load_scenario(path) == scenario

    def test_resolve_scenario(self, tmp_path):
        assert resolve_scenario("outage-mid") is BUILTIN_SCENARIOS["outage-mid"]
        path = save_scenario(BUILTIN_SCENARIOS["slow-proc"], tmp_path / "s.json")
        assert resolve_scenario(str(path)) == BUILTIN_SCENARIOS["slow-proc"]
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("no-such-thing")

    def test_builtins_are_wellformed(self):
        assert "none" in BUILTIN_SCENARIOS
        for name, scenario in BUILTIN_SCENARIOS.items():
            assert scenario.name == name
            if scenario.time_dependent:
                assert scenario.environment(2, time_scale=100.0) is not None


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestFaultsCli:
    def test_list_scenarios(self):
        from repro.cli import run

        out = run(["faults", "--list-scenarios"])
        for name in BUILTIN_SCENARIOS:
            assert name in out

    def test_unknown_scenario_exits(self):
        from repro.cli import run

        with pytest.raises(SystemExit, match="unknown scenario"):
            run(["faults", "--scenario", "no-such-thing", "--quiet"])

    def test_end_to_end_table(self):
        from repro.cli import run

        out = run(
            [
                "faults",
                "--scenario", "proc-failure",
                "--tasks", "10",
                "--realizations", "20",
                "--instances", "1",
                "--policies", "rerun-static", "repair",
                "--ga-iterations", "4",
                "--ga-population", "6",
                "--seed", "2",
                "--quiet",
            ]
        )
        assert "proc-failure" in out
        assert "rerun-static" in out
        assert "repair" in out
        assert "robust-ga" in out
