"""Unit tests for :mod:`repro.energy` — power, objective, replication."""

import json

import numpy as np
import pytest

from repro.cli import run as cli_run
from repro.core.problem import SchedulingProblem
from repro.energy import (
    REPLICATION_POLICIES,
    EnergyConstraintFitness,
    EnergyScheduler,
    PowerModel,
    build_replication_plan,
    slowest_feasible_freqs,
    verify_survival,
)
from repro.faults import assess_robustness_faulty
from repro.faults.scenario import FaultScenario
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import Population
from repro.ga.popeval import PopulationEvaluator
from repro.graph.generator import DagParams
from repro.heuristics.heft import HeftScheduler
from repro.moop import energy_front
from repro.platform.uncertainty import UncertaintyParams
from repro.schedule.evaluation import evaluate, expected_makespan


def _problem(seed=0, n=24, m=4, ul=2.0):
    return SchedulingProblem.random(
        m=m,
        dag_params=DagParams(n=n),
        uncertainty_params=UncertaintyParams(mean_ul=ul),
        rng=seed,
    )


_PARAMS = GAParams(population_size=10, max_iterations=15, stagnation_limit=8)


def _initial_population(engine, problem):
    """The engine's initial population, evaluated as a run evaluates it."""
    orders, procs = engine._initial_population(problem, None)
    pe = PopulationEvaluator(problem).evaluate(orders, procs)
    return Population(problem, orders, procs, pe.makespans, pe.avg_slacks)


# --------------------------------------------------------------------------- #
# PowerModel
# --------------------------------------------------------------------------- #


class TestPowerModel:
    def test_validation_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="equal length"):
            PowerModel(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match=">= 0"):
            PowerModel(np.array([-1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="idle power"):
            PowerModel(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            PowerModel(np.ones(2), np.zeros(2), freq_levels=(1.5,))
        with pytest.raises(ValueError, match="link_power"):
            PowerModel(np.ones(2), np.zeros(2), link_power=-0.1)

    def test_freq_levels_are_normalized_sorted_with_full_speed(self):
        power = PowerModel(np.ones(2), np.zeros(2), freq_levels=(0.8, 0.6))
        assert power.freq_levels == (0.6, 0.8, 1.0)

    def test_null_and_validate_for(self):
        power = PowerModel.null(3)
        assert power.is_null and power.m == 3
        power.validate_for(3)
        with pytest.raises(ValueError, match="covers 3 processors"):
            power.validate_for(4)

    def test_cubic_power_scaling(self):
        power = PowerModel(np.array([10.0]), np.array([2.0]))
        assert power.power_at(np.array([1.0]))[0] == pytest.approx(10.0)
        assert power.power_at(np.array([0.5]))[0] == pytest.approx(
            2.0 + 8.0 * 0.125
        )

    def test_energy_of_accounts_active_idle_comm(self):
        problem = _problem()
        schedule = HeftScheduler().schedule(problem)
        power = PowerModel.uniform(4, active=2.0, idle=0.5, link_power=1.0)
        breakdown = power.energy_of(schedule)
        busy = np.bincount(
            schedule.proc_of,
            weights=schedule.expected_durations(),
            minlength=4,
        )
        assert np.allclose(breakdown.active, busy * 2.0)
        assert np.allclose(
            breakdown.idle, (breakdown.makespan - busy) * 0.5
        )
        assert breakdown.comm == pytest.approx(
            float(schedule.comm_weights.sum())
        )
        assert breakdown.total == pytest.approx(
            breakdown.active.sum() + breakdown.idle.sum() + breakdown.comm
        )

    def test_dvfs_stretches_durations_and_scales_power(self):
        problem = _problem()
        schedule = HeftScheduler().schedule(problem)
        power = PowerModel.uniform(
            4, active=1.0, idle=0.0, freq_levels=(0.5, 1.0)
        )
        full = power.energy_of(schedule)
        slowed = power.energy_of(schedule, freqs=np.full(4, 0.5))
        # Duration doubles but power drops 8x: active energy quarters.
        assert slowed.active.sum() == pytest.approx(full.active.sum() / 4.0)
        assert slowed.makespan >= full.makespan

    def test_population_energies_matches_energy_of(self):
        problem = _problem()
        power = PowerModel.default(4)
        heft = HeftScheduler().schedule(problem)
        rng = np.random.default_rng(3)
        orders = [heft.linear_order() for _ in range(3)]
        procs = [rng.integers(0, 4, size=problem.n) for _ in range(3)]
        from repro.schedule.schedule import Schedule

        schedules = [
            Schedule.from_assignment(problem, o, p)
            for o, p in zip(orders, procs)
        ]
        proc_of = np.stack([s.proc_of for s in schedules])
        makespans = np.asarray([evaluate(s).makespan for s in schedules])
        pop = power.population_energies(problem, proc_of, makespans)
        singles = [power.energy_of(s).total for s in schedules]
        assert np.allclose(pop, singles, rtol=1e-10)

    def test_energy_of_run_prices_simulated_execution(self):
        from repro.sim.eventsim import simulate

        problem = _problem()
        schedule = HeftScheduler().schedule(problem)
        power = PowerModel.uniform(4, active=1.0, idle=0.0)
        result = simulate(schedule)
        priced = power.energy_of_run(schedule, result)
        assert priced.total == pytest.approx(
            power.energy_of(schedule).total
        )
        busy = result.busy_times(schedule)
        assert busy.sum() == pytest.approx(
            float(schedule.expected_durations().sum())
        )

    def test_to_dict_round_trip(self):
        power = PowerModel.default(4)
        again = PowerModel.from_dict(json.loads(json.dumps(power.to_dict())))
        assert np.array_equal(again.active, power.active)
        assert np.array_equal(again.idle, power.idle)
        assert again.freq_levels == power.freq_levels
        assert again.link_power == power.link_power

    def test_slowest_feasible_freqs_respects_bound_and_saves_energy(self):
        problem = _problem()
        schedule = HeftScheduler().schedule(problem)
        power = PowerModel.default(4)
        bound = 1.5 * expected_makespan(schedule)
        freqs, breakdown = slowest_feasible_freqs(schedule, power, bound)
        assert np.all((freqs > 0.0) & (freqs <= 1.0))
        assert breakdown.makespan <= bound * (1 + 1e-9)
        assert breakdown.total <= power.energy_of(schedule).total
        assert np.any(freqs < 1.0)  # a 1.5x budget leaves room to slow down


# --------------------------------------------------------------------------- #
# EnergyConstraintFitness / EnergyScheduler
# --------------------------------------------------------------------------- #


class TestEnergyObjective:
    def test_fitness_orders_feasible_by_energy(self):
        problem = _problem()
        power = PowerModel.default(4)
        fitness = EnergyConstraintFitness.for_problem(problem, power, 50.0)
        engine = GeneticScheduler(fitness, _PARAMS, rng=0)
        population = _initial_population(engine, problem)
        scores = fitness.scores(population)
        proc_of = population.procs
        makespans = population.makespans
        energies = power.population_energies(problem, proc_of, makespans)
        # eps=50: everything is feasible, so scores are 1/(1+E) exactly.
        assert np.allclose(scores, 1.0 / (1.0 + energies))

    def test_infeasible_scores_sit_below_every_feasible_one(self):
        problem = _problem()
        power = PowerModel.default(4)
        fitness = EnergyConstraintFitness.for_problem(problem, power, 1.0)
        engine = GeneticScheduler(fitness, _PARAMS, rng=0)
        population = _initial_population(engine, problem)
        scores = fitness.scores(population)
        feasible = np.asarray(
            [fitness.is_feasible(m) for m in population.makespans]
        )
        if feasible.any() and (~feasible).any():
            assert scores[~feasible].max() < scores[feasible].min()

    def test_rejects_bad_parameters(self):
        problem = _problem()
        power = PowerModel.default(4)
        with pytest.raises(ValueError, match="epsilon"):
            EnergyConstraintFitness(power, problem, 0.0, 100.0)
        with pytest.raises(ValueError, match="m_heft"):
            EnergyConstraintFitness(power, problem, 1.0, 0.0)
        with pytest.raises(ValueError, match="min_slack"):
            EnergyConstraintFitness(power, problem, 1.0, 100.0, min_slack=-1)
        with pytest.raises(ValueError, match="slack_ratio"):
            EnergyScheduler(slack_ratio=1.5)
        with pytest.raises(ValueError, match="epsilon"):
            EnergyScheduler(epsilon=-1.0)

    def test_scheduler_beats_heft_on_energy_within_budget(self):
        problem = _problem(seed=1, n=30)
        power = PowerModel.default(4)
        result = EnergyScheduler(
            epsilon=1.4, power=power, params=_PARAMS, rng=7, slack_ratio=0.5
        ).solve(problem)
        assert result.feasible
        assert result.expected_makespan <= 1.4 * result.m_heft * (1 + 1e-9)
        assert result.avg_slack >= result.min_slack * (1 - 1e-9)
        assert result.energy <= result.heft_energy * (1 + 1e-9)

    def test_slack_floor_is_recorded_and_enforced(self):
        problem = _problem(seed=2)
        power = PowerModel.default(4)
        result = EnergyScheduler(
            epsilon=1.5, power=power, params=_PARAMS, rng=3, slack_ratio=1.0
        ).solve(problem)
        heft_slack = evaluate(result.heft_schedule).avg_slack
        assert result.min_slack == pytest.approx(heft_slack)
        assert result.avg_slack >= result.min_slack * (1 - 1e-9)

    def test_energy_front_is_non_dominated_and_sorted(self):
        problem = _problem(seed=3)
        front = energy_front(
            problem,
            PowerModel.default(4),
            epsilons=(1.0, 1.3, 1.6),
            params=_PARAMS,
            rng=5,
            slack_ratio=0.5,
        )
        assert len(front.values) >= 1
        assert np.all(np.diff(front.makespans) >= 0)
        obj = front.objectives()
        for i in range(len(obj)):
            for j in range(len(obj)):
                if i != j:
                    assert not (
                        np.all(obj[j] <= obj[i]) and np.any(obj[j] < obj[i])
                    )

    def test_heft_runs_once_per_sweep(self):
        from repro.obs import InMemorySink
        from repro.obs import runtime as obs_runtime

        problem = _problem(seed=3, n=10)
        sink = InMemorySink()
        obs_runtime.enable(sink)
        try:
            energy_front(
                problem,
                PowerModel.default(4),
                epsilons=(1.0, 1.3, 1.6),
                params=GAParams(population_size=8, max_iterations=2),
                rng=5,
            )
        finally:
            obs_runtime.disable()
        spans = sink.spans("algebra.solve")
        assert [s["attrs"]["scheduler"] for s in spans] == ["heft"]

    def test_callers_heft_schedule_gives_the_same_solve(self):
        problem = _problem(seed=1, n=30)
        power = PowerModel.default(4)

        def solve(**kwargs):
            return EnergyScheduler(
                epsilon=1.4, power=power, params=_PARAMS, rng=7, slack_ratio=0.5
            ).solve(problem, **kwargs)

        own = solve()
        given = solve(heft_schedule=own.heft_schedule)
        assert given.heft_schedule is own.heft_schedule
        assert (given.m_heft, given.min_slack) == (own.m_heft, own.min_slack)
        assert np.array_equal(given.schedule.proc_of, own.schedule.proc_of)
        assert given.ga_result.history.best_fitness == (
            own.ga_result.history.best_fitness
        )

    def test_heft_schedule_of_another_problem_is_rejected(self):
        other = HeftScheduler().schedule(_problem(seed=1))
        with pytest.raises(ValueError, match="problem being solved"):
            EnergyScheduler(power=PowerModel.default(4), params=_PARAMS, rng=0).solve(
                _problem(seed=0), heft_schedule=other
            )


# --------------------------------------------------------------------------- #
# Replication
# --------------------------------------------------------------------------- #


class TestReplication:
    def _plan(self, k=1, policy="overlap", seed=0, deadline_factor=4.0):
        problem = _problem(seed=seed)
        schedule = HeftScheduler().schedule(problem)
        deadline = deadline_factor * expected_makespan(schedule)
        return problem, schedule, build_replication_plan(
            problem, schedule, k=k, policy=policy, deadline=deadline
        )

    def test_backups_are_distinct_from_primary_and_each_other(self):
        for k in (1, 2):
            problem, schedule, plan = self._plan(k=k)
            for i in range(problem.n):
                procs = {int(schedule.proc_of[i])} | {
                    int(b) for b in plan.backup_procs[i]
                }
                assert len(procs) == k + 1

    def test_build_validation(self):
        problem = _problem()
        schedule = HeftScheduler().schedule(problem)
        with pytest.raises(ValueError, match="policy"):
            build_replication_plan(
                problem, schedule, policy="bogus", deadline=1.0
            )
        with pytest.raises(ValueError, match="k must be"):
            build_replication_plan(problem, schedule, k=0, deadline=1.0)
        with pytest.raises(ValueError, match="at least 5 processors"):
            build_replication_plan(problem, schedule, k=4, deadline=1.0)
        with pytest.raises(ValueError, match="deadline"):
            build_replication_plan(problem, schedule, k=1, deadline=0.0)

    def test_recovery_schedule_avoids_failed_processors(self):
        problem, schedule, plan = self._plan(k=2)
        for subset in plan.failure_subsets():
            recovery = plan.recovery_schedule(subset)
            assert not np.isin(recovery.proc_of, list(subset)).any()
            assert np.isfinite(evaluate(recovery).makespan)

    def test_recovery_rejects_too_many_failures(self):
        _, _, plan = self._plan(k=1)
        with pytest.raises(ValueError, match="tolerates k=1"):
            plan.recovery_assignment((0, 1))
        with pytest.raises(ValueError, match="out of range"):
            plan.recovery_assignment((99,))

    def test_overlap_reserves_no_more_than_duplicate(self):
        for seed in (0, 1, 2):
            problem, schedule, overlap = self._plan(policy="overlap", seed=seed)
            duplicate = build_replication_plan(
                problem, schedule, k=1, policy="duplicate",
                deadline=overlap.deadline,
            )
            assert np.all(
                overlap.reserved_time() <= duplicate.reserved_time() + 1e-12
            )

    def test_overlap_strictly_beats_duplicate_on_fault_free_energy(self):
        power = PowerModel.default(4)
        for seed in (0, 1, 2):
            problem, schedule, overlap = self._plan(policy="overlap", seed=seed)
            duplicate = build_replication_plan(
                problem, schedule, k=1, policy="duplicate",
                deadline=overlap.deadline,
            )
            e_overlap = overlap.energy(power)
            e_duplicate = duplicate.energy(power)
            assert e_overlap.backup == 0.0
            assert e_duplicate.backup > 0.0
            assert e_overlap.total < e_duplicate.total
            # Same placements: the worst-case recovery bill is shared.
            assert e_overlap.worst_case_backup == pytest.approx(
                e_duplicate.worst_case_backup
            )

    @pytest.mark.parametrize("policy", REPLICATION_POLICIES)
    def test_survival_against_every_single_failure(self, policy):
        """SIGKILL-grade permanent outages on any 1 processor: the backup
        schedule still completes and meets the deadline."""
        _, _, plan = self._plan(policy=policy, deadline_factor=4.0)
        report = verify_survival(plan, n_realizations=8, rng=0)
        assert report.n_subsets == 4
        assert report.survives
        assert report.guaranteed
        assert report.n_missed == 0
        assert report.worst_realized_makespan <= plan.deadline * (1 + 1e-9)
        payload = report.to_dict()
        assert payload["survives"] and payload["guaranteed"]

    def test_survival_k2_with_wider_deadline(self):
        _, _, plan = self._plan(k=2, deadline_factor=8.0)
        report = verify_survival(plan, n_realizations=4, rng=1)
        assert report.n_subsets == 4 + 6
        assert report.survives

    def test_unreplicated_schedule_dies_under_permanent_failure(self):
        """Control: without replication, a permanent failure strands every
        task on the dead processor — the fault model really is lethal."""
        problem = _problem()
        schedule = HeftScheduler().schedule(problem)
        used = np.unique(schedule.proc_of)
        scenario = FaultScenario.processor_failures([int(used[0])])
        assessment = assess_robustness_faulty(schedule, scenario, 4, rng=0)
        assert assessment.n_failed == 4
        assert np.all(np.isinf(assessment.realized_makespans))

    def test_tight_deadline_fails_survival(self):
        _, _, plan = self._plan(deadline_factor=1.0)
        report = verify_survival(plan, n_realizations=4, rng=2)
        assert not report.survives


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


class TestEnergyCli:
    def test_energy_command_smoke(self):
        out = cli_run([
            "energy", "--tasks", "16", "--instances", "1",
            "--realizations", "20", "--replication-realizations", "2",
            "--ga-iterations", "8", "--ga-population", "8",
            "--epsilons", "1.0", "1.4", "--quiet",
        ])
        assert "energy grid" in out
        assert "energy-ga" in out
        assert "replication" in out
        assert "overlap" in out and "duplicate" in out

    def test_energy_command_null_power_skip_replication(self):
        out = cli_run([
            "energy", "--tasks", "12", "--power", "null", "--k", "0",
            "--realizations", "10", "--ga-iterations", "5",
            "--ga-population", "6", "--epsilons", "1.2", "--quiet",
        ])
        assert "power=null" in out
        assert "replication" not in out

    def test_energy_command_rejects_bad_slack_ratio(self):
        with pytest.raises(SystemExit, match="slack-ratio"):
            cli_run(["energy", "--slack-ratio", "2.0"])
