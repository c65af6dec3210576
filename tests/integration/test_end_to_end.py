"""Integration tests: the full pipeline reproduces the paper's core claims
on small instances."""

import numpy as np
import pytest

import repro
from repro.ga.engine import GAParams
from repro.graph.generator import DagParams
from repro.platform.uncertainty import UncertaintyParams


def _problem(seed: int, ul: float = 3.0, n: int = 25):
    return repro.SchedulingProblem.random(
        m=4,
        dag_params=DagParams(n=n, ccr=0.2),
        uncertainty_params=UncertaintyParams(mean_ul=ul),
        rng=seed,
    )


GA = GAParams(max_iterations=150, stagnation_limit=60)


class TestEpsilonConstraintPipeline:
    @pytest.fixture(scope="class")
    def solved(self):
        problem = _problem(11)
        result = repro.RobustScheduler(epsilon=1.0, params=GA, rng=1).solve(problem)
        return problem, result

    def test_constraint_honoured(self, solved):
        _, result = solved
        assert result.expected_makespan <= result.m_heft * (1 + 1e-9)

    def test_slack_not_below_heft(self, solved):
        _, result = solved
        heft_slack = repro.evaluate(result.heft_schedule).avg_slack
        # HEFT seeds the population, so the GA can only match or improve.
        assert result.avg_slack >= heft_slack - 1e-9

    def test_robustness_improves_with_slack(self, solved):
        """The paper's headline: maximizing slack under the makespan bound
        yields equal-or-better robustness than HEFT."""
        _, result = solved
        ga_rep = repro.assess_robustness(result.schedule, 800, rng=2)
        heft_rep = repro.assess_robustness(result.heft_schedule, 800, rng=3)
        if ga_rep.avg_slack > heft_rep.avg_slack * 1.05:
            assert ga_rep.mean_tardiness <= heft_rep.mean_tardiness * 1.05

    def test_ga_history_is_monotone(self, solved):
        _, result = solved
        fitness = result.ga_result.history.best_fitness
        assert all(b >= a - 1e-12 for a, b in zip(fitness, fitness[1:]))

    def test_callers_heft_schedule_gives_the_same_solve(self, solved):
        problem, result = solved
        again = repro.RobustScheduler(epsilon=1.0, params=GA, rng=1).solve(
            problem, heft_schedule=result.heft_schedule
        )
        assert again.heft_schedule is result.heft_schedule
        assert again.m_heft == result.m_heft
        assert np.array_equal(again.schedule.proc_of, result.schedule.proc_of)
        assert again.ga_result.history.best_fitness == (
            result.ga_result.history.best_fitness
        )

    def test_heft_schedule_of_another_problem_is_rejected(self, solved):
        problem, _ = solved
        other = repro.HeftScheduler().schedule(_problem(12))
        with pytest.raises(ValueError, match="problem being solved"):
            repro.RobustScheduler(epsilon=1.0, params=GA, rng=1).solve(
                problem, heft_schedule=other
            )


class TestEpsilonSweepMonotonicity:
    def test_slack_grows_with_epsilon(self):
        problem = _problem(22, ul=4.0)
        slacks = []
        for eps in (1.0, 1.5, 2.0):
            result = repro.RobustScheduler(epsilon=eps, params=GA, rng=9).solve(problem)
            slacks.append(result.avg_slack)
        # Relaxing the budget can only help the slack objective (GA noise
        # aside; require non-strict monotonicity with 5% tolerance).
        assert slacks[1] >= slacks[0] * 0.95
        assert slacks[2] >= slacks[0] * 0.95

    def test_makespan_stays_within_each_budget(self):
        problem = _problem(23, ul=4.0)
        for eps in (1.0, 1.3, 1.7):
            result = repro.RobustScheduler(epsilon=eps, params=GA, rng=4).solve(problem)
            assert result.expected_makespan <= eps * result.m_heft * (1 + 1e-9)


class TestSlackRobustnessCorrelation:
    def test_slack_evolution_improves_r1_on_average(self):
        """Sec. 5.1 / Fig. 3: as the slack-maximizing GA evolves, robustness
        R1 of the incumbent improves along with the slack.  Like the paper,
        the claim is about the instance-pool average (single instances are
        Monte-Carlo noisy), so we aggregate log-ratios over several seeds."""
        from repro.ga.engine import GeneticScheduler
        from repro.ga.fitness import SlackFitness

        params = GAParams(
            max_iterations=150, stagnation_limit=150, seed_heft=False
        )
        r1_log_ratios = []
        slack_log_ratios = []
        for seed in (33, 44, 55, 66):
            problem = _problem(seed, ul=4.0, n=20)
            run = GeneticScheduler(SlackFitness(), params, rng=0).run(problem)
            first = run.history.best_chromosomes[0].decode(problem)
            last = run.history.best_chromosomes[-1].decode(problem)
            rep0 = repro.assess_robustness(first, 600, rng=1)
            rep1 = repro.assess_robustness(last, 600, rng=2)
            slack_log_ratios.append(np.log(rep1.avg_slack / rep0.avg_slack))
            r1_log_ratios.append(np.log(rep1.r1 / rep0.r1))
        assert np.mean(slack_log_ratios) > 0.0
        assert np.mean(r1_log_ratios) > 0.0


class TestSchedulerComparison:
    def test_heft_is_competitive(self):
        """HEFT beats random schedules and is not far behind the GA on
        pure makespan."""
        from repro.ga.fitness import MakespanFitness
        from repro.ga.engine import GeneticScheduler

        problem = _problem(44)
        heft_m = repro.expected_makespan(repro.HeftScheduler().schedule(problem))
        ga = GeneticScheduler(MakespanFitness(), GA, rng=0).run(problem)
        assert ga.best.makespan <= heft_m + 1e-9  # seeded, so never worse
        assert heft_m <= ga.best.makespan * 1.5  # and HEFT is close

    def test_all_schedulers_produce_valid_schedules(self):
        problem = _problem(55)
        for scheduler in (
            repro.HeftScheduler(),
            repro.CpopScheduler(),
            repro.MinMinScheduler(),
            repro.RandomScheduler(0),
        ):
            schedule = scheduler.schedule(problem)
            ev = repro.evaluate(schedule)
            assert ev.makespan > 0
            assert np.all(ev.slacks >= 0)
