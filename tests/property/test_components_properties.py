"""Property tests for serialization, heuristics, Clark and the dynamic
baseline over arbitrary problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import (
    CpopScheduler,
    HeftScheduler,
    MinMinScheduler,
    PeftScheduler,
)
from repro.io.json_io import (
    problem_from_dict,
    problem_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.robustness.clark import clark_makespan
from repro.schedule.evaluation import evaluate
from repro.sim.dynamic import simulate_dynamic
from tests.property.strategies import problems, scheduled_problems


@settings(max_examples=60, deadline=None)
@given(problem=problems(max_n=10))
def test_problem_json_roundtrip(problem):
    back = problem_from_dict(problem_to_dict(problem))
    assert back.graph == problem.graph
    assert np.array_equal(back.uncertainty.bcet, problem.uncertainty.bcet)
    assert np.array_equal(back.uncertainty.ul, problem.uncertainty.ul)
    assert np.array_equal(
        back.platform.transfer_rates, problem.platform.transfer_rates
    )


@settings(max_examples=60, deadline=None)
@given(ps=scheduled_problems(max_n=10))
def test_schedule_json_roundtrip(ps):
    problem, schedule = ps
    back = schedule_from_dict(schedule_to_dict(schedule), problem)
    assert back == schedule
    assert np.isclose(evaluate(back).makespan, evaluate(schedule).makespan)


@settings(max_examples=50, deadline=None)
@given(problem=problems(max_n=10))
def test_every_list_scheduler_produces_valid_schedules(problem):
    """HEFT/CPOP/PEFT/min-min must handle arbitrary DAG/platform shapes."""
    for scheduler in (
        HeftScheduler(),
        CpopScheduler(),
        PeftScheduler(),
        MinMinScheduler(),
    ):
        schedule = scheduler.schedule(problem)
        ev = evaluate(schedule)
        assert ev.makespan > 0
        assert np.all(ev.slacks >= 0)
        # Partition check.
        assert sorted(
            int(v) for tasks in schedule.proc_orders for v in tasks
        ) == list(range(problem.n))


@settings(max_examples=50, deadline=None)
@given(ps=scheduled_problems(max_n=8))
def test_clark_bounds_sane(ps):
    """Analytic moments: mean >= expected-duration makespan of any single
    path is hard to check; instead verify basic sanity — nonnegative std,
    mean at least the best-case makespan, and exactness for deterministic
    problems (UL can't be 1 in the strategy, so compare against the
    expected-duration makespan as a lower-ish anchor within tolerance)."""
    _, schedule = ps
    est = clark_makespan(schedule)
    assert est.std >= 0.0
    assert np.all(est.completion_vars >= 0.0)
    # The analytic mean can never fall below the makespan computed from
    # the per-task *mean* durations by more than numerical tolerance
    # (Jensen: E[max] >= max of expectations).
    mean_durations = 0.5 * np.add(
        *schedule.problem.uncertainty.duration_bounds(schedule.proc_of)
    )
    anchor = evaluate(schedule, mean_durations).makespan
    assert est.mean >= anchor - 1e-6 * max(anchor, 1.0)


@settings(max_examples=50, deadline=None)
@given(problem=problems(max_n=10))
def test_dynamic_policy_constraints(problem):
    """The online policy respects precedence + comm + processor exclusivity
    for arbitrary problems and its expected-duration run."""
    run = simulate_dynamic(problem, problem.expected_times)
    graph = problem.graph
    platform = problem.platform
    tol = 1e-7 * max(run.makespan, 1.0)
    for u, v, d in graph.edges():
        arrival = run.finish_times[u] + platform.comm_time(
            d, int(run.proc_of[u]), int(run.proc_of[v])
        )
        assert run.start_times[v] >= arrival - tol
    for p in range(problem.m):
        tasks = np.flatnonzero(run.proc_of == p)
        order = tasks[np.argsort(run.start_times[tasks])]
        for a, b in zip(order[:-1], order[1:]):
            assert run.start_times[b] >= run.finish_times[a] - tol


@settings(max_examples=40, deadline=None)
@given(ps=scheduled_problems(max_n=10), width=st.integers(12, 100))
def test_gantt_renders_any_schedule(ps, width):
    from repro.schedule.gantt import render_gantt

    problem, schedule = ps
    chart = render_gantt(schedule, width=width)
    lines = chart.splitlines()
    assert len(lines) == problem.m + 1
    for line in lines[:-1]:
        assert len(line) == len("Pxx|") + width + 1
