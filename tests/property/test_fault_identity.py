"""Property tests: the fault layer is invisible when there are no faults.

The pinned contract (see ``docs/faults.md``): with the empty scenario and
the default ``rerun-static`` policy, :func:`assess_robustness_faulty`
makes exactly the same generator calls as the plain
:func:`assess_robustness` — the realized makespan samples and every
derived metric are **bit-identical**, not merely close.  Likewise every
simulator under a fault-free environment reproduces its plain run
exactly, and every online run, faulty or not, replays exactly through
the static event loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultEnvironment,
    FaultScenario,
    LinkFault,
    OutageFault,
    SlowdownFault,
    TailFault,
    assess_robustness_faulty,
    luck_fractions,
)
from repro.robustness.montecarlo import assess_robustness
from repro.schedule.schedule import Schedule
from repro.sim.dynamic import simulate_dynamic, simulate_semi_dynamic
from repro.sim.eventsim import simulate
from tests.property.strategies import scheduled_problems


def _identical(faulty, plain):
    assert np.array_equal(faulty.realized_makespans, plain.realized_makespans)
    assert faulty.expected_makespan == plain.expected_makespan
    assert faulty.avg_slack == plain.avg_slack
    assert faulty.mean_makespan == plain.mean_makespan
    assert faulty.mean_tardiness == plain.mean_tardiness
    assert faulty.miss_rate == plain.miss_rate
    assert faulty.r1 == plain.r1
    assert faulty.r2 == plain.r2


@settings(max_examples=60, deadline=None)
@given(
    ps=scheduled_problems(max_n=10),
    seed=st.integers(0, 2**31 - 1),
    n_realizations=st.integers(1, 12),
)
def test_zero_fault_assessment_is_bit_identical(ps, seed, n_realizations):
    _, schedule = ps
    plain = assess_robustness(schedule, n_realizations, rng=seed)
    faulty = assess_robustness_faulty(
        schedule, FaultScenario.none(), n_realizations, rng=seed
    )
    _identical(faulty, plain)
    assert faulty.n_failed == 0
    assert faulty.n_tail_outliers == 0
    assert faulty.n_redispatches == 0


@settings(max_examples=40, deadline=None)
@given(ps=scheduled_problems(max_n=10), seed=st.integers(0, 2**31 - 1))
def test_never_firing_tail_fault_changes_nothing(ps, seed):
    """A tail fault with probability 0 consumes its own (post-base) draws
    but replaces no duration — the samples still match the plain path."""
    _, schedule = ps
    scenario = FaultScenario(faults=(TailFault(probability=0.0),))
    plain = assess_robustness(schedule, 6, rng=seed)
    faulty = assess_robustness_faulty(schedule, scenario, 6, rng=seed)
    assert np.array_equal(faulty.realized_makespans, plain.realized_makespans)
    assert faulty.n_tail_outliers == 0


@settings(max_examples=40, deadline=None)
@given(
    ps=scheduled_problems(max_n=10),
    seed=st.integers(0, 2**31 - 1),
    probability=st.floats(0.05, 1.0),
)
def test_tail_faults_only_ever_inflate_makespans(ps, seed, probability):
    """Same base draws + longer tasks ⇒ elementwise domination."""
    _, schedule = ps
    scenario = FaultScenario(faults=(TailFault(probability=probability),))
    plain = assess_robustness(schedule, 6, rng=seed)
    faulty = assess_robustness_faulty(schedule, scenario, 6, rng=seed)
    assert np.all(faulty.realized_makespans >= plain.realized_makespans)


def _support(problem):
    unc = problem.uncertainty
    return unc.bcet, (2.0 * unc.ul - 1.0) * unc.bcet


def _run(sim, problem, schedule, seed, env):
    """One run of *sim*: static replay, semi-dynamic or online MCT."""
    if sim == "static":
        durations = schedule.realize_durations(1, rng=seed)[0]
        return simulate(schedule, durations, env=env)
    if sim == "semi-dynamic":
        durations = schedule.realize_durations(1, rng=seed)[0]
        return simulate_semi_dynamic(
            problem, schedule.proc_of, durations, env=env
        )
    durations = np.random.default_rng(seed).uniform(*_support(problem))
    return simulate_dynamic(problem, durations, env=env)


@pytest.mark.parametrize("sim", ["static", "semi-dynamic", "dynamic"])
@settings(max_examples=60, deadline=None)
@given(ps=scheduled_problems(max_n=10), seed=st.integers(0, 2**31 - 1))
def test_neutral_environment_simulation_is_exact(sim, ps, seed):
    """Every simulator with a fault-free environment equals the same
    simulator without one — same floats, not just close."""
    problem, schedule = ps
    plain = _run(sim, problem, schedule, seed, None)
    neutral = _run(sim, problem, schedule, seed, FaultEnvironment(problem.m))
    assert neutral.makespan == plain.makespan
    assert np.array_equal(neutral.start_times, plain.start_times)
    assert np.array_equal(neutral.finish_times, plain.finish_times)
    if sim != "static":
        assert np.array_equal(neutral.proc_of, plain.proc_of)


@st.composite
def environments(draw, m):
    """``None``, a neutral environment, or one with a single fault window."""
    kind = draw(
        st.sampled_from([None, "neutral", "slowdown", "outage", "failure", "link"])
    )
    if kind is None:
        return None
    p = draw(st.integers(0, m - 1))
    start = draw(st.floats(0.0, 40.0))
    end = start + draw(st.floats(0.5, 40.0))
    factor = draw(st.floats(1.1, 5.0))
    proc_faults = {
        "slowdown": (SlowdownFault(factor=factor, processor=p, start=start, end=end),),
        "outage": (OutageFault(processor=p, start=start, end=end),),
        "failure": (OutageFault(processor=p, start=start),),
    }.get(kind, ())
    link_faults = (LinkFault(factor=factor, start=start, end=end),) if kind == "link" else ()
    return FaultEnvironment(m, proc_faults, link_faults)


def _replay(problem, run, durations, env):
    """The static event loop fed *run*'s processors, each processor's
    tasks in start order, and the durations the run realized there."""
    orders = [[] for _ in range(problem.m)]
    for v in np.lexsort((run.finish_times, run.start_times)):
        orders[int(run.proc_of[v])].append(int(v))
    return simulate(Schedule(problem, orders), durations, env=env)


@settings(max_examples=100, deadline=None)
@given(ps=scheduled_problems(max_n=10), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_online_runs_replay_exactly_through_the_static_loop(ps, seed, data):
    """An online run is a static schedule chosen at runtime: executing its
    final placement and per-processor order with the static simulator
    reproduces every start and finish time, re-dispatches included.
    Runs with a task that never finishes have no finite replay."""
    problem, schedule = ps
    env = data.draw(environments(problem.m))
    idx = np.arange(problem.n)
    low, high = _support(problem)

    assigned = schedule.realize_durations(1, rng=seed)[0]
    semi = simulate_semi_dynamic(problem, schedule.proc_of, assigned, env=env)
    # A re-dispatched task carries its luck fraction to its new processor.
    u = luck_fractions(
        assigned, low[idx, schedule.proc_of], high[idx, schedule.proc_of]
    )
    carried = low + u[:, None] * (high - low)
    carried[idx, schedule.proc_of] = assigned

    full = np.random.default_rng(seed).uniform(low, high)
    mct = simulate_dynamic(problem, full, env=env)

    for run, per_proc in ((semi, carried), (mct, full)):
        if not np.all(np.isfinite(run.finish_times)):
            continue
        replay = _replay(problem, run, per_proc[idx, run.proc_of], env)
        assert np.array_equal(replay.start_times, run.start_times)
        assert np.array_equal(replay.finish_times, run.finish_times)
