"""The native generation step runs the same GA as the Python loop.

With the native library, the paper's operators and one of the paper's
three policies, ``GeneticScheduler.run`` runs its generations through
``ga_run_steps`` (:class:`repro.ga.popeval.NativeRun`): one call for the
whole run untraced, one call per generation traced.  The Python loop on
the numpy backend is its reference: every ``GAHistory`` series, every
incumbent's rows, the best individual and its fitness, the generation
count and the stop reason must be equal bit for bit — ``inf`` and NaN
from ``+inf`` durations included — and a run the reference rejects must
raise the same error.

The step's numpy semantics (``ndarray.mean``, ``argmax`` and
``argmin``) are exported as ``np_mean``, ``np_argmax`` and ``np_argmin``
and held to numpy directly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.problem import SchedulingProblem
from repro.energy import EnergyConstraintFitness, PowerModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_problem
from repro.ga import engine as engine_module
from repro.ga.chromosome import random_chromosome
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    MakespanFitness,
    SlackFitness,
)
from repro.ga.popeval import NativeRun, PopulationEvaluator
from repro.ga.variants import adjacent_swap_mutation
from repro.graph import _native
from repro.graph.taskgraph import TaskGraph
from repro.moop.weighted_sum import WeightedSumFitness
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel
from tests.conftest import make_random_problem, numpy_backend
from tests.property.strategies import problems

pytestmark = pytest.mark.skipif(
    _native.get_lib() is None, reason="native kernel unavailable"
)

#: ε multipliers: every row feasible, a mixed population, none feasible.
EPSILONS = {"eps-all": 50.0, "eps-mixed": 1.1, "eps-none": 0.3}


def _fitness(policy: str, problem: SchedulingProblem):
    if policy == "makespan":
        return MakespanFitness()
    if policy == "slack":
        return SlackFitness()
    return EpsilonConstraintFitness.for_problem(problem, EPSILONS[policy])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _outcome(make_engine, problem, *, traced=False):
    """Everything a run reports, as bytes; or the error it raised."""
    if traced:
        obs.enable(obs.InMemorySink())
    try:
        result = make_engine().run(problem)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    finally:
        if traced:
            obs.disable()
    h = result.history
    return (
        [
            _bits(series)
            for series in (
                h.best_fitness,
                h.best_makespan,
                h.best_slack,
                h.mean_fitness,
                h.diversity,
            )
        ],
        [c.key() for c in h.best_chromosomes],
        _bits([result.best_fitness, result.best.makespan, result.best.avg_slack]),
        result.best.chromosome.key(),
        result.generations,
        result.stop_reason,
    )


def _assert_backends_agree(make_engine, problem, *, native_step=True):
    taken = []
    start = engine_module.NativeRun.__init__

    def spy(self, *args, **kwargs):
        taken.append(True)
        start(self, *args, **kwargs)

    engine_module.NativeRun.__init__ = spy
    try:
        native = _outcome(make_engine, problem)
        with numpy_backend():
            reference = _outcome(make_engine, problem)
    finally:
        engine_module.NativeRun.__init__ = start
    assert bool(taken) == native_step
    assert native == reference
    return native


def _with_inf(problem: SchedulingProblem, cells: list[tuple[int, int]]):
    """The problem's expected times with ``+inf`` at *cells*."""
    dur = np.array(problem.uncertainty.expected_times, dtype=np.float64)
    for task, proc in cells:
        dur[task % problem.n, proc % problem.m] = np.inf
    return dur


@settings(max_examples=80, deadline=None)
@given(
    problem=problems(min_n=1, max_n=9),
    policy=st.sampled_from(["makespan", "slack", *EPSILONS]),
    population=st.sampled_from([2, 3, 4, 5, 7, 8]),
    pc=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    pm=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    max_iterations=st.integers(1, 25),
    stagnation=st.integers(1, 6),
    seed_heft=st.booleans(),
    inf_cells=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)), max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_native_step_matches_the_python_loop(
    problem,
    policy,
    population,
    pc,
    pm,
    max_iterations,
    stagnation,
    seed_heft,
    inf_cells,
    seed,
):
    params = GAParams(
        population_size=population,
        crossover_prob=pc,
        mutation_prob=pm,
        max_iterations=max_iterations,
        stagnation_limit=stagnation,
        seed_heft=seed_heft,
    )
    fitness = _fitness(policy, problem)
    duration_matrix = _with_inf(problem, inf_cells) if inf_cells else None
    _assert_backends_agree(
        lambda: GeneticScheduler(
            fitness, params, seed, duration_matrix=duration_matrix
        ),
        problem,
    )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("policy", ["makespan", "slack", *EPSILONS])
def test_native_step_on_one_and_two_tasks(n, policy):
    for seed in range(10):
        problem = make_random_problem(seed, n=n, m=2)
        params = GAParams(
            population_size=2 + seed % 4,
            mutation_prob=0.5,
            max_iterations=20,
            stagnation_limit=1 + seed % 5,
        )
        fitness = _fitness(policy, problem)
        _assert_backends_agree(
            lambda: GeneticScheduler(fitness, params, seed), problem
        )


def test_native_step_runs_the_paper_policies_only():
    """Exact policy types and the paper's operators take the step; a
    policy subclass, another policy or an operator override does not."""
    problem = make_random_problem(3, n=8)
    params = GAParams(max_iterations=15, stagnation_limit=5)

    class Subclassed(SlackFitness):
        pass

    _assert_backends_agree(
        lambda: GeneticScheduler(Subclassed(), params, 1), problem, native_step=False
    )
    _assert_backends_agree(
        lambda: GeneticScheduler(
            WeightedSumFitness.for_problem(problem, 0.5), params, 1
        ),
        problem,
        native_step=False,
    )
    _assert_backends_agree(
        lambda: GeneticScheduler(
            MakespanFitness(), params, 1, mutation_fn=adjacent_swap_mutation
        ),
        problem,
        native_step=False,
    )


def test_all_infinite_durations():
    """Every makespan ``inf``: scores 0 (makespan), NaN (slack) or the
    violation form (ε), and nothing ever improves."""
    problem = make_random_problem(5, n=7, m=2)
    dur = np.full((problem.n, problem.m), np.inf)
    params = GAParams(population_size=5, max_iterations=12, stagnation_limit=4)
    for policy in ("makespan", "slack", *EPSILONS):
        fitness = _fitness(policy, problem)
        outcome = _assert_backends_agree(
            lambda: GeneticScheduler(fitness, params, 2, duration_matrix=dur),
            problem,
        )
        assert outcome[-1] == "stagnation"


def test_zero_makespan_raises_like_the_reference():
    """``MakespanFitness`` divides by the makespan: zero durations and no
    edges raise Python's ``ZeroDivisionError`` on both backends."""
    graph = TaskGraph(3, [], [])
    problem = SchedulingProblem(
        graph,
        Platform(2),
        UncertaintyModel(np.ones((3, 2)), np.full((3, 2), 2.0)),
    )
    outcome = _assert_backends_agree(
        lambda: GeneticScheduler(
            MakespanFitness(), GAParams(max_iterations=5), 0,
            duration_matrix=np.zeros((3, 2)),
        ),
        problem,
    )
    assert outcome == (ZeroDivisionError, "float division by zero")


class _GivenPopulation(GeneticScheduler):
    """Engine whose initial population is supplied whole, as
    ``island._SeededEngine`` supplies its migrants."""

    def __init__(self, *args, rows, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rows = rows

    def _initial_population(self, problem, heft_schedule):
        orders, procs = zip(*self._rows)
        return np.array(orders), np.array(procs)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda o, p, n, m: p.__setitem__(0, m), "out of range"),
        (lambda o, p, n, m: p.__setitem__(n - 1, -1), "out of range"),
        (lambda o, p, n, m: o.__setitem__(0, o[1]), "not a permutation"),
        (lambda o, p, n, m: o.__setitem__(0, n), "not a permutation"),
        (lambda o, p, n, m: o.__setitem__(slice(None), o[::-1].copy()),
         "not a topological order"),
    ],
    ids=["proc-m", "proc-negative", "duplicate", "task-n", "reversed"],
)
def test_invalid_initial_rows_raise_the_reference_error(corrupt, match):
    problem = make_random_problem(4, n=8, m=2)
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(5):
        c = random_chromosome(problem, rng)
        rows.append((c.order.copy(), c.proc_of.copy()))
    corrupt(*rows[3], problem.n, problem.m)
    fitness = EpsilonConstraintFitness.for_problem(problem, 1.2)
    outcome = _assert_backends_agree(
        lambda: _GivenPopulation(
            fitness, GAParams(population_size=5), 0, rows=rows
        ),
        problem,
    )
    assert outcome[0] is ValueError
    assert match in outcome[1]


def test_short_initial_rows_raise_the_reference_error():
    problem = make_random_problem(4, n=8, m=2)
    rows = [(np.arange(7), np.zeros(7, dtype=np.int64))] * 3
    outcome = _assert_backends_agree(
        lambda: _GivenPopulation(SlackFitness(), GAParams(), 0, rows=rows),
        problem,
        native_step=False,
    )
    assert outcome[0] is ValueError


def test_duplicate_initial_rows():
    """Two tasks on two processors have fewer distinct rows than the
    paper's population: the initial population repeats rows."""
    problem = make_random_problem(9, n=2, m=2)
    params = replace(GAParams(), max_iterations=30, stagnation_limit=30)
    _assert_backends_agree(
        lambda: GeneticScheduler(SlackFitness(), params, 3), problem
    )


@pytest.mark.parametrize("population", [19, 20])
@pytest.mark.parametrize("policy", ["makespan", "slack", "eps-mixed"])
def test_converged_runs_match_the_python_loop(policy, population):
    """A paper-sized run into its converged state, where about half the
    children are copies of a parent and the diversity sits near 0.26: a
    ``medium`` instance, 300 generations, the stagnation stop off.  An
    odd population copies its leftover row through."""
    problem = make_problem(ExperimentConfig(scale="medium", seed=1), 2.0, 0)
    params = GAParams(
        population_size=population, max_iterations=300, stagnation_limit=300
    )
    fitness = _fitness(policy, problem)
    outcome = _assert_backends_agree(
        lambda: GeneticScheduler(fitness, params, 1), problem
    )
    assert outcome[-2] == 300


def test_huge_iteration_cap_stops_on_stagnation():
    """The history is sized by the generations run, not by the cap: a
    run capped at 10**11 generations stops on stagnation on both
    backends."""
    problem = make_random_problem(12, n=12)
    params = GAParams(max_iterations=10**11, stagnation_limit=5)
    fitness = EpsilonConstraintFitness.for_problem(problem, 1.1)
    outcome = _assert_backends_agree(
        lambda: GeneticScheduler(fitness, params, 0), problem
    )
    assert outcome[-1] == "stagnation"


def test_history_grows_twice():
    """3,000 generations cross two growths of the history (1,025, then
    2,050, then 3,001 columns)."""
    problem = make_random_problem(13, n=8, m=2)
    params = GAParams(population_size=6, max_iterations=3000, stagnation_limit=3000)
    outcome = _assert_backends_agree(
        lambda: GeneticScheduler(SlackFitness(), params, 5), problem
    )
    assert outcome[-2:] == (3000, "max_iterations")


def _advance_calls(monkeypatch) -> list[tuple[int, int]]:
    """Record the generation spans ``NativeRun.advance`` is called with."""
    calls = []
    advance = NativeRun.advance

    def spy(self, g, g_end):
        calls.append((g, g_end))
        return advance(self, g, g_end)

    monkeypatch.setattr(NativeRun, "advance", spy)
    return calls


def _assert_one_call_matches_per_generation(monkeypatch, make_engine, problem):
    """Untraced, one ``advance`` call runs the whole GA; traced, one call
    per generation.  Both report what the numpy backend reports, traced
    or not."""
    calls = _advance_calls(monkeypatch)
    whole = _outcome(make_engine, problem)
    assert calls == [(0, make_engine().params.max_iterations + 1)]
    calls.clear()
    per_generation = _outcome(make_engine, problem, traced=True)
    generations = whole[-2]
    assert calls == [(g, g + 1) for g in range(generations + 1)]
    assert per_generation == whole
    with numpy_backend():
        assert _outcome(make_engine, problem) == whole
        assert _outcome(make_engine, problem, traced=True) == whole
    return whole


@pytest.mark.parametrize("policy", ["makespan", "slack", *EPSILONS])
def test_one_call_runs_the_whole_ga(monkeypatch, policy):
    problem = make_random_problem(7, n=10, m=3)
    fitness = _fitness(policy, problem)
    for limit, stop in ((4, "stagnation"), (60, "max_iterations")):
        params = GAParams(population_size=6, max_iterations=50, stagnation_limit=limit)
        outcome = _assert_one_call_matches_per_generation(
            monkeypatch, lambda: GeneticScheduler(fitness, params, 3), problem
        )
        assert outcome[-1] == stop


@pytest.mark.parametrize("limit", [1024, 1025])
@pytest.mark.parametrize("policy", ["makespan", "slack", *EPSILONS])
def test_stagnation_stop_at_the_history_edge(monkeypatch, policy, limit):
    """Nothing improves under all-``+inf`` durations: the run stops after
    generation *limit*, the last column of the first 1,025-column history
    block (1024) or the first column after the history grows (1025),
    whether one call runs it or one call per generation does."""
    problem = make_random_problem(5, n=5, m=2)
    dur = np.full((problem.n, problem.m), np.inf)
    params = GAParams(population_size=3, max_iterations=3000, stagnation_limit=limit)
    fitness = _fitness(policy, problem)
    outcome = _assert_one_call_matches_per_generation(
        monkeypatch,
        lambda: GeneticScheduler(fitness, params, 2, duration_matrix=dur),
        problem,
    )
    assert outcome[-2:] == (limit, "stagnation")


def _native_run(problem, orders, procs, *, max_generations=3000, rng=None):
    return NativeRun(
        PopulationEvaluator(problem),
        np.random.default_rng(0) if rng is None else rng,
        "slack",
        0.0,
        0.0,
        orders,
        procs,
        0.9,
        0.1,
        max_generations,
        stagnation_limit=max_generations,
    )


def _rows(problem, count=4):
    rng = np.random.default_rng(0)
    pop = [random_chromosome(problem, rng) for _ in range(count)]
    return np.stack([c.order for c in pop]), np.stack([c.proc_of for c in pop])


def test_step_rejects_a_generation_outside_the_history():
    problem = make_random_problem(6, n=6, m=2)
    run = _native_run(problem, *_rows(problem), max_generations=3)
    run.advance(0, 1)
    for g, g_end in ((-1, 0), (4, 5), (3, 5), (2, 2)):
        with pytest.raises(IndexError):
            run.advance(g, g_end)


def test_step_grows_the_history_for_any_generation():
    """A generation past the history's end grows it and the incumbent
    log, also when it skips columns, and never beyond the cap; earlier
    columns and log rows are kept."""
    problem = make_random_problem(6, n=6, m=2)
    run = _native_run(problem, *_rows(problem), max_generations=4000)
    run.advance(0, 1)
    assert run.hist.shape == (6, 1025)
    first, incumbent = run.hist[:, 0].copy(), run.log.copy()
    assert incumbent.shape == (2, 1, 6)
    run.advance(2500, 2501)
    assert run.hist.shape == (6, 2501)
    assert _bits(run.hist[:, 0]) == _bits(first)
    assert np.array_equal(run.log[:, :1], incumbent)
    assert 0.0 < run.hist[4, 2500] <= 1.0  # the diversity landed in place
    run.advance(2501, 2502)
    assert run.hist.shape == (6, 4001)
    assert 0.0 < run.hist[4, 2501] <= 1.0
    assert np.array_equal(run.log[:, :1], incumbent)


def test_a_generation_before_generation_0_draws_nothing():
    """Both run states refuse a later generation before generation 0 with
    the same error, before they draw anything."""
    problem = make_random_problem(6, n=6, m=2)
    orders, procs = _rows(problem)
    engine = GeneticScheduler(SlackFitness(), GAParams(population_size=4), 0)
    native_rng = np.random.default_rng(0)
    native = _native_run(problem, orders, procs, rng=native_rng)
    python = engine_module._PythonRun(
        engine, PopulationEvaluator(problem), orders, procs
    )
    for run, rng in ((native, native_rng), (python, engine._rng)):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^generation 0 has not run$"):
            run.advance(1, 2)
        assert rng.bit_generator.state == state
        assert run.advance(0, 2) == 1  # the run is intact


def test_the_run_owns_every_row_it_trusts():
    """``NativeRun`` copies the caller's rows, and its incumbent log is
    read-only: writes from outside reach nothing the kernel reads."""
    problem = make_random_problem(0, n=12, m=3)
    orders, procs = _rows(problem)
    reference = _native_run(problem, orders.copy(), procs.copy())
    reference.advance(0, 40)
    run = _native_run(problem, orders, procs)
    run.advance(0, 1)
    procs[:] = problem.m  # out of range
    orders[:] = orders[:, ::-1]  # not a topological order
    run.advance(1, 40)
    assert _bits(run.hist[:, :40]) == _bits(reference.hist[:, :40])
    assert np.array_equal(run.log, reference.log)
    log = run.log
    assert log.shape[1] > 1 and not log.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        log[0, -1, 0] = problem.n  # the incumbent's first task
    with pytest.raises(ValueError):
        log.flags.writeable = True
    run.advance(40, 60)
    reference.advance(40, 60)
    assert np.array_equal(run.log, reference.log)


# ---------------------------------------------------------------------- #
# Traced telemetry
# ---------------------------------------------------------------------- #

#: The convergence attributes of a ``ga.generation`` span.
SPAN_KEYS = (
    "best_fitness",
    "mean_fitness",
    "best_makespan",
    "diversity",
    "improved",
    "feasible_fraction",
)


def _telemetry(fitness, problem):
    """One traced 40-generation run: every ``ga.generation`` span's
    convergence attributes, and the ``ga.*`` and population-kernel
    counters."""
    params = GAParams(max_iterations=40, stagnation_limit=40)
    sink = obs.InMemorySink()
    obs.enable(sink)
    try:
        GeneticScheduler(fitness, params, 4).run(problem)
    finally:
        obs.disable()
    spans = [
        {k: v for k, v in span["attrs"].items() if k in SPAN_KEYS}
        for span in sink.spans("ga.generation")
    ]
    counters = {
        r["name"]: r["value"]
        for r in sink.records
        if r["type"] == "counter"
        and r["name"].startswith(("ga.", "kernel.ga_population."))
    }
    return spans, counters


@pytest.mark.parametrize("policy", ["eps-mixed", "makespan", "slack", "energy"])
def test_traced_telemetry_matches_across_backends(policy):
    """Either step reports the same spans and counters: the native step
    for the paper's policies, the Python step for the energy policy on
    both backends."""
    problem = make_random_problem(21, n=14, m=3)
    if policy == "energy":
        fitness = EnergyConstraintFitness.for_problem(
            problem, PowerModel.default(problem.m), 1.05, slack_ratio=0.5
        )
    else:
        fitness = _fitness(policy, problem)
    native_spans, native_counters = _telemetry(fitness, problem)
    with numpy_backend():
        spans, counters = _telemetry(fitness, problem)
    assert len(spans) == 40
    assert native_spans == spans
    # Only the Python step calls the population kernel.
    assert ("kernel.ga_population.native" in native_counters) == (policy == "energy")
    assert counters.pop("kernel.ga_population.numpy") > 0
    native_counters.pop("kernel.ga_population.native", None)
    assert native_counters == counters
    assert counters["ga.generations"] == 40
    assert counters["ga.crossovers"] > 0 and counters["ga.mutations"] > 0
    fractions = [span.get("feasible_fraction") for span in spans]
    if policy in ("eps-mixed", "energy"):
        assert any(0.0 < f < 1.0 for f in fractions)
    else:
        assert fractions == [None] * 40


# ---------------------------------------------------------------------- #
# numpy's reductions in C
# ---------------------------------------------------------------------- #

#: Values that tie, compare false (NaN), sit at either infinity, or
#: differ only in the sign of zero; large magnitudes expose the order of
#: the additions.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e16, -1e16, np.inf, -np.inf, np.nan]


def _samples(n: int, rng: np.random.Generator):
    yield rng.standard_normal(n) * 10.0 ** rng.integers(-8, 18, n)
    yield rng.choice(SPECIAL, n)
    yield rng.choice([0.0, -0.0], n)
    yield np.full(n, -0.0)  # sums to -0.0: only the 0.0 identity makes it +0.0
    yield rng.choice([1.0, 2.0], n)
    finite = rng.uniform(-1.0, 1.0, n)
    finite[rng.integers(n)] = np.nan
    yield finite


def test_native_reductions_match_numpy():
    lib = _native.get_lib()
    rng = np.random.default_rng(2024)
    for n in range(1, 301):
        for a in _samples(n, rng):
            a = np.ascontiguousarray(a, dtype=np.float64)
            ptr = a.ctypes.data
            with np.errstate(invalid="ignore"):
                expected = float(a.mean())
            mean = lib.np_mean(ptr, n)
            if np.isnan(expected):
                assert np.isnan(mean), (n, a)
            else:
                assert _bits(mean) == _bits(expected), (n, a)
            assert lib.np_argmax(ptr, n) == int(np.argmax(a)), (n, a)
            assert lib.np_argmin(ptr, n) == int(np.argmin(a)), (n, a)
