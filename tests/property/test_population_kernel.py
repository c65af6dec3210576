"""Property tests: the population GA kernel is bit-exact.

:func:`repro.ga.popeval.evaluate_population` promises results
*bit-identical* to the classic per-individual route
(``Chromosome.decode`` → :func:`repro.schedule.evaluation.evaluate`),
on both its backends (native C kernel and numpy fallback).  These
tests pin that promise with ``array_equal`` — no tolerances — across
arbitrary DAG shapes, including:

* populations of random chromosomes over hypothesis-generated problems;
* the numpy fallback called directly, so the equivalence holds even on
  hosts where the native kernel compiled (and vice versa);
* ``+inf`` durations (infeasible placements): ``inf`` makespans and
  the NaN slack entries that ``inf - inf`` produces must agree across
  backends bit-for-bit (``equal_nan``);
* the ``REPRO_NATIVE=0`` environment opt-out.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome, random_chromosome
from repro.ga.engine import GAParams
from repro.ga.fitness import SlackFitness
from repro.ga.popeval import PopulationEvaluator, _eval_numpy, evaluate_population
from repro.graph import _native
from repro.graph.taskgraph import TaskGraph
from repro.schedule.evaluation import evaluate

from tests.conftest import numpy_backend
from tests.property.strategies import problems
from tests.property.test_native_step import _GivenPopulation


def _population(problem, size: int, seed: int) -> list[Chromosome]:
    rng = np.random.default_rng(seed)
    return [random_chromosome(problem, rng) for _ in range(size)]


def _reference(problem, chromosomes):
    """The classic per-individual route: decode + evaluate."""
    makespans = np.empty(len(chromosomes), dtype=np.float64)
    slacks = np.empty((len(chromosomes), problem.n), dtype=np.float64)
    avg = np.empty(len(chromosomes), dtype=np.float64)
    for i, c in enumerate(chromosomes):
        ev = evaluate(c.decode(problem))
        makespans[i] = ev.makespan
        slacks[i] = ev.slacks
        avg[i] = ev.avg_slack
    return makespans, slacks, avg


def _fallback(problem, chromosomes, dur=None):
    """The numpy backend, called directly regardless of native availability."""
    n = problem.n
    orders = np.stack([c.order for c in chromosomes])
    procs = np.stack([c.proc_of for c in chromosomes])
    if dur is None:
        dur = problem.uncertainty.expected_times
    makespans = np.empty(len(chromosomes), dtype=np.float64)
    slacks = np.empty((len(chromosomes), n), dtype=np.float64)
    _eval_numpy(problem, orders, procs, dur, makespans, slacks)
    return makespans, slacks


@settings(max_examples=100, deadline=None)
@given(problem=problems(max_n=10), seed=st.integers(0, 2**31 - 1))
def test_population_matches_per_individual(problem, seed):
    """Active backend vs decode+evaluate: every metric bit-identical."""
    chromosomes = _population(problem, 8, seed)
    pe = evaluate_population(problem, chromosomes)
    ref_ms, ref_slacks, ref_avg = _reference(problem, chromosomes)
    assert np.array_equal(pe.makespans, ref_ms)
    assert np.array_equal(pe.slack_matrix, ref_slacks)
    assert np.array_equal(pe.avg_slacks, ref_avg)


@settings(max_examples=100, deadline=None)
@given(problem=problems(max_n=10), seed=st.integers(0, 2**31 - 1))
def test_numpy_fallback_matches_per_individual(problem, seed):
    """The fallback is bit-exact too, even where the native kernel runs."""
    chromosomes = _population(problem, 8, seed)
    ms, slacks = _fallback(problem, chromosomes)
    ref_ms, ref_slacks, _ = _reference(problem, chromosomes)
    assert np.array_equal(ms, ref_ms)
    assert np.array_equal(slacks, ref_slacks)


@settings(max_examples=100, deadline=None)
@given(
    problem=problems(max_n=10),
    seed=st.integers(0, 2**31 - 1),
    inf_seed=st.integers(0, 2**31 - 1),
)
def test_backends_agree_on_inf_durations(problem, seed, inf_seed):
    """Infeasible placements: ``inf`` makespans, NaN slacks — bitwise equal.

    ``evaluate`` rejects non-finite durations, so the cross-check here is
    between the two population backends (the fallback *is* the scalar
    reference kernel per individual).  Any individual touching an ``inf``
    duration must report an ``inf`` makespan on both.
    """
    chromosomes = _population(problem, 6, seed)
    rng = np.random.default_rng(inf_seed)
    dur = problem.uncertainty.expected_times.copy()
    mask = rng.random(dur.shape) < 0.3
    dur[mask] = np.inf

    pe = evaluate_population(problem, chromosomes, duration_matrix=dur)
    fb_ms, fb_slacks = _fallback(problem, chromosomes, dur=dur)
    assert np.array_equal(pe.makespans, fb_ms)
    assert np.array_equal(pe.slack_matrix, fb_slacks, equal_nan=True)

    procs = np.stack([c.proc_of for c in chromosomes])
    touches_inf = mask[np.arange(problem.n), procs].any(axis=1)
    assert np.array_equal(np.isinf(pe.makespans), touches_inf)


@st.composite
def _one_violation(draw):
    """A problem, a valid row, and the row with one edge's destination
    moved just before its source: its only violation sits at the first,
    a middle or the last pair of positions, on one processor or on two.

    The drawn graph's ids are a topological order; a random relabelling
    makes that order ``label``, so positions and task ids differ.
    """
    problem = draw(problems(min_n=2, max_n=10))
    n, m = problem.n, problem.m
    k = draw(st.sampled_from([0, (n - 2) // 2, n - 2]))
    label = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    g = problem.graph
    edges = dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), g.edge_data))
    edges.setdefault((k, k + 1), 1.0)
    graph = TaskGraph(
        n, [(label[u], label[v]) for u, v in edges], list(edges.values())
    )
    problem = SchedulingProblem(graph, problem.platform, problem.uncertainty)
    procs = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).integers(
        m, size=n
    )
    source, dest = label[k], label[k + 1]
    same = draw(st.booleans()) or m == 1
    procs[dest] = procs[source] if same else (procs[source] + 1) % m
    swapped = label.copy()
    swapped[[k, k + 1]] = dest, source
    return problem, (label, procs), (swapped, procs.copy())


@settings(max_examples=60, deadline=None)
@given(case=_one_violation())
def test_precedence_is_checked_at_every_position(case):
    """One broken edge anywhere in the string is rejected by the
    population kernel on both backends and by a whole GA run."""
    problem, good, bad = case
    rows = [good, bad, good]
    orders, procs = (np.stack(a) for a in zip(*rows))
    match = "not a topological order"
    engine = _GivenPopulation(
        SlackFitness(), GAParams(population_size=3), 0, rows=rows
    )
    for backend in (contextlib.nullcontext, numpy_backend):
        with backend():
            with pytest.raises(ValueError, match=match):
                PopulationEvaluator(problem).evaluate(orders, procs)
            with pytest.raises(ValueError, match=match):
                engine.run(problem)


def test_repro_native_opt_out_forces_fallback(monkeypatch):
    """``REPRO_NATIVE=0`` routes through numpy and stays bit-exact."""
    from tests.conftest import make_random_problem

    problem = make_random_problem(3, n=20, m=3)
    chromosomes = _population(problem, 10, seed=4)
    before = evaluate_population(problem, chromosomes)

    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_tried", False)
    assert _native.get_lib() is None
    after = evaluate_population(problem, chromosomes)

    assert np.array_equal(after.makespans, before.makespans)
    assert np.array_equal(after.slack_matrix, before.slack_matrix)


def test_empty_population():
    from tests.conftest import make_random_problem

    problem = make_random_problem(5, n=6, m=2)
    pe = evaluate_population(problem, [])
    assert len(pe) == 0
    assert pe.makespans.shape == (0,)
    assert pe.slack_matrix.shape == (0, 6)


class TestValidation:
    """Bad populations are rejected before any kernel runs."""

    def _problem(self):
        from tests.conftest import make_random_problem

        return make_random_problem(6, n=8, m=2)

    def test_rejects_non_permutation(self):
        problem = self._problem()
        good = _population(problem, 1, seed=0)[0]
        bad = Chromosome(order=np.zeros(8, dtype=np.int64), proc_of=good.proc_of)
        with pytest.raises(ValueError, match="not a permutation"):
            evaluate_population(problem, [bad])

    def test_rejects_non_topological_order(self):
        problem = self._problem()
        good = _population(problem, 1, seed=0)[0]
        if problem.graph.edge_src.size == 0:
            pytest.skip("edgeless instance cannot violate precedence")
        bad = Chromosome(order=good.order[::-1].copy(), proc_of=good.proc_of)
        with pytest.raises(ValueError, match="not a topological order"):
            evaluate_population(problem, [bad])

    def test_rejects_out_of_range_processor(self):
        problem = self._problem()
        good = _population(problem, 1, seed=0)[0]
        bad = Chromosome(
            order=good.order, proc_of=np.full(8, problem.m, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="out of range"):
            evaluate_population(problem, [bad])

    @pytest.fixture(params=["native", "numpy"])
    def backend(self, request, monkeypatch):
        if request.param == "native":
            if _native.get_lib() is None:
                pytest.skip("native kernel unavailable")
        else:
            monkeypatch.setattr(_native, "_lib", None)
            monkeypatch.setattr(_native, "_tried", True)
        return request.param

    @pytest.mark.parametrize("bad_id", [-1, 8])
    def test_rejects_task_id_out_of_range(self, backend, bad_id):
        problem = self._problem()
        good = _population(problem, 1, seed=0)[0]
        for at in (0, 7):
            order = good.order.copy()
            order[at] = bad_id
            bad = Chromosome(order=order, proc_of=good.proc_of)
            with pytest.raises(ValueError, match="not a permutation"):
                evaluate_population(problem, [good, bad])

    def test_rejects_negative_processor(self, backend):
        problem = self._problem()
        good = _population(problem, 1, seed=0)[0]
        procs = good.proc_of.copy()
        procs[3] = -1
        bad = Chromosome(order=good.order, proc_of=procs)
        with pytest.raises(ValueError, match="out of range"):
            evaluate_population(problem, [good, bad])

    def test_first_failing_check_wins_across_rows(self, backend):
        """Both backends report the earliest check any row fails, in the
        order processors, permutation, topological order."""
        problem = self._problem()
        good = _population(problem, 1, seed=0)[0]
        not_perm = Chromosome(
            order=np.zeros(8, dtype=np.int64), proc_of=good.proc_of
        )
        bad_proc = Chromosome(
            order=good.order, proc_of=np.full(8, problem.m, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="out of range"):
            evaluate_population(problem, [not_perm, bad_proc])
        if problem.graph.edge_src.size:
            reversed_ = Chromosome(
                order=good.order[::-1].copy(), proc_of=good.proc_of
            )
            with pytest.raises(ValueError, match="not a permutation"):
                evaluate_population(problem, [reversed_, not_perm])
            with pytest.raises(ValueError, match="out of range"):
                evaluate_population(problem, [reversed_, bad_proc])

    @pytest.mark.parametrize(
        "array, value, match",
        [
            ("orders", -1, "not a permutation"),
            ("orders", 8, "not a permutation"),
            ("procs", -1, "out of range"),
            ("procs", 2, "out of range"),
        ],
    )
    def test_native_step_rejects_invalid_rows(self, array, value, match):
        """The native generation step checks every parent row before it
        reads one, and draws nothing from a population it rejects."""
        if _native.get_lib() is None:
            pytest.skip("native kernel unavailable")
        problem = self._problem()
        pop = _population(problem, 3, seed=0)
        for row, col in ((0, 0), (2, 7)):
            arrays = {
                "orders": np.stack([c.order for c in pop]),
                "procs": np.stack([c.proc_of for c in pop]),
            }
            arrays[array][row, col] = value
            gen = np.random.default_rng(0)
            before = gen.bit_generator.state
            with pytest.raises(ValueError, match=match):
                PopulationEvaluator(problem).next_generation(
                    gen,
                    np.zeros(3),
                    arrays["orders"],
                    arrays["procs"],
                    np.empty((3, 8), dtype=np.int64),
                    np.empty((3, 8), dtype=np.int64),
                    0.9,
                    0.1,
                )
            assert gen.bit_generator.state == before

    def test_native_step_rejects_an_empty_mutation_window(self, chain_problem):
        """A reversed chain passes the row checks, but moving its middle
        task has no legal position."""
        if _native.get_lib() is None:
            pytest.skip("native kernel unavailable")
        orders = np.tile(np.array([2, 1, 0], dtype=np.int64), (20, 1))
        procs = np.zeros((20, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="not a topological order"):
            PopulationEvaluator(chain_problem).next_generation(
                np.random.default_rng(0),
                np.zeros(20),
                orders,
                procs,
                np.empty_like(orders),
                np.empty_like(procs),
                0.0,
                1.0,
            )

    def test_rejects_nan_durations(self):
        problem = self._problem()
        pop = _population(problem, 2, seed=0)
        dur = problem.uncertainty.expected_times.copy()
        dur[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN rejected"):
            evaluate_population(problem, pop, duration_matrix=dur)

    def test_rejects_wrong_length_chromosome(self):
        problem = self._problem()
        bad = Chromosome(
            order=np.arange(4, dtype=np.int64),
            proc_of=np.zeros(4, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="covers 4 tasks"):
            evaluate_population(problem, [bad])
