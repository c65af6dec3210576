"""Unit tests for repro.algebra: axes, catalogue, grid, CLI, service."""

import numpy as np
import pytest

from repro.algebra import (
    ALGEBRA_SOLVERS,
    CATALOGUE,
    INSERTIONS,
    LEGACY_EQUIVALENTS,
    MONOTONE_RANKINGS,
    ORDERS,
    RANKINGS,
    SELECTIONS,
    Components,
    ComponentScheduler,
    component_scheduler,
    rank_context,
)
from repro.cli import ALGO_FAMILIES, run as cli_run
from repro.core.problem import SchedulingProblem
from repro.experiments.algo_grid import FAMILIES, family_graph, run_algo_grid
from repro.graph.generator import DagParams
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.base import PartialSchedule
from repro.obs import InMemorySink
from repro.obs import runtime as obs_runtime
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel, UncertaintyParams


def _problem(seed=0, n=24, m=4, ul=2.0):
    return SchedulingProblem.random(
        m=m,
        dag_params=DagParams(n=n),
        uncertainty_params=UncertaintyParams(mean_ul=ul),
        rng=seed,
    )


def _chain_problem():
    """0 -> 1 plus a free task 2, two processors, deterministic times.

    Placing 0 on proc 0 and 1 on proc 1 leaves an idle prefix gap on
    proc 1 (communication delay) that only the insertion policy may
    fill.
    """
    graph = TaskGraph(3, [(0, 1)], [50.0])
    times = np.array([[5.0, 5.0], [4.0, 4.0], [1.0, 1.0]])
    return SchedulingProblem(
        graph=graph,
        platform=Platform(2),
        uncertainty=UncertaintyModel.deterministic(times),
        name="chain",
    )


class TestComponentsValidation:
    def test_defaults_are_heft(self):
        comps = Components()
        assert comps.spec == "upward/eft/insertion/static"
        assert CATALOGUE["heft"] == comps

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ranking": "nope"},
            {"selection": "nope"},
            {"insertion": "nope"},
            {"order": "nope"},
        ],
    )
    def test_unknown_axis_member_rejected(self, kwargs):
        with pytest.raises(ValueError, match="unknown"):
            Components(**kwargs)

    @pytest.mark.parametrize("ranking", sorted(set(RANKINGS) - MONOTONE_RANKINGS))
    def test_non_monotone_ranking_cannot_drive_static_order(self, ranking):
        selection = {"cp": "pinned", "oct": "oct"}.get(ranking, "eft")
        with pytest.raises(ValueError, match="not monotone"):
            Components(ranking, selection, "insertion", "static")

    def test_pinned_requires_cp_ranking(self):
        with pytest.raises(ValueError, match="critical-path"):
            Components("upward", "pinned", "insertion", "ready")

    def test_oct_selection_requires_oct_ranking(self):
        with pytest.raises(ValueError, match="optimistic cost table"):
            Components("upward", "oct", "insertion", "ready")

    def test_quantile_bounds(self):
        with pytest.raises(ValueError, match="q must be"):
            Components("upward", "padded", "insertion", "static", q=1.5)

    def test_spec_encodes_quantile_and_seed(self):
        padded = Components("upward", "padded", "insertion", "static", q=0.75)
        assert padded.spec == "upward/padded@q0.75/insertion/static"
        seeded = Components("random", "eft", "insertion", "ready", seed=7)
        assert seeded.spec == "random/eft@s7/insertion/ready"


class TestRankings:
    def test_blevels_decrease_along_every_edge(self):
        problem = _problem(seed=3, n=30)
        rank = rank_context(Components("blevel"), problem).priorities
        graph = problem.graph
        for u, v in zip(graph.edge_src, graph.edge_dst):
            assert rank[int(u)] > rank[int(v)]

    def test_random_ranking_is_deterministic_per_seed_and_size(self):
        problem = _problem(seed=1, n=20)
        comps = Components("random", "eft", "insertion", "ready", seed=5)
        a = rank_context(comps, problem).priorities
        b = rank_context(comps, problem).priorities
        assert np.array_equal(a, b)
        assert sorted(a.tolist()) == list(map(float, range(problem.n)))
        other = Components("random", "eft", "insertion", "ready", seed=6)
        assert not np.array_equal(
            a, rank_context(other, problem).priorities
        )

    def test_cp_context_has_pinning_info(self):
        problem = _problem(seed=2, n=15)
        ctx = rank_context(CATALOGUE["cpop"], problem)
        assert ctx.cp_tasks
        assert 0 <= ctx.cp_proc < problem.m

    def test_oct_context_has_table(self):
        problem = _problem(seed=2, n=15)
        ctx = rank_context(CATALOGUE["peft"], problem)
        assert ctx.oct_table is not None
        assert ctx.oct_table.shape == (problem.n, problem.m)


class TestInsertionPolicy:
    def test_append_only_refuses_the_gap_insertion_fills(self):
        problem = _chain_problem()
        for append_only, expect_gap_fill in ((False, True), (True, False)):
            partial = PartialSchedule(problem, append_only=append_only)
            partial.place(0, 0)
            partial.place(1, 1)  # comm delay leaves an idle prefix on 1
            assert partial.slots[1][0].start > 0.0  # there is a gap to fill
            start, _ = partial.eft(2, 1)
            if expect_gap_fill:
                assert start == 0.0
            else:
                assert start == partial.slots[1][-1].finish

    def test_unplace_is_exact_inverse_of_place(self):
        problem = _problem(seed=4, n=12, m=3)
        partial = PartialSchedule(problem)
        order = [int(v) for v in problem.graph.topological]
        for v in order[:-1]:
            partial.place(v, v % problem.m)
        before = (
            [[(s.start, s.finish, s.task) for s in row] for row in partial.slots],
            partial.finish_time.copy(),
            partial.proc_of.copy(),
        )
        last = order[-1]
        partial.place(last, 0)
        partial.unplace(last)
        assert before[0] == [
            [(s.start, s.finish, s.task) for s in row] for row in partial.slots
        ]
        assert np.array_equal(
            before[1], partial.finish_time, equal_nan=True
        )
        assert np.array_equal(before[2], partial.proc_of)

    def test_unplace_unplaced_task_rejected(self):
        partial = PartialSchedule(_problem(seed=4, n=5))
        with pytest.raises(ValueError, match="not placed"):
            partial.unplace(0)


class TestCatalogue:
    def test_legacy_names_plus_at_least_twelve_extras(self):
        assert set(LEGACY_EQUIVALENTS) <= set(CATALOGUE)
        extras = set(CATALOGUE) - set(LEGACY_EQUIVALENTS)
        assert len(extras) >= 12
        assert set(ALGEBRA_SOLVERS) == extras

    def test_protocol_solver_table_pins_the_catalogue(self):
        from repro.service import protocol

        assert protocol.ALGEBRA_SOLVERS == ALGEBRA_SOLVERS
        assert set(CATALOGUE) <= protocol.FAST_SOLVERS
        assert protocol.SOLVERS[-1] == "ga"

    def test_heuristic_for_serves_every_fast_solver(self):
        from repro.service.protocol import FAST_SOLVERS
        from repro.service.solvers import heuristic_for

        for solver in sorted(FAST_SOLVERS):
            assert heuristic_for(solver).name == solver

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown catalogue"):
            component_scheduler("not-a-scheduler")

    def test_scheduler_name_defaults_to_spec(self):
        comps = CATALOGUE["maxmin"]
        assert ComponentScheduler(comps).name == comps.spec
        assert component_scheduler("maxmin").name == "maxmin"

    def test_specs_are_unique(self):
        specs = [c.spec for c in CATALOGUE.values()]
        assert len(specs) == len(set(specs))


class TestObservability:
    @pytest.fixture(autouse=True)
    def _clean_session(self):
        obs_runtime.disable()
        yield
        obs_runtime.disable()

    def test_solve_span_and_per_component_counters(self):
        problem = _problem(seed=5, n=10)
        sink = InMemorySink()
        session = obs_runtime.enable(sink)
        component_scheduler("maxmin").schedule(problem)
        reg = session.registry
        assert reg.counter("algebra.solves").value == 1
        assert reg.counter("algebra.ranking.upward").value == 1
        assert reg.counter("algebra.selection.eft").value == 1
        assert reg.counter("algebra.insertion.insertion").value == 1
        assert reg.counter("algebra.order.greedy-maxeft").value == 1
        obs_runtime.disable()
        spans = sink.spans("algebra.solve")
        assert len(spans) == 1
        assert spans[0]["attrs"]["scheduler"] == "maxmin"
        assert spans[0]["attrs"]["n"] == problem.n

    def test_disabled_mode_adds_nothing(self):
        problem = _problem(seed=5, n=8)
        component_scheduler("heft").schedule(problem)  # must not raise


class TestFamilies:
    def test_cli_family_literal_pins_the_experiment(self):
        assert ALGO_FAMILIES == FAMILIES

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_graph_close_to_target(self, family):
        rng = np.random.default_rng(0)
        graph = family_graph(family, 40, rng)
        assert 1 <= graph.n <= 80

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_graph("torus", 10, np.random.default_rng(0))


class TestAlgoGridValidation:
    def test_unknown_combo_rejected(self):
        with pytest.raises(ValueError, match="unknown combination"):
            run_algo_grid(combos=("heft", "nope"), n_instances=1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            run_algo_grid(families=("torus",), n_instances=1)

    def test_unknown_ranking_criterion_rejected(self):
        results = run_algo_grid(
            combos=("heft",),
            families=("fft",),
            n_instances=1,
            n_tasks=8,
            n_realizations=4,
        )
        with pytest.raises(ValueError, match="unknown ranking"):
            results.ranking(by="vibes")


class TestCli:
    def test_list_combos(self):
        out = cli_run(["algo-grid", "--list-combos"])
        for name in CATALOGUE:
            assert name in out
        assert "upward/lookahead/insertion/static" in out

    def test_small_sweep_renders_ranked_table(self):
        out = cli_run([
            "algo-grid",
            "--tasks", "10",
            "--instances", "1",
            "--realizations", "8",
            "--combos", "heft", "maxmin",
            "--families", "layered",
            "--rank-by", "r1",
            "--quiet",
        ])
        assert "algo grid by r1" in out
        assert "maxmin" in out

    def test_unknown_combo_is_a_clean_exit(self):
        with pytest.raises(SystemExit, match="unknown combination"):
            cli_run([
                "algo-grid", "--combos", "nope", "--quiet",
                "--instances", "1",
            ])
