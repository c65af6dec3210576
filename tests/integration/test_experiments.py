"""Integration tests for the experiment drivers (smoke scale)."""

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    run_best_eps,
    run_eps_grid,
    run_eps_one,
    run_eps_sweep,
    run_slack_effect,
)
from repro.experiments.config import SCALES
from repro.io.json_io import report_to_dict
from repro.obs import InMemorySink
from repro.obs import runtime as obs_runtime


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(scale=SCALES["smoke"], seed=5)


@pytest.fixture(scope="module")
def shared_grid(cfg):
    """One small grid shared by the sweep and best-eps tests."""
    return run_eps_grid(cfg, uls=(2.0, 6.0), epsilons=(1.0, 1.5, 2.0))


class TestHeftRunsOncePerSolve:
    """HEFT runs once per instance: the runner's baseline schedule is
    every ε-cell's ``M_HEFT`` and GA seed.  The grid's other work counts
    are pinned exactly too, with the numbers both kernel backends give:
    a change that moves one updates it here, with the reason."""

    #: SHA-256 of the grid's report JSON, recorded when every solve still
    #: ran HEFT twice (solver + GA seed).
    GRID_SHA256 = "e1586e5d548551d351596f906d5b3491a7fa487746760e38989e8f1bc06f919c"

    def test_call_count_and_byte_identical_reports(self):
        scale = dataclasses.replace(
            SCALES["smoke"],
            n_graphs=1,
            n_realizations=200,
            ga_max_iterations=25,
            ga_stagnation=25,
        )
        config = ExperimentConfig(scale=scale, seed=7)
        uls, epsilons = (2.0, 8.0), (1.0, 1.5, 2.0)
        sink = InMemorySink()
        obs_runtime.enable(sink)
        try:
            results = run_eps_grid(config, uls, epsilons)
        finally:
            obs_runtime.disable()
        calls = [
            span
            for span in sink.spans("algebra.solve")
            if span["attrs"]["scheduler"] == "heft"
        ]

        # Per UL: the runner's baseline HEFT, passed to every ε-cell.
        assert len(calls) == len(uls) == 2
        assert len(sink.spans("ga.run")) == 6
        counters = {
            r["name"]: r["value"] for r in sink.records if r["type"] == "counter"
        }
        assert counters["ga.generations"] == 150
        assert counters["ga.crossovers"] == 1344
        assert counters["ga.mutations"] == 262
        assessments = sink.spans("mc.assess_robustness")
        assert len(assessments) == 8
        assert sum(s["attrs"]["n_realizations"] for s in assessments) == 1600
        assert (
            counters.get("kernel.batch_forward.native", 0)
            + counters.get("kernel.batch_forward.numpy", 0)
            == 8
        )
        encoded = json.dumps(
            [
                {
                    "instance": o.instance,
                    "epsilon": o.epsilon,
                    "mean_ul": o.mean_ul,
                    "ga": report_to_dict(o.ga),
                    "heft": report_to_dict(o.heft),
                }
                for ul in uls
                for eps in epsilons
                for o in results.outcomes(ul, eps)
            ]
        )
        assert hashlib.sha256(encoded.encode()).hexdigest() == self.GRID_SHA256


class TestEpsGrid:
    def test_structure(self, cfg, shared_grid):
        assert set(shared_grid.cells) == {
            (2.0, 1.0),
            (2.0, 1.5),
            (2.0, 2.0),
            (6.0, 1.0),
            (6.0, 1.5),
            (6.0, 2.0),
        }
        for outcomes in shared_grid.cells.values():
            assert len(outcomes) == cfg.scale.n_graphs

    def test_heft_reused_across_eps(self, shared_grid):
        a = shared_grid.outcomes(2.0, 1.0)[0].heft
        b = shared_grid.outcomes(2.0, 2.0)[0].heft
        assert a is b

    def test_constraints_hold_per_cell(self, shared_grid):
        for (ul, eps), outcomes in shared_grid.cells.items():
            for o in outcomes:
                assert o.ga.expected_makespan <= eps * o.heft.expected_makespan * (
                    1 + 1e-9
                )

    def test_progress_callback(self, cfg):
        messages = []
        run_eps_grid(cfg, uls=(2.0,), epsilons=(1.0,), progress=messages.append)
        assert len(messages) == cfg.scale.n_graphs


class TestSlackEffect:
    @pytest.mark.parametrize("objective", ["makespan", "slack"])
    def test_shapes_and_table(self, cfg, objective):
        result = run_slack_effect(cfg, objective, uls=(2.0,), n_steps=4)
        assert len(result.series) == 1
        s = result.series[0]
        assert s.steps[0] == 0
        # Log ratios are zero at step 0 by construction.
        assert s.makespan[0] == 0.0
        assert s.slack[0] == 0.0
        table = result.to_table()
        assert "UL=2" in table

    def test_slack_objective_grows_slack_and_makespan(self, cfg):
        result = run_slack_effect(cfg, "slack", uls=(2.0,), n_steps=4)
        _, slack_lr, _ = result.final(2.0)
        m_lr = result.series[0].makespan[-1]
        assert slack_lr > 0.0  # slack increased vs step 0
        assert m_lr > 0.0  # and makespan rose with it (Fig. 3)

    def test_makespan_objective_shrinks_makespan(self, cfg):
        result = run_slack_effect(cfg, "makespan", uls=(2.0,), n_steps=4)
        m_lr, slack_lr, _ = result.final(2.0)
        assert m_lr < 0.0  # realized makespan fell vs step 0 (Fig. 2)
        assert slack_lr < 0.0  # slack fell with it

    def test_rejects_unknown_objective(self, cfg):
        with pytest.raises(ValueError, match="objective"):
            run_slack_effect(cfg, "fitness")

    def test_final_unknown_ul_raises(self, cfg):
        result = run_slack_effect(cfg, "slack", uls=(2.0,), n_steps=3)
        with pytest.raises(KeyError):
            result.final(9.0)


class TestEpsOne:
    def test_output_structure(self, cfg):
        result = run_eps_one(cfg, uls=(2.0,))
        assert result.uls == (2.0,)
        assert result.makespan.shape == (1,)
        assert "Fig. 4" in result.to_table()

    def test_makespan_never_worse_than_heft(self, cfg):
        # eps = 1.0 + HEFT seeding: expected makespan can't exceed HEFT's,
        # so the *expected*-makespan improvement is >= 0 per instance; the
        # realized-mean improvement may wobble but not collapse.
        result = run_eps_one(cfg, uls=(2.0,))
        assert result.makespan[0] > -0.05


class TestEpsSweepAndBestEps:
    def test_sweep_reuses_grid(self, cfg, shared_grid):
        result = run_eps_sweep(
            cfg, uls=(2.0, 6.0), epsilons=(1.0, 1.5, 2.0), grid=shared_grid
        )
        assert result.epsilons == (1.5, 2.0)
        assert set(result.r1_improvement) == {2.0, 6.0}
        assert "Fig. 5" in result.to_table("r1")
        assert "Fig. 6" in result.to_table("r2")
        with pytest.raises(ValueError):
            result.to_table("r3")

    def test_relaxing_eps_improves_r1(self, cfg, shared_grid):
        result = run_eps_sweep(
            cfg, uls=(2.0, 6.0), epsilons=(1.0, 1.5, 2.0), grid=shared_grid
        )
        # At some UL the eps=2.0 run must beat the eps=1.0 run on R1.
        best = max(result.r1_improvement[ul][-1] for ul in (2.0, 6.0))
        assert best > 0.0

    def test_best_eps_structure(self, cfg, shared_grid):
        result = run_best_eps(
            cfg,
            uls=(2.0, 6.0),
            epsilons=(1.0, 1.5, 2.0),
            r_grid=(0.0, 0.5, 1.0),
            grid=shared_grid,
        )
        for ul in (2.0, 6.0):
            assert result.best_eps_r1[ul].shape == (3,)
            assert set(result.best_eps_r1[ul]).issubset({1.0, 1.5, 2.0})
        assert "Fig. 7" in result.to_table("r1")
        assert "Fig. 8" in result.to_table("r2")

    def test_r_equal_one_prefers_small_eps(self, cfg, shared_grid):
        """With full makespan emphasis the best eps must be the smallest:
        larger budgets only ever lengthen schedules."""
        result = run_best_eps(
            cfg,
            uls=(2.0, 6.0),
            epsilons=(1.0, 1.5, 2.0),
            r_grid=(0.0, 1.0),
            grid=shared_grid,
        )
        for ul in (2.0, 6.0):
            assert result.best_eps_r1[ul][-1] == 1.0  # r = 1.0
            assert result.best_eps_r2[ul][-1] == 1.0

    def test_best_eps_decreasing_in_r(self, cfg, shared_grid):
        result = run_best_eps(
            cfg,
            uls=(2.0, 6.0),
            epsilons=(1.0, 1.5, 2.0),
            r_grid=(0.0, 0.5, 1.0),
            grid=shared_grid,
        )
        # Fig. 7 trend: eps(r=0) >= eps(r=1).
        for ul in (2.0, 6.0):
            assert result.best_eps_r1[ul][0] >= result.best_eps_r1[ul][-1]


class TestCliIntegration:
    def test_fig4_smoke(self):
        from repro.cli import run

        out = run(["fig4", "--scale", "smoke", "--uls", "2", "--quiet"])
        assert "Fig. 4" in out
        assert "R1" in out


class TestZooDriver:
    def test_zoo_metrics_complete(self, cfg):
        from repro.experiments.zoo import run_zoo

        result = run_zoo(cfg, 2.0, include_dynamic=False)
        assert result.n_instances == cfg.scale.n_graphs
        assert "online-mct" not in result.metrics
        for vals in result.metrics.values():
            assert vals["m0"] > 0
            assert 0.0 <= vals["miss_rate"] <= 1.0
        assert "Scheduler zoo" in result.to_table()

    def test_zoo_robust_ga_bounded_by_heft(self, cfg):
        from repro.experiments.zoo import run_zoo

        result = run_zoo(cfg, 2.0, include_dynamic=False)
        assert (
            result.metrics["robust-ga"]["m0"]
            <= result.metrics["heft"]["m0"] * (1 + 1e-9)
        )

    def test_robust_ga_reuses_the_heft_row(self):
        """HEFT runs for the heft row and the annealer's seed, not again
        for the robust GA's ``M_HEFT`` and seed."""
        from repro.experiments.zoo import run_zoo

        scale = dataclasses.replace(SCALES["smoke"], n_graphs=1, n_realizations=20)
        sink = InMemorySink()
        obs_runtime.enable(sink)
        try:
            run_zoo(ExperimentConfig(scale=scale, seed=3), 2.0, include_dynamic=False)
        finally:
            obs_runtime.disable()
        spans = sink.spans("algebra.solve")
        assert [s["attrs"]["scheduler"] for s in spans].count("heft") == 2

    def test_streams_are_distinct_and_follow_the_seed(self, monkeypatch):
        """The annealer, GA, Monte-Carlo and online streams of an instance
        draw different numbers, each moves with ``config.seed``, and every
        static scheduler is assessed on the same Monte-Carlo draws."""
        from repro.experiments import zoo

        def first_draws(rng):
            gen = (
                copy.deepcopy(rng)
                if isinstance(rng, np.random.Generator)
                else np.random.default_rng(rng)
            )
            return tuple(gen.integers(2**62, size=4).tolist())

        def streams(seed):
            drawn = {}

            def scheduler_spy(role, cls):
                def build(*args, rng, **kwargs):
                    drawn.setdefault(role, []).append(first_draws(rng))
                    return cls(*args, rng=rng, **kwargs)

                return build

            def assess_spy(role, assess):
                def run(*args, rng, **kwargs):
                    drawn.setdefault(role, []).append(first_draws(rng))
                    return assess(*args, rng=rng, **kwargs)

                return run

            for role, name in (("sa", "AnnealingScheduler"), ("ga", "RobustScheduler")):
                monkeypatch.setattr(
                    zoo, name, scheduler_spy(role, getattr(zoo, name))
                )
            for role, name in (
                ("mc", "assess_robustness"),
                ("online", "assess_robustness_faulty"),
            ):
                monkeypatch.setattr(
                    zoo, name, assess_spy(role, getattr(zoo, name))
                )
            scale = dataclasses.replace(
                SCALES["smoke"], n_graphs=1, n_realizations=20
            )
            zoo.run_zoo(ExperimentConfig(scale=scale, seed=seed), 2.0)
            monkeypatch.undo()
            return drawn

        a, b = streams(5), streams(6)
        assert len(a["mc"]) == 7 and len(set(a["mc"])) == 1
        roles = ("sa", "ga", "mc", "online")
        assert len({a[role][0] for role in roles}) == len(roles)
        for role in roles:
            assert a[role][0] != b[role][0], role
