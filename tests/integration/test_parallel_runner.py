"""Integration tests: resumed grid execution is bit-identical to a fresh
run (serial against parallel for every grid: ``test_grid.py``)."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, run_eps_grid
from repro.experiments.config import SCALES
from repro.experiments.workloads import make_problem, make_problems


def _assert_grids_identical(a, b):
    """Every cell, outcome and report field must match bit-for-bit."""
    assert a.cells.keys() == b.cells.keys()
    for key in a.cells:
        assert len(a.cells[key]) == len(b.cells[key])
        for x, y in zip(a.cells[key], b.cells[key]):
            assert (x.instance, x.epsilon, x.mean_ul) == (
                y.instance,
                y.epsilon,
                y.mean_ul,
            )
            for attr in ("ga", "heft"):
                rx, ry = getattr(x, attr), getattr(y, attr)
                assert rx.expected_makespan == ry.expected_makespan
                assert rx.avg_slack == ry.avg_slack
                assert rx.mean_makespan == ry.mean_makespan
                assert rx.mean_tardiness == ry.mean_tardiness
                assert rx.miss_rate == ry.miss_rate
                assert rx.r1 == ry.r1
                assert rx.r2 == ry.r2
                assert np.array_equal(
                    rx.realized_makespans, ry.realized_makespans
                )


class TestMakeProblem:
    def test_single_matches_pool(self):
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=3)
        pool = make_problems(cfg, 4.0)
        for i in range(cfg.scale.n_graphs):
            single = make_problem(cfg, 4.0, i)
            assert single.graph == pool[i].graph
            assert np.array_equal(single.uncertainty.ul, pool[i].uncertainty.ul)

    def test_rejects_out_of_range_index(self):
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=3)
        with pytest.raises(ValueError, match="index"):
            make_problem(cfg, 2.0, cfg.scale.n_graphs)
        with pytest.raises(ValueError, match="index"):
            make_problem(cfg, 2.0, -1)


class TestParallelGrid:
    def test_rejects_bad_n_jobs(self):
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=11)
        with pytest.raises(ValueError, match="n_jobs"):
            run_eps_grid(cfg, (2.0,), (1.0,), n_jobs=0)

    def test_instances_sorted_per_cell(self):
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=12)
        grid = run_eps_grid(cfg, (2.0,), (1.0,), n_jobs=3)
        for outcomes in grid.cells.values():
            ids = [o.instance for o in outcomes]
            assert ids == sorted(ids)


class TestCheckpointResume:
    def test_resume_skips_finished_cells_bit_for_bit(self, tmp_path):
        """A run interrupted mid-grid and restarted with resume completes
        with identical results, re-executing only unfinished cells."""
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=11)
        path = tmp_path / "grid.jsonl"
        full = run_eps_grid(cfg, (2.0,), (1.0,), checkpoint=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + cfg.scale.n_graphs  # header + one per cell

        # Simulate an interruption after the first completed cell.
        path.write_text("\n".join(lines[:2]) + "\n")
        messages = []
        resumed = run_eps_grid(
            cfg, (2.0,), (1.0,), checkpoint=path, resume=True,
            progress=messages.append,
        )
        restored = [m for m in messages if "[restored]" in m]
        assert len(restored) == 1  # only the journaled cell was skipped
        assert len(messages) == cfg.scale.n_graphs
        _assert_grids_identical(full, resumed)

    def test_resume_with_workers_matches_serial(self, tmp_path):
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=11)
        serial = run_eps_grid(cfg, (2.0,), (1.0, 1.5))
        path = tmp_path / "grid.jsonl"
        first = run_eps_grid(cfg, (2.0,), (1.0, 1.5), n_jobs=2, checkpoint=path)
        _assert_grids_identical(serial, first)
        # Full journal: the resumed run restores everything, still identical.
        resumed = run_eps_grid(
            cfg, (2.0,), (1.0, 1.5), n_jobs=2, checkpoint=path, resume=True
        )
        _assert_grids_identical(serial, resumed)

    def test_resume_requires_checkpoint(self):
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=11)
        with pytest.raises(ValueError, match="checkpoint"):
            run_eps_grid(cfg, (2.0,), (1.0,), resume=True)

    def test_mismatched_run_rejected(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        run_eps_grid(
            ExperimentConfig(scale=SCALES["smoke"], seed=11),
            (2.0,),
            (1.0,),
            checkpoint=path,
        )
        with pytest.raises(ValueError, match="refusing to resume"):
            run_eps_grid(
                ExperimentConfig(scale=SCALES["smoke"], seed=12),
                (2.0,),
                (1.0,),
                checkpoint=path,
                resume=True,
            )

    def test_fresh_run_replaces_stale_journal(self, tmp_path):
        """Without resume, an existing journal is discarded, not mixed in."""
        import json

        def records(text):
            # key -> result payload, ignoring timing metadata
            return {
                r["key"]: r["result"]
                for r in map(json.loads, text.splitlines())
                if "key" in r
            }

        path = tmp_path / "grid.jsonl"
        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=11)
        run_eps_grid(cfg, (2.0,), (1.0,), checkpoint=path)
        first = records(path.read_text())
        run_eps_grid(cfg, (2.0,), (1.0,), checkpoint=path)
        second = records(path.read_text())
        assert len(second) == cfg.scale.n_graphs  # not doubled by appending
        assert second == first


class TestSlackEffectCluster:
    def test_resume_bit_identical(self, tmp_path):
        from repro.experiments import run_slack_effect

        cfg = ExperimentConfig(scale=SCALES["smoke"], seed=11)
        path = tmp_path / "slack.jsonl"
        full = run_slack_effect(
            cfg, "slack", uls=(2.0,), n_steps=3, checkpoint=path
        )
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # keep one cell
        resumed = run_slack_effect(
            cfg, "slack", uls=(2.0,), n_steps=3, checkpoint=path, resume=True
        )
        for a, b in zip(full.series, resumed.series):
            assert np.array_equal(a.makespan, b.makespan)
            assert np.array_equal(a.slack, b.slack)
            assert np.array_equal(a.r1, b.r1)
