"""Unit tests for the extended CLI commands (compare/gantt/pareto/export)."""

import json
import pathlib

import pytest

from repro.cli import run

ARGS = ["--tasks", "10", "--seed", "3"]


class TestCompare:
    def test_lists_all_schedulers(self):
        out = run(["compare", *ARGS, "--realizations", "60"])
        for name in ("HEFT", "CPOP", "PEFT", "min-min", "robust GA"):
            assert name in out


class TestGantt:
    @pytest.mark.parametrize("scheduler", ["heft", "cpop", "peft", "minmin", "robust"])
    def test_renders_every_scheduler(self, scheduler):
        out = run(["gantt", *ARGS, "--scheduler", scheduler, "--width", "50"])
        assert "P0 |" in out
        assert scheduler in out

    def test_width_respected(self):
        out = run(["gantt", *ARGS, "--width", "40"])
        row = out.splitlines()[1]
        assert len(row) == len("P0 |") + 40 + 1


class TestPareto:
    def test_front_table(self):
        out = run(["pareto", *ARGS, "--iterations", "15"])
        assert "NSGA-II front" in out
        assert "makespan" in out
        assert "avg slack" in out


class TestExport:
    def test_writes_files(self, tmp_path):
        out_file = tmp_path / "inst.json"
        dot_file = tmp_path / "inst.dot"
        out = run(
            ["export", *ARGS, "--out", str(out_file), "--dot", str(dot_file)]
        )
        assert out_file.exists()
        assert dot_file.exists()
        schedule_file = tmp_path / "inst.heft-schedule.json"
        assert schedule_file.exists()
        assert str(out_file) in out

        # The exported pair loads back and pairs up.
        from repro.io import load_problem, load_schedule

        problem = load_problem(out_file)
        schedule = load_schedule(schedule_file, problem)
        assert schedule.n == 10

    def test_exported_dot_is_dot(self, tmp_path):
        out_file = tmp_path / "p.json"
        dot_file = tmp_path / "p.dot"
        run(["export", *ARGS, "--out", str(out_file), "--dot", str(dot_file)])
        assert dot_file.read_text().startswith("digraph")

    def test_json_is_valid(self, tmp_path):
        out_file = tmp_path / "q.json"
        run(["export", *ARGS, "--out", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert payload["format"] == "repro.problem"


class TestJobsFlag:
    def test_fig4_accepts_jobs(self):
        out = run(["fig4", "--scale", "smoke", "--uls", "2", "--quiet", "--jobs", "2"])
        assert "Fig. 4" in out


class TestZooCommand:
    def test_zoo_table(self):
        out = run(["zoo", "--scale", "smoke", "--quiet", "--no-dynamic"])
        assert "Scheduler zoo" in out
        for name in ("heft", "cpop", "peft", "minmin", "robust-ga"):
            assert name in out
        assert "online-mct" not in out

    def test_zoo_includes_dynamic_by_default(self):
        out = run(["zoo", "--scale", "smoke", "--quiet"])
        assert "online-mct" in out


class TestSensitivityCommand:
    def test_sensitivity_table(self):
        out = run(
            [
                "sensitivity",
                "--scale",
                "smoke",
                "--parameter",
                "m",
                "--values",
                "2",
                "3",
                "--quiet",
            ]
        )
        assert "Sensitivity" in out
        assert "R1" in out

    def test_rejects_unknown_parameter(self):
        import pytest

        with pytest.raises(SystemExit):
            run(["sensitivity", "--parameter", "n"])


class TestArgumentValidation:
    """Non-positive counts must exit with a clear parser error, not hang."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--workers", "0"],
            ["fig4", "--jobs", "-2"],
            ["fig4", "--workers", "two"],
            ["solve", "--realizations", "0"],
            ["solve", "--tasks", "-1"],
            ["compare", "--procs", "0"],
        ],
    )
    def test_nonpositive_counts_exit(self, argv, capsys):
        with pytest.raises(SystemExit):
            run(argv)
        assert "integer" in capsys.readouterr().err


class TestTraceFlag:
    def test_export_writes_valid_trace(self, tmp_path):
        from repro.obs import load_trace

        out = tmp_path / "inst.json"
        trace = tmp_path / "run.jsonl"
        run(
            ["export", "--tasks", "10", "--out", str(out), "--trace", str(trace)]
        )
        records = load_trace(trace)  # schema-validates
        names = [r["name"] for r in records if r["type"] == "span"]
        assert "cli.export" in names

    def test_session_closed_after_run(self, tmp_path):
        from repro.obs import runtime

        run(
            [
                "export",
                "--tasks",
                "10",
                "--out",
                str(tmp_path / "i.json"),
                "--trace",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert not runtime.enabled()

    def test_trace_summary_renders(self, tmp_path):
        out = tmp_path / "inst.json"
        trace = tmp_path / "run.jsonl"
        run(
            ["export", "--tasks", "10", "--out", str(out), "--trace", str(trace)]
        )
        text = run(["trace-summary", str(trace)])
        assert "trace summary" in text
        assert "cli.export" in text

    def test_trace_summary_missing_file_exits(self):
        with pytest.raises(SystemExit, match="no such trace file"):
            run(["trace-summary", "/nonexistent/trace.jsonl"])

    def test_trace_summary_rejects_schema_violation(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "id": 1}\n')
        with pytest.raises(SystemExit, match="schema violation"):
            run(["trace-summary", str(bad)])

    def test_figure_trace_carries_cluster_gauges(self, tmp_path):
        """A figure run's trace holds the cluster run's counters."""
        from repro.experiments.config import PAPER_ULS, SCALES
        from repro.obs import load_trace

        trace = tmp_path / "fig4.jsonl"
        run(["fig4", "--scale", "smoke", "--quiet", "--trace", str(trace)])
        gauges = {
            r["name"]: r["value"]
            for r in load_trace(trace)
            if r["type"] == "gauge"
        }
        cells = SCALES["smoke"].n_graphs * len(PAPER_ULS)
        assert gauges["cluster.n_tasks"] == gauges["cluster.done"] == cells
        assert gauges["cluster.failed"] == 0
