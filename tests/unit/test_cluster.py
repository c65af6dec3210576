"""Unit tests for repro.cluster: specs, scheduling, checkpoints, metrics."""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.cluster import (
    Checkpoint,
    ClusterConfig,
    ClusterMetrics,
    HeartbeatMonitor,
    Scheduler,
    TaskFailure,
    TaskSpec,
    TaskState,
    run_tasks,
)
from repro.cluster.scheduler import _WorkerHandle

# Module-level task functions (picklable; the serial path calls them
# in-process so closures would work, but mirroring the pool contract
# keeps the tests honest).


def _double(x):
    return 2 * x


def _sum_deps(dep_results, offset):
    return sum(dep_results.values()) + offset


_CALLS: list[str] = []


def _record_call(key):
    _CALLS.append(key)
    return key


def _fail_n_times(counter_box, n):
    counter_box.append(1)
    if len(counter_box) <= n:
        raise RuntimeError(f"attempt {len(counter_box)} fails")
    return len(counter_box)


def _always_raises():
    raise ValueError("poison")


class TestTaskSpec:
    def test_rejects_empty_key(self):
        with pytest.raises(ValueError, match="key"):
            TaskSpec(key="", fn=_double)

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError, match="callable"):
            TaskSpec(key="t", fn=42)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            TaskSpec(key="t", fn=_double, max_retries=-1)

    def test_rejects_self_dependency(self):
        with pytest.raises(ValueError, match="itself"):
            TaskSpec(key="t", fn=_double, deps=("t",))


class TestClusterConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=-1)
        with pytest.raises(ValueError):
            ClusterConfig(heartbeat_interval=0)
        with pytest.raises(ValueError):
            ClusterConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError):
            ClusterConfig(poll_interval=0)


class TestSerialScheduling:
    def test_runs_in_submission_order(self):
        _CALLS.clear()
        specs = [TaskSpec(key=f"t{i}", fn=_record_call, args=(f"t{i}",)) for i in range(5)]
        out = Scheduler().run(specs)
        assert _CALLS == [f"t{i}" for i in range(5)]
        assert [o.key for o in out.values()] == [f"t{i}" for i in range(5)]
        assert all(o.ok for o in out.values())

    def test_dependency_results_passed(self):
        specs = [
            TaskSpec(key="a", fn=_double, args=(3,)),
            TaskSpec(key="b", fn=_double, args=(4,)),
            TaskSpec(
                key="total",
                fn=_sum_deps,
                args=(100,),
                deps=("a", "b"),
                pass_dep_results=True,
            ),
        ]
        out = Scheduler().run(specs)
        assert out["total"].result == 6 + 8 + 100

    def test_retry_then_success(self):
        box: list[int] = []
        spec = TaskSpec(key="flaky", fn=_fail_n_times, args=(box, 2), max_retries=2)
        out = Scheduler().run([spec])
        assert out["flaky"].ok
        assert out["flaky"].result == 3  # succeeded on the third attempt
        assert out["flaky"].retries == 2

    def test_poison_marked_failed_after_budget(self):
        sched = Scheduler()
        out = sched.run(
            [
                TaskSpec(key="poison", fn=_always_raises, max_retries=2),
                TaskSpec(key="fine", fn=_double, args=(1,)),
            ]
        )
        assert out["poison"].state is TaskState.FAILED
        assert out["poison"].retries == 2  # 3 attempts = 1 + 2 retries
        assert "poison" in out["poison"].error
        assert out["fine"].ok  # the failure never stalls the rest
        assert sched.metrics.failed == 1
        assert sched.metrics.retried == 2

    def test_dependency_failure_cascades(self):
        out = Scheduler().run(
            [
                TaskSpec(key="bad", fn=_always_raises, max_retries=0),
                TaskSpec(key="child", fn=_double, args=(1,), deps=("bad",)),
                TaskSpec(key="grandchild", fn=_double, args=(1,), deps=("child",)),
                TaskSpec(key="independent", fn=_double, args=(5,)),
            ]
        )
        assert out["bad"].state is TaskState.FAILED
        assert out["child"].state is TaskState.FAILED
        assert "bad" in out["child"].error
        assert out["grandchild"].state is TaskState.FAILED
        assert out["independent"].result == 10

    def test_run_tasks_raises_on_failure(self):
        with pytest.raises(TaskFailure, match="poison"):
            run_tasks([TaskSpec(key="poison", fn=_always_raises, max_retries=0)])


class TestValidation:
    def test_duplicate_keys_rejected(self):
        specs = [TaskSpec(key="t", fn=_double), TaskSpec(key="t", fn=_double)]
        with pytest.raises(ValueError, match="duplicate"):
            Scheduler().run(specs)

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Scheduler().run([TaskSpec(key="t", fn=_double, deps=("ghost",))])

    def test_cycle_rejected(self):
        specs = [
            TaskSpec(key="a", fn=_double, deps=("b",)),
            TaskSpec(key="b", fn=_double, deps=("a",)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            Scheduler().run(specs)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ck = Checkpoint(tmp_path / "j.jsonl", run_id="run-1")
        ck.record("a", {"x": 1.5}, retries=0)
        ck.record("b", [1, 2, 3])
        ck.close()
        loaded = Checkpoint(tmp_path / "j.jsonl", run_id="run-1").load()
        assert loaded == {"a": {"x": 1.5}, "b": [1, 2, 3]}

    def test_missing_file_loads_empty(self, tmp_path):
        assert Checkpoint(tmp_path / "none.jsonl").load() == {}

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = Checkpoint(path, run_id="r")
        ck.record("a", 1)
        ck.record("b", 2)
        ck.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 8])  # tear the final record
        assert Checkpoint(path, run_id="r").load() == {"a": 1}

    def test_run_id_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = Checkpoint(path, run_id="seed=42")
        ck.record("a", 1)
        ck.close()
        with pytest.raises(ValueError, match="seed=42"):
            Checkpoint(path, run_id="seed=7").load()

    def test_codecs_applied(self, tmp_path):
        ck = Checkpoint(
            tmp_path / "j.jsonl",
            encode=lambda arr: arr.tolist(),
            decode=lambda lst: np.asarray(lst),
        )
        values = np.asarray([1.25, 2.5])
        ck.record("a", values)
        ck.close()
        restored = ck.load()["a"]
        assert np.array_equal(restored, values)

    def test_scheduler_restores_and_skips(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = [TaskSpec(key=f"t{i}", fn=_record_call, args=(f"t{i}",)) for i in range(4)]
        Scheduler(checkpoint=Checkpoint(path, run_id="r")).run(specs)
        _CALLS.clear()
        sched = Scheduler(checkpoint=Checkpoint(path, run_id="r"))
        out = sched.run(specs)
        assert _CALLS == []  # nothing re-executed
        assert all(o.from_checkpoint for o in out.values())
        assert sched.metrics.restored == 4


class TestHeartbeatMonitor:
    def test_overdue_detection(self):
        monitor = HeartbeatMonitor(timeout=1.0)
        monitor.register(0, now=100.0)
        monitor.register(1, now=100.0)
        monitor.beat(1, now=102.0)
        assert monitor.overdue(now=102.0) == [0]
        monitor.forget(0)
        assert monitor.overdue(now=110.0) == [1]

    def test_disabled_timeout(self):
        monitor = HeartbeatMonitor(timeout=None)
        monitor.register(0, now=0.0)
        assert monitor.overdue(now=1e9) == []

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            HeartbeatMonitor(timeout=0.0)


class TestMetrics:
    def test_counters_and_snapshot(self):
        sched = Scheduler()
        sched.run([TaskSpec(key=f"t{i}", fn=_double, args=(i,)) for i in range(3)])
        m = sched.metrics
        assert (m.n_tasks, m.done, m.failed, m.queued) == (3, 3, 0, 0)
        snap = m.snapshot()
        assert snap["done"] == 3
        assert snap["throughput_per_s"] > 0
        assert json.dumps(snap)  # JSON-ready

    def test_status_line_mentions_progress(self):
        m = ClusterMetrics(n_tasks=10, done=4, running=2, queued=4, retried=1)
        line = m.status_line()
        assert "4/10 done" in line
        assert "retried" in line

    def test_utilization_bounded(self):
        m = ClusterMetrics(n_workers=2, busy_seconds=1e9)
        time.sleep(0.001)
        assert m.utilization == 1.0


def _sleepy(dt):
    time.sleep(dt)
    return dt


class TestResumeElapsedCarry:
    """--resume must continue the run clock, not restart it from zero."""

    def test_snapshot_monotonic_across_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = [
            TaskSpec(key=f"t{i}", fn=_sleepy, args=(0.01,)) for i in range(3)
        ]
        first = Scheduler(checkpoint=Checkpoint(path, run_id="r"))
        first.run(specs)
        before = first.metrics.snapshot()

        # What an interrupted run durably leaves behind: the run clock at
        # the last checkpoint append.
        journaled = Checkpoint(path, run_id="r")
        journaled.load()
        assert 0 < journaled.run_elapsed <= before["elapsed_seconds"]

        second = Scheduler(checkpoint=Checkpoint(path, run_id="r"))
        out = second.run(specs)
        after = second.metrics.snapshot()

        assert all(o.from_checkpoint for o in out.values())
        assert after["prior_elapsed_seconds"] == journaled.run_elapsed
        assert after["elapsed_seconds"] >= journaled.run_elapsed
        assert after["busy_seconds"] >= before["busy_seconds"]

    def test_journal_records_carry_run_elapsed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Scheduler(checkpoint=Checkpoint(path, run_id="r")).run(
            [TaskSpec(key="a", fn=_sleepy, args=(0.005,))]
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[1]["run_elapsed"] > 0
        ck = Checkpoint(path, run_id="r")
        ck.load()
        assert ck.run_elapsed == lines[1]["run_elapsed"]
        assert ck.busy_elapsed == lines[1]["elapsed"]

    def test_legacy_journal_without_run_elapsed_loads(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(
                {"format": "repro.checkpoint", "version": 1, "run_id": "r"}
            )
            + "\n"
            + json.dumps(
                {"key": "a", "seed": None, "retries": 0, "elapsed": 0.5,
                 "result": 1}
            )
            + "\n"
        )
        ck = Checkpoint(path, run_id="r")
        assert ck.load() == {"a": 1}
        assert ck.run_elapsed == 0.0
        assert ck.busy_elapsed == 0.5


class TestIncrementalSubmitPoll:
    """The non-blocking submit/poll API the service daemon drives."""

    def test_serial_submit_poll_roundtrip(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="a", fn=_double, args=(3,)))
        scheduler.submit(TaskSpec(key="b", fn=_double, args=(5,)))
        assert scheduler.pending() == 2
        results = {}
        while scheduler.pending():
            for outcome in scheduler.poll():
                assert outcome.ok
                results[outcome.key] = outcome.result
        assert results == {"a": 6, "b": 10}
        scheduler.close()

    def test_each_outcome_delivered_exactly_once(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="a", fn=_double, args=(1,)))
        first = scheduler.poll()
        assert [o.key for o in first] == ["a"]
        assert scheduler.poll() == []
        scheduler.close()

    def test_dependencies_and_dep_results(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="x", fn=_double, args=(2,)))
        scheduler.submit(TaskSpec(key="y", fn=_double, args=(3,)))
        scheduler.submit(
            TaskSpec(
                key="z",
                fn=_sum_deps,
                args=(100,),
                deps=("x", "y"),
                pass_dep_results=True,
            )
        )
        results = {}
        while scheduler.pending():
            for outcome in scheduler.poll():
                results[outcome.key] = outcome.result
        assert results["z"] == 4 + 6 + 100
        scheduler.close()

    def test_unknown_dep_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(ValueError, match="unknown task"):
            scheduler.submit(TaskSpec(key="a", fn=_double, args=(1,), deps=("ghost",)))
        scheduler.close()

    def test_duplicate_key_rejected(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="a", fn=_double, args=(1,)))
        with pytest.raises(ValueError, match="duplicate"):
            scheduler.submit(TaskSpec(key="a", fn=_double, args=(2,)))
        scheduler.close()

    def test_failed_dependency_cascades(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="bad", fn=_always_raises, max_retries=0))
        outcomes = {}
        while scheduler.pending():
            for outcome in scheduler.poll():
                outcomes[outcome.key] = outcome
        # A task submitted after its dependency already failed fails too.
        scheduler.submit(
            TaskSpec(key="child", fn=_sum_deps, args=(0,), deps=("bad",))
        )
        for outcome in scheduler.poll():
            outcomes[outcome.key] = outcome
        assert not outcomes["bad"].ok
        assert not outcomes["child"].ok
        assert "dependency" in outcomes["child"].error
        scheduler.close()

    def test_batch_run_guarded_while_incremental(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="a", fn=_double, args=(1,)))
        with pytest.raises(RuntimeError, match="incremental"):
            scheduler.run([TaskSpec(key="b", fn=_double, args=(2,))])
        scheduler.close()
        # After close() the batch entry point works again.
        outcomes = scheduler.run([TaskSpec(key="b", fn=_double, args=(2,))])
        assert outcomes["b"].result == 4

    def test_close_is_idempotent_and_resets(self):
        scheduler = Scheduler()
        scheduler.submit(TaskSpec(key="a", fn=_double, args=(1,)))
        scheduler.poll()
        scheduler.close()
        scheduler.close()
        scheduler.submit(TaskSpec(key="a", fn=_double, args=(7,)))
        assert scheduler.poll()[0].result == 14
        scheduler.close()

    def test_pool_submit_poll(self):
        scheduler = Scheduler(ClusterConfig(n_workers=2))
        for i in range(6):
            scheduler.submit(TaskSpec(key=f"t{i}", fn=_double, args=(i,)))
        results = {}
        deadline = time.monotonic() + 60
        while scheduler.pending() and time.monotonic() < deadline:
            for outcome in scheduler.poll(timeout=0.2):
                assert outcome.ok, outcome.error
                results[outcome.key] = outcome.result
        scheduler.close()
        assert results == {f"t{i}": 2 * i for i in range(6)}

    def test_pool_matches_serial_results(self):
        serial = Scheduler()
        pool = Scheduler(ClusterConfig(n_workers=2))
        for i in range(4):
            spec = TaskSpec(key=f"t{i}", fn=_double, args=(i,))
            serial.submit(spec)
            pool.submit(spec)
        def drain(s):
            out = {}
            deadline = time.monotonic() + 60
            while s.pending() and time.monotonic() < deadline:
                for o in s.poll(timeout=0.2):
                    out[o.key] = o.result
            return out
        try:
            assert drain(serial) == drain(pool)
        finally:
            serial.close()
            pool.close()


class _DeadProcess:
    """Stands in for a worker process that has already exited."""

    exitcode = -9

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


class TestLostWorkerDrain:
    """A worker's last message can race its death; the drain applies it."""

    def _lose_worker_after_error(self, max_retries):
        scheduler = Scheduler()
        scheduler.submit(
            TaskSpec(key="t", fn=_double, args=(4,), max_retries=max_retries)
        )
        # A one-worker pool, installed by hand: the worker took "t",
        # reported its exception and died before the pump read the report.
        key = scheduler._next_ready()
        ours, theirs = multiprocessing.Pipe()
        handle = _WorkerHandle(0, _DeadProcess(), ours)
        handle.current = key
        scheduler._workers = {0: handle}
        scheduler._monitor = HeartbeatMonitor()
        theirs.send(("error", 0, key, "Traceback ...\nValueError: raced", 0.0, None))
        theirs.close()
        scheduler._on_worker_lost(handle, "worker process died (exit code -9)")
        return scheduler

    def test_raced_error_requeues_the_task(self):
        scheduler = self._lose_worker_after_error(max_retries=1)
        assert list(scheduler._ready) == ["t"]
        assert scheduler.metrics.retried == 1
        outcomes = scheduler.poll()  # the retry runs in-process
        assert [(o.key, o.ok, o.result, o.retries) for o in outcomes] == [
            ("t", True, 8, 1)
        ]
        scheduler.close()

    def test_raced_error_fails_once_retries_are_spent(self):
        scheduler = self._lose_worker_after_error(max_retries=0)
        outcomes = scheduler.poll()
        assert [o.key for o in outcomes] == ["t"]
        assert outcomes[0].state is TaskState.FAILED
        assert "ValueError: raced" in outcomes[0].error
        assert outcomes[0].worker == 0
        assert scheduler.pending() == 0
        scheduler.close()
