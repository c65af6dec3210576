"""Fault-tolerance integration tests: killed, hung, and poison workers.

The crash tasks are self-inflicting: on their first attempt they write a
marker file (carrying their pid) and then SIGKILL/SIGSTOP their own
worker process mid-task; on retry the marker exists, so they compute the
real, seed-derived result.  That makes the failure deterministic without
any cross-process coordination from the test body.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, Scheduler, TaskSpec, TaskState


def _seeded_values(seed):
    return np.random.default_rng(seed).random(8).tolist()


def _kill_worker_on_first_attempt(marker_dir, key, seed):
    marker = os.path.join(marker_dir, f"{key}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)  # worker dies mid-task
    return {"pid": os.getpid(), "values": _seeded_values(seed)}


def _hang_worker_on_first_attempt(marker_dir, key, seed):
    marker = os.path.join(marker_dir, f"{key}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGSTOP)  # freezes heartbeats too
    return {"pid": os.getpid(), "values": _seeded_values(seed)}


def _well_behaved(seed):
    return {"pid": os.getpid(), "values": _seeded_values(seed)}


def _well_behaved_after(marker_dir, key, seed, timeout=30.0):
    """`_well_behaved`, finishing only after *key* has attempted (and
    killed its worker) plus a short hold, so the lost worker is detected
    while this task is still unfinished."""
    marker = os.path.join(marker_dir, f"{key}.attempted")
    deadline = time.monotonic() + timeout
    while not os.path.exists(marker) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)
    return _well_behaved(seed)


def _poison():
    raise ValueError("this task always fails")


SUPERVISED = dict(
    heartbeat_interval=0.1,
    heartbeat_timeout=1.5,
    poll_interval=0.02,
)


class TestSigkillRecovery:
    def test_killed_worker_task_retried_with_same_result(self, tmp_path):
        """A SIGKILLed worker's in-flight task reruns elsewhere, same seed,
        identical result."""
        # The collateral tasks outlast the victim's first attempt: if they
        # all finished before the loss is seen, one worker would suffice
        # for the remaining work and no replacement would be spawned.
        specs = [
            TaskSpec(
                key="victim",
                fn=_kill_worker_on_first_attempt,
                args=(str(tmp_path), "victim", 1234),
                max_retries=2,
            )
        ] + [
            TaskSpec(
                key=f"ok{i}",
                fn=_well_behaved_after,
                args=(str(tmp_path), "victim", i),
            )
            for i in range(4)
        ]
        sched = Scheduler(ClusterConfig(n_workers=2, **SUPERVISED))
        out = sched.run(specs)

        victim = out["victim"]
        assert victim.state is TaskState.DONE
        assert victim.retries == 1
        # Same seed => bit-identical result, no matter which worker reran it.
        assert victim.result["values"] == _seeded_values(1234)
        # It really did run on a different process than the killed attempt.
        killed_pid = int((tmp_path / "victim.attempted").read_text())
        assert victim.result["pid"] != killed_pid
        # The pool healed: a replacement worker was spawned.
        assert sched.metrics.respawns >= 1
        assert sched.metrics.retried >= 1
        # Collateral tasks all completed.
        assert all(out[f"ok{i}"].ok for i in range(4))
        assert all(
            out[f"ok{i}"].result["values"] == _seeded_values(i) for i in range(4)
        )

    def test_checkpoint_survives_crashes(self, tmp_path):
        """Cells journaled before a crash are restored on resume."""
        from repro.cluster import Checkpoint

        path = tmp_path / "journal.jsonl"
        specs = [
            TaskSpec(key=f"t{i}", fn=_well_behaved, args=(i,))
            for i in range(3)
        ]
        Scheduler(
            ClusterConfig(n_workers=2, **SUPERVISED),
            checkpoint=Checkpoint(path, run_id="crashy"),
        ).run(specs)
        sched = Scheduler(
            ClusterConfig(n_workers=2, **SUPERVISED),
            checkpoint=Checkpoint(path, run_id="crashy"),
        )
        out = sched.run(specs)
        assert sched.metrics.restored == 3
        assert all(o.from_checkpoint for o in out.values())
        assert [out[f"t{i}"].result["values"] for i in range(3)] == [
            _seeded_values(i) for i in range(3)
        ]


class TestHangRecovery:
    def test_hung_worker_detected_and_task_retried(self, tmp_path):
        """A worker that stops heartbeating (SIGSTOP) is killed and its
        task reruns with the same seed."""
        specs = [
            TaskSpec(
                key="sleeper",
                fn=_hang_worker_on_first_attempt,
                args=(str(tmp_path), "sleeper", 77),
                max_retries=2,
            ),
            TaskSpec(key="ok", fn=_well_behaved, args=(5,)),
        ]
        sched = Scheduler(ClusterConfig(n_workers=2, **SUPERVISED))
        start = time.monotonic()
        out = sched.run(specs)
        assert out["sleeper"].state is TaskState.DONE
        assert out["sleeper"].result["values"] == _seeded_values(77)
        stopped_pid = int((tmp_path / "sleeper.attempted").read_text())
        assert out["sleeper"].result["pid"] != stopped_pid
        assert out["ok"].ok
        # Detection is heartbeat-driven: well under an interactive timeout.
        assert time.monotonic() - start < 30


class TestPoisonTask:
    def test_poison_fails_without_stalling_the_pool(self):
        """A task that always raises exhausts max_retries, is marked
        failed, and every other task still completes."""
        specs = [TaskSpec(key="poison", fn=_poison, max_retries=2)] + [
            TaskSpec(key=f"ok{i}", fn=_well_behaved, args=(i,))
            for i in range(6)
        ]
        sched = Scheduler(ClusterConfig(n_workers=2, **SUPERVISED))
        out = sched.run(specs)
        poison = out["poison"]
        assert poison.state is TaskState.FAILED
        assert poison.retries == 2  # 3 attempts: first + max_retries
        assert "this task always fails" in poison.error
        assert all(out[f"ok{i}"].ok for i in range(6))
        assert sched.metrics.failed == 1
        assert sched.metrics.done == 6


class TestPoolDeterminism:
    def test_pool_matches_serial(self):
        specs = [
            TaskSpec(key=f"t{i}", fn=_well_behaved, args=(i,))
            for i in range(8)
        ]
        serial = Scheduler(ClusterConfig(n_workers=0)).run(specs)
        pooled = Scheduler(ClusterConfig(n_workers=3, **SUPERVISED)).run(specs)
        for key in serial:
            assert serial[key].result["values"] == pooled[key].result["values"]
