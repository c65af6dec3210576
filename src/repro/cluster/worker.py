"""Worker process: pull tasks over a pipe, compute, heartbeat.

Each worker owns one duplex pipe to the scheduler.  The main thread
blocks on ``recv`` for task messages and executes them; a daemon thread
beats every ``heartbeat_interval`` seconds so the scheduler can tell
"busy computing" from "wedged or gone".  All sends share one lock — a
pipe is not thread-safe between the beat thread and result sends.

Message protocol (tuples, first element is the kind):

scheduler -> worker
    ``("task", key, fn, args, kwargs, dep_results, trace)``
    ``("stop",)``

worker -> scheduler
    ``("ready", worker_id)``              once, after startup
    ``("heartbeat", worker_id)``          every interval
    ``("result", worker_id, key, result, duration, events)``
    ``("error", worker_id, key, traceback_str, duration, events)``

``trace`` asks the worker to run the task under a local in-memory
observability session (:mod:`repro.obs`); ``events`` ships the captured
span/event/metric records back (``None`` when tracing was off), and the
scheduler splices them into its own trace under the run span.

Task exceptions are caught and reported as ``error`` messages — the
worker survives and pulls the next task; retry policy lives in the
scheduler.  Only a crash (signal, OOM kill, interpreter abort) or a hang
takes a worker down, and the scheduler detects both.

:func:`run_attempt` is the one way a task attempt runs: the worker calls
it for every task, and the scheduler's in-process path calls it too.
"""

from __future__ import annotations

import threading
import time
import traceback

from repro.obs import runtime as obs
from repro.obs.sinks import InMemorySink

__all__ = ["run_attempt", "worker_main"]


def run_attempt(key, fn, args, kwargs, dep_results, catch=BaseException):
    """Run one attempt of a task inside its ``cluster.task`` span.

    Returns ``(kind, payload, duration)``: ``("result", result, s)``, or
    ``("error", traceback_str, s)`` when *fn* raised one of *catch* (the
    span then closes with error status).  Workers catch
    ``BaseException`` so that nothing a task raises takes them down; the
    in-process path passes ``Exception`` and lets ``KeyboardInterrupt``
    stop the run.
    """
    start = time.perf_counter()
    try:
        with obs.trace("cluster.task", key=key):
            if dep_results is not None:
                result = fn(dep_results, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
    except catch:
        return "error", traceback.format_exc(), time.perf_counter() - start
    return "result", result, time.perf_counter() - start


def worker_main(conn, worker_id: int, heartbeat_interval: float) -> None:
    """Entry point of one worker process (module-level: spawn-safe)."""
    obs.reset_inherited()  # a fork-inherited session is the parent's
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def _send(message: tuple) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False  # scheduler is gone; exit quietly

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            if not _send(("heartbeat", worker_id)):
                return

    beater = threading.Thread(target=_beat, name="heartbeat", daemon=True)
    beater.start()
    _send(("ready", worker_id))

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _, key, fn, args, kwargs, dep_results, want_trace = message
            # A traced task runs under a local in-memory session whose
            # records ship back with the answer.
            session = obs.enable(InMemorySink()) if want_trace else None
            kind, payload, duration = run_attempt(
                key, fn, args, kwargs, dep_results
            )
            events = None
            if session is not None:
                events = session.drain_records()
                obs.disable()
            if not _send((kind, worker_id, key, payload, duration, events)):
                break
    finally:
        stop_beating.set()
        try:
            conn.close()
        except OSError:
            pass
