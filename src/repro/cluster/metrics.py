"""Run metrics: queue counters, worker utilization, throughput.

One :class:`ClusterMetrics` instance lives per scheduler run.  The
scheduler mutates the counters as tasks move through their lifecycle;
consumers read them two ways: the live :meth:`status_line` (one line,
suitable for overwriting terminal output) and the structured
:meth:`snapshot` dict, which the scheduler also records as ``cluster.*``
gauges when tracing is on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["ClusterMetrics"]


@dataclass
class ClusterMetrics:
    """Counters and rates of one scheduler run.

    Attributes
    ----------
    n_tasks:
        Total tasks submitted (including checkpoint-restored ones).
    queued / running / done / failed:
        Current queue occupancy by state; ``done + failed + queued +
        running == n_tasks`` at all times.
    retried:
        Total re-executions caused by crashes, hangs or exceptions.
    restored:
        Tasks skipped because the checkpoint already held their result.
    n_workers:
        Worker-pool size (0 for in-process execution).  Live while the
        pool runs; after the run it keeps the final pool size so
        snapshots record what executed.
    respawns:
        Replacement workers started after crashes/hangs.
    busy_seconds:
        Summed wall-clock seconds workers spent executing tasks.
    prior_elapsed:
        Run time accumulated by earlier (interrupted) attempts of the
        same logical run, carried through the checkpoint journal on
        ``--resume`` so :attr:`elapsed` and :attr:`throughput` describe
        the whole run, not just the post-restart slice.
    """

    n_tasks: int = 0
    queued: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    retried: int = 0
    restored: int = 0
    n_workers: int = 0
    respawns: int = 0
    busy_seconds: float = 0.0
    prior_elapsed: float = 0.0
    _started: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def elapsed(self) -> float:
        """Seconds of run time, including pre-resume attempts."""
        return self.prior_elapsed + (time.perf_counter() - self._started)

    @property
    def throughput(self) -> float:
        """Completed tasks per second of run time (includes restored)."""
        t = self.elapsed
        return self.done / t if t > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of worker-seconds spent computing (0 when poolless)."""
        denom = self.elapsed * self.n_workers
        return min(self.busy_seconds / denom, 1.0) if denom > 0 else 0.0

    def status_line(self) -> str:
        """Live one-line status, e.g. for a ``progress`` callback."""
        parts = [
            f"cluster {self.done}/{self.n_tasks} done",
            f"{self.running} running",
            f"{self.queued} queued",
        ]
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.restored:
            parts.append(f"{self.restored} restored")
        if self.n_workers:
            parts.append(
                f"{self.n_workers} workers ({self.utilization:.0%} busy)"
            )
        parts.append(f"{self.throughput:.2f} tasks/s")
        return " | ".join(parts)

    def snapshot(self) -> dict:
        """JSON-ready dict of every counter and derived rate."""
        return {
            "n_tasks": self.n_tasks,
            "queued": self.queued,
            "running": self.running,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "restored": self.restored,
            "n_workers": self.n_workers,
            "respawns": self.respawns,
            "busy_seconds": self.busy_seconds,
            "prior_elapsed_seconds": self.prior_elapsed,
            "elapsed_seconds": self.elapsed,
            "throughput_per_s": self.throughput,
            "utilization": self.utilization,
        }
