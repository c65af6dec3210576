"""Heartbeat bookkeeping: decide which workers are alive, late, or lost.

Workers emit a heartbeat message every ``interval`` seconds from a
background thread, so a worker that is busy computing still beats; one
that stops beating is either dead (its process exit is also detected
directly) or wedged — stuck in a non-yielding native call, stopped by a
signal, or swapped out.  The monitor only does the time arithmetic; the
scheduler owns the consequences (kill + requeue).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["HeartbeatMonitor"]


@dataclass
class HeartbeatMonitor:
    """Track the last heartbeat instant per worker id.

    Attributes
    ----------
    timeout:
        Seconds of silence after which a worker counts as lost; ``None``
        disables hang detection (crash detection is unaffected — a dead
        process is noticed via its pipe and exit code).
    """

    timeout: float | None = 30.0
    _last: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"heartbeat timeout must be positive, got {self.timeout}")

    def register(self, worker_id: int, now: float | None = None) -> None:
        """Start tracking a worker, counting registration as a beat."""
        self._last[worker_id] = time.monotonic() if now is None else now

    def beat(self, worker_id: int, now: float | None = None) -> None:
        """Record a heartbeat (any message from the worker counts)."""
        self._last[worker_id] = time.monotonic() if now is None else now

    def forget(self, worker_id: int) -> None:
        """Stop tracking a worker (retired or already declared lost)."""
        self._last.pop(worker_id, None)

    def overdue(self, now: float | None = None) -> list[int]:
        """Worker ids whose silence exceeds ``timeout`` (empty if disabled)."""
        if self.timeout is None:
            return []
        t = time.monotonic() if now is None else now
        return [wid for wid, beat in self._last.items() if t - beat > self.timeout]
