"""Task units: the picklable work descriptions the scheduler executes.

A :class:`TaskSpec` is a pure description — a module-level function plus
arguments — so it can cross a process boundary.  Determinism is part of
the contract: the function's random streams must derive from the spec's
arguments (experiment grids build them with
:func:`repro.utils.rng.role_stream` from an experiment seed), never from
worker identity, task placement or wall clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

__all__ = ["TaskSpec", "TaskState", "TaskOutcome", "TaskFailure"]


class TaskState(enum.Enum):
    """Terminal state of a task in a scheduler run."""

    DONE = "done"            # result available
    FAILED = "failed"        # retry budget exhausted (or dependency failed)


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work.

    Attributes
    ----------
    key:
        Unique, stable identifier; also the checkpoint journal key, so it
        must be identical across runs for ``--resume`` to recognise
        finished work.
    fn:
        Module-level (picklable) callable executed as ``fn(*args,
        **kwargs)`` — or ``fn(dep_results, *args, **kwargs)`` when
        ``pass_dep_results`` is set, with ``dep_results`` a dict mapping
        each key in ``deps`` to that task's result.
    args / kwargs:
        Positional / keyword arguments (picklable).
    max_retries:
        How many times the task may be re-executed after a crash, a hang
        or an exception before it is marked permanently failed.
    deps:
        Keys of tasks that must complete before this one may start.
    pass_dep_results:
        Prepend the dependency-results dict to the call (see ``fn``).
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    max_retries: int = 2
    deps: tuple[str, ...] = ()
    pass_dep_results: bool = False

    def __post_init__(self) -> None:
        if not self.key or not isinstance(self.key, str):
            raise ValueError(f"task key must be a non-empty string, got {self.key!r}")
        if not callable(self.fn):
            raise TypeError(f"task fn must be callable, got {self.fn!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "deps", tuple(self.deps))
        object.__setattr__(self, "kwargs", dict(self.kwargs))
        if self.key in self.deps:
            raise ValueError(f"task {self.key!r} depends on itself")


@dataclass
class TaskOutcome:
    """What happened to one task during a scheduler run.

    ``state`` is ``DONE`` (with ``result``) or ``FAILED`` (with ``error``,
    the last traceback or supervision reason).  ``retries`` counts
    re-executions beyond the first attempt; ``worker`` is the id of the
    worker that produced the final attempt (``None`` for in-process or
    checkpoint-restored results); ``from_checkpoint`` marks results
    restored from the journal without re-execution.
    """

    key: str
    state: TaskState
    result: Any = None
    error: str | None = None
    retries: int = 0
    worker: int | None = None
    duration: float = 0.0
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        """True when the task completed and ``result`` is valid."""
        return self.state is TaskState.DONE


class TaskFailure(RuntimeError):
    """Raised by strict consumers when tasks failed permanently."""

    def __init__(self, outcomes: Sequence[TaskOutcome]) -> None:
        self.outcomes = list(outcomes)
        keys = ", ".join(o.key for o in self.outcomes[:5])
        more = "" if len(self.outcomes) <= 5 else f" (+{len(self.outcomes) - 5} more)"
        first = self.outcomes[0].error or "unknown error"
        super().__init__(
            f"{len(self.outcomes)} task(s) failed permanently: {keys}{more}\n"
            f"first failure:\n{first}"
        )
