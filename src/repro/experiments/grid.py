"""One fan-out for every experiment grid, on :func:`repro.cluster.run_tasks`.

Cells take their random streams from :func:`repro.utils.rng.role_stream`
and come back in spec order, so a grid is bit-identical for any ``n_jobs``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.cluster import Checkpoint, TaskOutcome, TaskSpec, run_tasks

__all__ = ["run_grid"]


def run_grid(
    specs: Sequence[TaskSpec],
    *,
    n_jobs: int = 1,
    progress: Callable[[str], None] | None = None,
    checkpoint: Checkpoint | None = None,
    resume: bool = False,
) -> list[Any]:
    """Run one task per grid cell; return the results in spec order.

    *n_jobs* worker processes run the cells (1 runs them in-process).
    *progress* gets ``"<key> done (k/N)"`` per finished cell, plus
    ``" [restored]"`` for a cell restored from *checkpoint*.  Without
    *resume*, an existing *checkpoint* journal is discarded first, so two
    runs never mix; *resume* requires a checkpoint.  A cell that fails
    permanently raises :class:`~repro.cluster.TaskFailure` once every
    other cell has run.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    if checkpoint is not None and not resume:
        checkpoint.path.unlink(missing_ok=True)
    done = 0

    def on_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None and outcome.ok:
            suffix = " [restored]" if outcome.from_checkpoint else ""
            progress(f"{spec.key} done ({done}/{len(specs)}){suffix}")

    outcomes = run_tasks(
        specs, n_workers=n_jobs, checkpoint=checkpoint, on_done=on_done
    )
    return [outcomes[spec.key].result for spec in specs]
