"""Schedule evaluation: makespan, levels, slack — single and batched.

Implements the paper's evaluation semantics:

* **Makespan** (Claim 3.2): with every task starting as soon as it becomes
  ready, the makespan of a realization is the critical-path length of the
  disjunctive graph ``G_s`` with that realization's durations as node
  weights and (deterministic) communication times as edge weights.
* **Top / bottom levels and slack** (Def. 3.3): computed on ``G_s`` with
  the *expected* durations; ``slack_i = M - Bl(i) - Tl(i)``, and the
  schedule's slack is the task average (Eqn. 3).

:func:`batch_makespans` evaluates many realizations at once: durations of
shape ``(R, n)`` flow through one forward pass over ``G_s``
(:meth:`~repro.graph.analysis.ArrayDag.makespan`: the C kernel when the
library is loaded, else its numpy mirror, one ``(R,)`` row per task).  It
prices the Monte-Carlo realizations of Sec. 5 for the beta and bimodal
families, fault replays and energy reports, and it is the reference of the
native uniform-model report, which walks the same graph in C.
``validate=False`` serves those callers: it skips the finiteness scan for
internally generated duration arrays.

:class:`ScheduleEvaluation` computes its backward-pass quantities
(``bottom_levels``, ``slacks``) lazily: the makespan needs only the forward
pass, so consumers that never read slack — e.g. the GA under a
makespan-only fitness — pay half the kernel work.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import runtime as obs
from repro.schedule.schedule import Schedule

__all__ = [
    "ScheduleEvaluation",
    "evaluate",
    "expected_makespan",
    "batch_makespans",
    "task_slacks",
]


class ScheduleEvaluation:
    """Full static evaluation of a schedule under one duration vector.

    Attributes
    ----------
    makespan:
        Critical-path length of ``G_s`` (Claim 3.2).
    start_times, finish_times:
        Earliest start/finish of every task under as-soon-as-ready starts.
    top_levels, bottom_levels:
        ``Tl`` / ``Bl`` of every task on ``G_s`` (Def. 3.3).
        ``bottom_levels`` runs the backward pass on first access.
    slacks:
        Per-task slack ``M - Bl - Tl`` (Eqn. 2); exit-critical tasks have 0.
        Derived from ``bottom_levels``, so equally lazy.
    """

    __slots__ = (
        "makespan",
        "start_times",
        "finish_times",
        "top_levels",
        "_bottom_levels",
        "_slacks",
        "_deferred",
    )

    def __init__(
        self,
        makespan: float,
        start_times: np.ndarray,
        finish_times: np.ndarray,
        top_levels: np.ndarray,
        bottom_levels: np.ndarray | None = None,
        slacks: np.ndarray | None = None,
        *,
        _deferred: tuple | None = None,
    ) -> None:
        self.makespan = float(makespan)
        self.start_times = start_times
        self.finish_times = finish_times
        self.top_levels = top_levels
        self._bottom_levels = bottom_levels
        self._slacks = slacks
        self._deferred = _deferred

    @property
    def bottom_levels(self) -> np.ndarray:
        """``Bl`` per task; triggers the backward pass on first access."""
        if self._bottom_levels is None:
            dag, node_w, edge_w = self._deferred
            self._bottom_levels = dag.bottom_levels(node_w, edge_w)
        return self._bottom_levels

    @property
    def slacks(self) -> np.ndarray:
        """Per-task slack ``M - Bl - Tl`` (Eqn. 2), clamped at zero."""
        if self._slacks is None:
            slacks = self.makespan - self.bottom_levels - self.top_levels
            # Clamp tiny negative values born of float associativity.
            np.maximum(slacks, 0.0, out=slacks)
            self._slacks = slacks
        return self._slacks

    @property
    def avg_slack(self) -> float:
        """Average slack over all tasks (Eqn. 3) — the robustness surrogate."""
        return float(self.slacks.mean())

    @property
    def critical_tasks(self) -> np.ndarray:
        """Tasks with (numerically) zero slack — the critical components."""
        scale = max(self.makespan, 1.0)
        return np.flatnonzero(self.slacks <= 1e-9 * scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleEvaluation(makespan={self.makespan:g})"


def _durations_or_expected(schedule: Schedule, durations: np.ndarray | None) -> np.ndarray:
    if durations is None:
        return schedule.expected_durations()
    durations = np.asarray(durations, dtype=np.float64)
    if durations.shape != (schedule.n,):
        raise ValueError(
            f"durations must have shape ({schedule.n},), got {durations.shape}"
        )
    if np.any(durations < 0) or not np.all(np.isfinite(durations)):
        raise ValueError("durations must be finite and non-negative")
    return durations


def evaluate(schedule: Schedule, durations: np.ndarray | None = None) -> ScheduleEvaluation:
    """Evaluate *schedule* under *durations* (default: expected durations).

    Results for the expected durations are cached on the schedule, since the
    GA fitness, the robustness metrics and the reporting layer all ask for
    them repeatedly.  Only the forward (top-level) pass runs here; the
    backward pass is deferred until ``bottom_levels``/``slacks`` is read.
    """
    use_cache = durations is None
    if use_cache and schedule._expected_eval is not None:
        return schedule._expected_eval

    node_w = _durations_or_expected(schedule, durations)
    dag = schedule.disjunctive
    edge_w = schedule.comm_weights

    tl = dag.top_levels(node_w, edge_w)
    finish = tl + node_w
    makespan = float(finish.max())

    result = ScheduleEvaluation(
        makespan=makespan,
        start_times=tl,
        finish_times=finish,
        top_levels=tl,
        _deferred=(dag, node_w, edge_w),
    )
    if use_cache:
        schedule._expected_eval = result
    return result


def expected_makespan(schedule: Schedule) -> float:
    """``M_0(s)``: makespan under expected durations (Defs. 3.6/3.7)."""
    return evaluate(schedule).makespan


def task_slacks(schedule: Schedule) -> np.ndarray:
    """Per-task slack under expected durations (Def. 3.3)."""
    return evaluate(schedule).slacks


def batch_makespans(
    schedule: Schedule,
    durations: np.ndarray,
    *,
    validate: bool = True,
) -> np.ndarray:
    """Makespans of many duration realizations in one vectorized pass.

    Parameters
    ----------
    schedule:
        The schedule whose disjunctive graph structure is reused across all
        realizations (durations never change ``G_s``).
    durations:
        ``(R, n)`` array; row ``r`` is one realization of all task
        durations (e.g. from :meth:`Schedule.realize_durations`).
    validate:
        Scan *durations* for negative / non-finite entries (default).
        Internal callers that just sampled the array from an uncertainty
        model pass ``False`` to skip the redundant ``O(R·n)`` scan.

    Returns
    -------
    numpy.ndarray
        ``(R,)`` realized makespans ``M_1 .. M_R``.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if durations.ndim != 2 or durations.shape[1] != schedule.n:
        raise ValueError(
            f"durations must have shape (R, {schedule.n}), got {durations.shape}"
        )
    if validate and durations.size:
        # min/max reductions instead of boolean masks: NaN poisons min
        # (NaN >= 0 is false) and +inf is caught by max, so two cheap
        # scans replace four mask allocations.
        if not (durations.min() >= 0.0 and durations.max() < np.inf):
            raise ValueError("durations must be finite and non-negative")

    # Durations are known non-negative here (validated above, or vouched
    # for by the caller), which licenses the sinks-only final reduction.
    dag, edge_w = schedule.disjunctive, schedule.comm_weights
    n_real = durations.shape[0]
    if not obs.enabled():
        return _batch_kernel(dag, edge_w, durations)
    with obs.trace("eval.batch_makespans", n_realizations=n_real) as span:
        t0 = time.perf_counter()
        out = _batch_kernel(dag, edge_w, durations)
        obs.observe("eval.batch_makespans_seconds", time.perf_counter() - t0)
        span.set(n_tasks=schedule.n)
        return out


def _batch_kernel(dag, edge_w, durations):
    """The untraced batched forward pass (shared by both obs modes)."""
    out = dag.makespan(durations, edge_w, nonnegative=True)
    return np.asarray(out, dtype=np.float64)
