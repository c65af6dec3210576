"""Stream-grid experiment: shedding policies × offered loads.

The streaming question is aggregate, not per-DAG: as a continuous
arrival stream pushes the shared platform past its capacity, which
shedding policy preserves the most *system-wide* on-time completion?
Per grid cell this runs one full streamed execution
(:func:`repro.stream.scheduler.run_stream`) of the same job pool —
workloads at different loads contain identical jobs at different
arrival densities, so the curves isolate contention — under one policy,
and reports the miss-rate/goodput-vs-load curves the two Salehi-lab
papers use as their headline figures.

Each (load, policy) pair is one cell of
:func:`~repro.experiments.grid.run_grid`; every random stream derives
from the workload seed alone, so results — including each cell's exact
drop set — are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster import TaskSpec
from repro.experiments.grid import run_grid
from repro.stream.policies import POLICY_NAMES, make_policy
from repro.stream.scheduler import StreamResult, run_stream
from repro.stream.workload import StreamParams, build_workload
from repro.utils.tables import format_table

__all__ = ["DEFAULT_LOADS", "StreamGridResults", "run_stream_grid"]

#: Load sweep of the headline curves: nominal capacity up to 2x
#: oversubscription (the acceptance band is >= 1.5x).
DEFAULT_LOADS: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)


def _run_cell(params: StreamParams, load: float, policy: str) -> StreamResult:
    """One grid cell: the stream at *load* under *policy*.

    The workload is rebuilt inside the cell (fully determined by
    ``params``/*load*), so a cell is self-contained and bit-identical
    whether it runs in-process or in a cluster worker.
    """
    workload = build_workload(replace(params, load=load))
    return run_stream(workload, make_policy(policy))


@dataclass(frozen=True)
class StreamGridResults:
    """All cells of one policy × load sweep."""

    params: StreamParams
    loads: tuple[float, ...]
    policies: tuple[str, ...]
    results: dict[tuple[float, str], StreamResult]

    def cell(self, load: float, policy: str) -> StreamResult:
        """The stream result of one (load, policy) cell."""
        return self.results[(float(load), policy)]

    def curves(self) -> dict[str, list[tuple[float, float, float]]]:
        """Per policy: ``(load, miss_rate, goodput)`` points, load-sorted.

        These are the paper-style miss-rate/goodput-vs-load curves; the
        acceptance test checks that both shedding policies sit above the
        no-shedding baseline on on-time completion at load >= 1.5.
        """
        return {
            policy: [
                (
                    load,
                    self.cell(load, policy).miss_rate,
                    self.cell(load, policy).goodput,
                )
                for load in self.loads
            ]
            for policy in self.policies
        }

    def to_table(self) -> str:
        """One row per (load, policy) cell."""
        rows = []
        for load in self.loads:
            for policy in self.policies:
                r = self.cell(load, policy)
                rows.append([
                    f"{load:g}",
                    policy,
                    r.on_time_rate,
                    r.miss_rate,
                    r.goodput,
                    r.utilization,
                    r.n_late,
                    r.n_dropped,
                    r.n_rejected,
                ])
        return format_table(
            ["load", "policy", "on-time", "miss", "goodput", "util",
             "late", "drop", "rej"],
            rows,
            title=(
                f"stream grid  ({self.params.n_jobs} jobs x "
                f"{self.params.tasks} tasks, m={self.params.m}, "
                f"{self.params.arrival}, seed={self.params.seed})"
            ),
        )


def run_stream_grid(
    params: StreamParams,
    *,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    policies: tuple[str, ...] = POLICY_NAMES,
    n_jobs: int = 1,
    progress=None,
) -> StreamGridResults:
    """Run every (load, policy) cell of the stream grid.

    Parameters
    ----------
    params:
        Workload shape (job pool, platform, arrival process, seed); the
        ``load`` field is overridden per cell.
    loads:
        Offered-load sweep (see :data:`DEFAULT_LOADS`).
    policies:
        Shedding-policy names (see
        :data:`repro.stream.policies.POLICY_NAMES`).
    n_jobs:
        Worker processes (1 = in-process); results are bit-identical
        for any value.
    progress:
        Optional ``progress(msg)`` callable.
    """
    loads = tuple(float(x) for x in loads)
    policies = tuple(str(p) for p in policies)
    if not loads:
        raise ValueError("need at least one load level")
    if any(x <= 0.0 for x in loads):
        raise ValueError(f"loads must be positive, got {loads}")
    if not policies:
        raise ValueError("need at least one policy")
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICY_NAMES}"
            )

    cells = [(load, policy) for load in loads for policy in policies]
    specs = [
        TaskSpec(
            key=f"stream/load={load:g}/policy={policy}",
            fn=_run_cell,
            args=(params, load, policy),
        )
        for load, policy in cells
    ]
    results = dict(zip(cells, run_grid(specs, n_jobs=n_jobs, progress=progress)))
    return StreamGridResults(
        params=params, loads=loads, policies=policies, results=results
    )
