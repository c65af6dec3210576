#!/usr/bin/env python
"""Benchmark the cluster engine's grid throughput and record it.

Runs the Fig. 4/5 grid workload (``run_eps_grid`` on a smoke-scale
config) through ``repro.cluster`` at 1, 2 and 4 workers and writes
cells-per-second plus the engine's dispatch overhead to
``BENCH_cluster.json`` at the repository root.  This establishes a
trajectory across PRs: run it before and after touching the scheduler,
worker or checkpoint paths and compare.

Usage::

    PYTHONPATH=src python scripts/bench_cluster.py            # write JSON
    PYTHONPATH=src python scripts/bench_cluster.py --no-write # print only
    PYTHONPATH=src python scripts/bench_cluster.py \
        --baseline baseline_seed   # archive current numbers first

Speedup over serial depends on the machine's core count; the recorded
``cpu_count`` puts the numbers in context.  The overhead benchmark
(no-op tasks through the full pool machinery) is the per-task engine
cost independent of any cores.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bench_util import bench_meta, write_record

from repro.cluster import TaskSpec, run_tasks
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_eps_grid

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The benchmarked grid: 2 uncertainty levels x n_graphs smoke instances,
#: one epsilon — the same cell shape the figure drivers ship to workers.
ULS = (2.0, 4.0)
EPSILONS = (1.0,)
SEED = 20060925


def _noop(i: int) -> int:
    return i


def bench_grid(n_workers: int) -> dict:
    """Wall-clock one full grid at the given worker count."""
    cfg = ExperimentConfig(scale=SCALES["smoke"], seed=SEED)
    n_cells = len(ULS) * cfg.scale.n_graphs
    t0 = time.perf_counter()
    run_eps_grid(cfg, ULS, EPSILONS, n_jobs=n_workers)
    elapsed = time.perf_counter() - t0
    return {
        "n_cells": n_cells,
        "seconds": round(elapsed, 3),
        "cells_per_second": round(n_cells / elapsed, 3),
    }


def bench_overhead(n_tasks: int = 200) -> dict:
    """Per-task engine cost: no-op tasks through a 2-worker pool."""
    t0 = time.perf_counter()
    run_tasks(
        [TaskSpec(key=f"noop/{i}", fn=_noop, args=(i,)) for i in range(n_tasks)],
        n_workers=2,
    )
    elapsed = time.perf_counter() - t0
    return {
        "n_tasks": n_tasks,
        "seconds": round(elapsed, 3),
        "ms_per_task": round(elapsed / n_tasks * 1e3, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print timings without updating BENCH_cluster.json",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to benchmark (default: 1 2 4)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_cluster.json",
        help="output path (default: BENCH_cluster.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        metavar="NAME",
        help="snapshot the existing file's sections into a top-level NAME "
        "block before writing the fresh numbers (refused if NAME exists)",
    )
    args = parser.parse_args(argv)

    grid = {}
    for n in args.workers:
        result = bench_grid(n)
        grid[str(n)] = result
        print(
            f"grid @ {n} worker(s): {result['n_cells']} cells in "
            f"{result['seconds']:.1f} s  ({result['cells_per_second']:.2f} cells/s)"
        )
    overhead = bench_overhead()
    print(
        f"engine overhead: {overhead['n_tasks']} no-op tasks, "
        f"{overhead['ms_per_task']:.2f} ms/task"
    )

    record = {
        "grid_throughput": grid,
        "engine_overhead": overhead,
        "meta": bench_meta(
            uls=list(ULS),
            epsilons=list(EPSILONS),
            scale="smoke",
            seed=SEED,
        ),
    }
    if not args.no_write:
        return write_record(
            args.output,
            record,
            sections=("grid_throughput", "engine_overhead", "meta"),
            baseline=args.baseline,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
