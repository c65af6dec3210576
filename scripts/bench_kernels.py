#!/usr/bin/env python
"""Benchmark the library's hot kernels and record median timings.

Runs the five kernels of ``benchmarks/test_perf_kernels.py`` — schedule
construction, static evaluation, 1000-realization batch makespans, HEFT on a
100-task instance, and one full GA run.  ``ga_generation`` keeps its
historical definition (a full 1-iteration run, dominated by the fixed
population-initialisation cost) so it stays comparable across the recorded
baselines.

Medians go to ``BENCH_kernels.json`` at the repository root.  The file
establishes the performance trajectory across PRs: run the script before
and after touching anything on the evaluation path and compare the
medians.  Extra top-level blocks in the JSON (recorded baselines) are
always preserved; ``--baseline NAME`` additionally snapshots the
*existing* file's kernel medians into a new ``NAME`` block before the
fresh numbers overwrite them, so a before/after pair survives in one file.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py            # write JSON
    PYTHONPATH=src python scripts/bench_kernels.py --no-write # print only
    PYTHONPATH=src python scripts/bench_kernels.py \
        --baseline baseline_pre_refactor   # archive current medians first

Timings are wall-clock medians over enough rounds to fill a time budget per
kernel, so occasional scheduler noise does not skew the record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench_util import bench_meta

from repro.core.problem import SchedulingProblem
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import SlackFitness
from repro.graph.generator import DagParams
from repro.heuristics.heft import HeftScheduler
from repro.platform.uncertainty import UncertaintyParams
from repro.schedule.evaluation import batch_makespans, evaluate
from repro.schedule.schedule import Schedule

REPO_ROOT = Path(__file__).resolve().parent.parent


def _median_ms(fn, *, budget_s: float = 2.0, min_rounds: int = 5) -> tuple[float, int]:
    """Median wall-clock milliseconds of ``fn()`` over a time budget."""
    fn()  # warm caches, lazy structures, and the optional native kernel
    times: list[float] = []
    t_stop = time.perf_counter() + budget_s
    while len(times) < min_rounds or time.perf_counter() < t_stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if len(times) >= 10_000:
            break
    times.sort()
    return times[len(times) // 2] * 1e3, len(times)


def build_kernels() -> dict:
    """The benchmark kernels on the paper-sized instance (rng pinned)."""
    problem = SchedulingProblem.random(
        m=4,
        dag_params=DagParams(n=100),
        uncertainty_params=UncertaintyParams(mean_ul=2.0),
        rng=0,
    )
    schedule = HeftScheduler().schedule(problem)
    orders = [list(t) for t in schedule.proc_orders]
    expected = schedule.expected_durations()
    durations = schedule.realize_durations(1000, rng=1)
    ga_params = GAParams(max_iterations=1, stagnation_limit=100)

    return {
        "schedule_construction": lambda: Schedule(problem, orders),
        "static_evaluation": lambda: evaluate(schedule, expected),
        "batch_makespans_1000": lambda: batch_makespans(schedule, durations),
        "heft_100_tasks": lambda: HeftScheduler().schedule(problem),
        "ga_generation": lambda: GeneticScheduler(
            SlackFitness(), ga_params, rng=2
        ).run(problem),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print timings without updating BENCH_kernels.json",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=2.0,
        help="per-kernel time budget in seconds (default: 2)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_kernels.json",
        help="output path (default: BENCH_kernels.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        metavar="NAME",
        help=(
            "snapshot the existing file's kernel medians into a NAME block "
            "before writing the fresh numbers (refused if NAME exists)"
        ),
    )
    args = parser.parse_args(argv)

    kernels = build_kernels()
    results = {}
    for name, fn in kernels.items():
        median, rounds = _median_ms(fn, budget_s=args.budget)
        results[name] = {"median_ms": round(median, 4), "rounds": rounds}
        print(f"{name:24s} {median:10.3f} ms   ({rounds} rounds)")

    record = {
        "kernels": results,
        "meta": bench_meta(),
    }
    if not args.no_write:
        # Preserve extra top-level sections (e.g. the recorded seed
        # baseline) so re-running the script never loses history.
        previous = {}
        if args.output.exists():
            try:
                previous = json.loads(args.output.read_text())
            except (OSError, ValueError):
                previous = {}
        if args.baseline:
            if args.baseline in previous or args.baseline in record:
                print(f"error: baseline block {args.baseline!r} already exists")
                return 1
            if previous.get("kernels"):
                record[args.baseline] = {
                    "kernels": {
                        name: row["median_ms"]
                        for name, row in previous["kernels"].items()
                    },
                    "meta": previous.get("meta", {}),
                }
        for key, value in previous.items():
            record.setdefault(key, value)
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
