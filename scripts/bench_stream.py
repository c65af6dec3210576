#!/usr/bin/env python
"""Benchmark the streaming online scheduler and record median timings.

For each of three offered-load levels the script executes the full
streamed workload (see :mod:`repro.stream`) under the no-shedding
baseline and the pruning policy, measuring

* ``run_ms`` — median wall-clock time of one complete streamed
  execution (workload pre-built outside the timed region);
* ``jobs_per_s`` / ``decisions_per_s`` — throughput in jobs retired and
  dispatch decisions taken per wall-clock second;
* ``p50_us`` / ``p99_us`` — percentiles of the per-decision scheduling
  latency (candidate scan + policy verdict + commit), pooled across
  rounds via ``run_stream(..., latency_out=...)``.

Medians go to ``BENCH_stream.json`` at the repository root.  Extra
top-level blocks (recorded baselines) are always preserved;
``--baseline NAME`` additionally snapshots the *existing* file's stream
medians into a new ``NAME`` block before the fresh numbers overwrite
them (``bench_util.write_record``).

Usage::

    PYTHONPATH=src python scripts/bench_stream.py            # write JSON
    PYTHONPATH=src python scripts/bench_stream.py --no-write # print only
    PYTHONPATH=src python scripts/bench_stream.py \
        --baseline baseline_seed   # archive current medians first
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from bench_util import bench_meta

from repro.stream import StreamParams, build_workload, make_policy, run_stream

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The three load levels of the record: nominal, the 1.5x acceptance
#: band, and 2x oversubscription.
LOADS = (1.0, 1.5, 2.0)
POLICIES = ("none", "prune")


def _bench_cell(
    workload, policy: str, *, budget_s: float, min_rounds: int = 3
) -> dict:
    """Median run time and pooled dispatch latencies of one (load, policy)."""
    run_stream(workload, make_policy(policy))  # warm caches
    times: list[float] = []
    latencies: list[float] = []
    decisions = 0
    t_stop = time.perf_counter() + budget_s
    while len(times) < min_rounds or time.perf_counter() < t_stop:
        lat: list[float] = []
        t0 = time.perf_counter()
        result = run_stream(workload, make_policy(policy), latency_out=lat)
        times.append(time.perf_counter() - t0)
        latencies.extend(lat)
        decisions = len(lat)
        if len(times) >= 500:
            break
    times.sort()
    run_s = times[len(times) // 2]
    lat_us = np.asarray(latencies, dtype=np.float64) * 1e6
    return {
        "run_ms": round(run_s * 1e3, 4),
        "rounds": len(times),
        "jobs_per_s": round(result.n_jobs / run_s, 2),
        "decisions_per_s": round(decisions / run_s, 1),
        "p50_us": round(float(np.percentile(lat_us, 50)), 3),
        "p99_us": round(float(np.percentile(lat_us, 99)), 3),
        "on_time_rate": round(result.on_time_rate, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print timings without updating BENCH_stream.json",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=2.0,
        help="per-cell time budget in seconds (default: 2)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_stream.json",
        help="output path (default: BENCH_stream.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        metavar="NAME",
        help=(
            "snapshot the existing file's stream medians into a NAME block "
            "before writing the fresh numbers (refused if NAME exists)"
        ),
    )
    args = parser.parse_args(argv)

    results = {}
    for load in LOADS:
        workload = build_workload(StreamParams(load=load, seed=20060925))
        for policy in POLICIES:
            cell = _bench_cell(workload, policy, budget_s=args.budget)
            key = f"load_{load:g}_{policy}"
            results[key] = cell
            print(
                f"{key:18s} {cell['run_ms']:9.3f} ms/run   "
                f"{cell['jobs_per_s']:8.1f} jobs/s   "
                f"p50 {cell['p50_us']:7.2f} us   p99 {cell['p99_us']:8.2f} us"
            )

    record = {
        "stream": results,
        "meta": bench_meta(
            n_jobs=StreamParams().n_jobs,
            tasks=StreamParams().tasks,
            m=StreamParams().m,
        ),
    }
    if not args.no_write:
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
            if previous.get("stream"):
                record[args.baseline] = {
                    "stream": {
                        name: row["run_ms"]
                        for name, row in previous["stream"].items()
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
