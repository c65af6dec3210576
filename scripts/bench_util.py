"""Shared helpers for the ``scripts/bench_*.py`` recorders.

Every benchmark script writes a ``BENCH_*.json`` record at the repo
root and wants the same three things:

* :func:`median_ms` — median wall-clock timing over a time budget;
* :func:`bench_meta` — the environment block every record must carry
  (python/numpy versions, ``cpu_count``, native-kernel availability —
  on a 1-core CI box the parallel speedup numbers mean nothing without
  it);
* :func:`write_record` — the snapshot-preserving writer: extra
  top-level blocks in the existing file are always kept verbatim, and
  ``--baseline NAME`` archives the existing file's live sections into a
  new ``NAME`` block before the fresh numbers overwrite them, so a
  before/after pair survives in one file (refused if ``NAME`` exists).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np


def median_ms(fn, *, budget_s: float = 2.0, min_rounds: int = 5) -> tuple[float, int]:
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


def bench_meta(**extra) -> dict:
    """The environment block every ``BENCH_*.json`` record carries."""
    from repro.graph import _native

    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "native_kernel": _native.get_lib() is not None,
    }
    meta.update(extra)
    return meta


def write_record(
    output: Path,
    record: dict,
    *,
    sections: tuple[str, ...],
    baseline: str | None = None,
) -> int:
    """Write *record* to *output*, preserving history.

    *sections* names the record's live top-level blocks; with
    ``baseline`` they are snapshotted **verbatim** from the existing
    file into ``record[baseline]`` before being overwritten.  All other
    existing top-level blocks are carried over unchanged.  Returns a
    process exit code (1 = the baseline name is already taken).
    """
    previous = {}
    if output.exists():
        try:
            previous = json.loads(output.read_text())
        except (OSError, ValueError):
            previous = {}
    if baseline:
        if baseline in previous or baseline in record:
            print(f"error: baseline block {baseline!r} already exists")
            return 1
        snapshot = {
            key: previous[key] for key in sections if key in previous
        }
        if snapshot:
            record[baseline] = snapshot
    for key, value in previous.items():
        record.setdefault(key, value)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    return 0
