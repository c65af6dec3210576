"""JSON (de)serialization of problems and schedules.

The on-disk format is versioned and self-describing; matrices are nested
lists (instances are small — 100 x 4 — so readability beats compactness).
A schedule is stored as its per-processor task orders plus a hash of the
problem so stale pairings are caught at load time.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from typing import Any

import numpy as np

from repro.core.problem import SchedulingProblem, _check_task_count
from repro.graph.taskgraph import TaskGraph
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel
from repro.robustness.montecarlo import RobustnessReport
from repro.schedule.schedule import Schedule

__all__ = [
    "problem_fingerprint",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "report_to_dict",
    "report_from_dict",
]

FORMAT_VERSION = 1


def problem_fingerprint(problem: SchedulingProblem) -> str:
    """Stable content hash of a problem instance.

    Pairs schedules with their problems at load time and keys the
    service's content-addressed result cache (two clients submitting the
    same instance share one entry regardless of who serialized it).
    """
    h = hashlib.sha256()
    h.update(problem.graph.edge_src.tobytes())
    h.update(problem.graph.edge_dst.tobytes())
    h.update(problem.graph.edge_data.tobytes())
    h.update(problem.uncertainty.bcet.tobytes())
    h.update(problem.uncertainty.ul.tobytes())
    h.update(problem.platform.transfer_rates.tobytes())
    return h.hexdigest()[:16]


def problem_to_dict(problem: SchedulingProblem) -> dict[str, Any]:
    """Serialize a problem to a JSON-compatible dict."""
    tr = problem.platform.transfer_rates.copy()
    np.fill_diagonal(tr, 1.0)  # inf is not JSON; the diagonal is ignored anyway
    return {
        "format": "repro.problem",
        "version": FORMAT_VERSION,
        "name": problem.name,
        "graph": {
            "n": problem.graph.n,
            "edges": [[int(u), int(v)] for u, v in
                      zip(problem.graph.edge_src, problem.graph.edge_dst)],
            "data_sizes": problem.graph.edge_data.tolist(),
            "name": problem.graph.name,
        },
        "platform": {
            "m": problem.platform.m,
            "transfer_rates": tr.tolist(),
            "name": problem.platform.name,
        },
        "uncertainty": {
            "bcet": problem.uncertainty.bcet.tolist(),
            "ul": problem.uncertainty.ul.tolist(),
        },
        "fingerprint": problem_fingerprint(problem),
    }


def problem_from_dict(payload: dict[str, Any]) -> SchedulingProblem:
    """Rebuild a problem from :func:`problem_to_dict` output."""
    if payload.get("format") != "repro.problem":
        raise ValueError(f"not a repro problem payload: {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported problem format version {payload.get('version')}")
    u = payload["uncertainty"]
    uncertainty = UncertaintyModel(np.asarray(u["bcet"]), np.asarray(u["ul"]))
    g = payload["graph"]
    # The matrices size the instance: a declared task count that disagrees
    # is rejected before it sizes any graph array.
    _check_task_count(uncertainty, g["n"])
    graph = TaskGraph(
        g["n"], g["edges"], g["data_sizes"], name=g.get("name", "loaded")
    )
    p = payload["platform"]
    platform = Platform(
        p["m"], np.asarray(p["transfer_rates"]), name=p.get("name", "loaded")
    )
    problem = SchedulingProblem(
        graph=graph,
        platform=platform,
        uncertainty=uncertainty,
        name=payload.get("name", "loaded"),
    )
    expect = payload.get("fingerprint")
    if expect is not None and problem_fingerprint(problem) != expect:
        raise ValueError("problem fingerprint mismatch: payload is corrupt")
    return problem


def save_problem(problem: SchedulingProblem, path: str | pathlib.Path) -> None:
    """Write a problem to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(problem_to_dict(problem), indent=1))


def load_problem(path: str | pathlib.Path) -> SchedulingProblem:
    """Read a problem from a JSON file."""
    return problem_from_dict(json.loads(pathlib.Path(path).read_text()))


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialize a schedule (orders only + problem fingerprint)."""
    return {
        "format": "repro.schedule",
        "version": FORMAT_VERSION,
        "problem_fingerprint": problem_fingerprint(schedule.problem),
        "proc_orders": [t.tolist() for t in schedule.proc_orders],
    }


def schedule_from_dict(
    payload: dict[str, Any], problem: SchedulingProblem
) -> Schedule:
    """Rebuild a schedule against its (separately loaded) problem.

    Raises
    ------
    ValueError
        If the payload was produced for a different problem.
    """
    if payload.get("format") != "repro.schedule":
        raise ValueError(f"not a repro schedule payload: {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported schedule format version {payload.get('version')}"
        )
    expect = payload.get("problem_fingerprint")
    if expect is not None and expect != problem_fingerprint(problem):
        raise ValueError(
            "schedule was saved for a different problem (fingerprint mismatch)"
        )
    return Schedule(problem, payload["proc_orders"])


def _scalar_to_json(value: float) -> float | str:
    """Encode one float; non-finite values become portable strings.

    Finite floats round-trip **exactly** through :mod:`json`: the encoder
    emits ``repr(float)``, the shortest decimal string that parses back
    to the identical IEEE-754 double.  ``inf``/``nan`` (legal R1/R2
    values — a schedule that never misses has infinite robustness) are
    not valid JSON, so they are stored as strings that :func:`float`
    parses back.
    """
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _scalar_from_json(value: float | int | str) -> float:
    """Invert :func:`_scalar_to_json` bit-for-bit."""
    return float(value)


def report_to_dict(report: RobustnessReport) -> dict[str, Any]:
    """Serialize a Monte-Carlo robustness report to a JSON-compatible dict.

    The encoding is lossless: ``report_from_dict(report_to_dict(r))``
    reproduces every float bit-for-bit, which is what lets cluster
    checkpoints (:mod:`repro.cluster.checkpoint`) restore finished grid
    cells indistinguishably from recomputing them.
    """
    return {
        "format": "repro.robustness_report",
        "version": FORMAT_VERSION,
        "expected_makespan": _scalar_to_json(report.expected_makespan),
        "avg_slack": _scalar_to_json(report.avg_slack),
        "realized_makespans": report.realized_makespans.tolist(),
        "mean_makespan": _scalar_to_json(report.mean_makespan),
        "mean_tardiness": _scalar_to_json(report.mean_tardiness),
        "miss_rate": _scalar_to_json(report.miss_rate),
        "r1": _scalar_to_json(report.r1),
        "r2": _scalar_to_json(report.r2),
    }


def report_from_dict(payload: dict[str, Any]) -> RobustnessReport:
    """Rebuild a report from :func:`report_to_dict` output, bit-exact."""
    if payload.get("format") != "repro.robustness_report":
        raise ValueError(
            f"not a repro robustness-report payload: {payload.get('format')!r}"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported robustness-report version {payload.get('version')}"
        )
    realized = np.asarray(payload["realized_makespans"], dtype=np.float64)
    realized.setflags(write=False)
    return RobustnessReport(
        expected_makespan=_scalar_from_json(payload["expected_makespan"]),
        avg_slack=_scalar_from_json(payload["avg_slack"]),
        realized_makespans=realized,
        mean_makespan=_scalar_from_json(payload["mean_makespan"]),
        mean_tardiness=_scalar_from_json(payload["mean_tardiness"]),
        miss_rate=_scalar_from_json(payload["miss_rate"]),
        r1=_scalar_from_json(payload["r1"]),
        r2=_scalar_from_json(payload["r2"]),
    )


def save_schedule(schedule: Schedule, path: str | pathlib.Path) -> None:
    """Write a schedule to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=1))


def load_schedule(path: str | pathlib.Path, problem: SchedulingProblem) -> Schedule:
    """Read a schedule from a JSON file and bind it to *problem*."""
    return schedule_from_dict(json.loads(pathlib.Path(path).read_text()), problem)
