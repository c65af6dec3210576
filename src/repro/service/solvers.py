"""Deterministic solver execution shared by the server and its clients.

This module **is** the service's bit-identical contract with the direct
Python API: :func:`execute_payload` derives everything from the request
payload alone — never from worker identity, queue position or wall
clock — so a response is reproducible by calling the library directly
with the same inputs:

* heuristics (``heft``, ``cpop`` and every other catalogue name):
  ``component_scheduler(solver).schedule(problem)``;
* ``ga``: ``RobustScheduler(epsilon, params, rng=seed,
  warm_start=seeds).solve(problem)`` — the warm-start seeds the server
  injected (if any) ride in the payload's ``warm_seeds`` field, so the
  run stays a pure function of the payload;
* robustness assessment (always):
  ``assess_robustness(schedule, n_realizations, rng=seed + 1)``.

The ``seed + 1`` derivation keeps the GA's stream (rooted at ``seed``)
and the Monte-Carlo stream independent, mirroring the CLI's convention.
Because the function is module-level and its arguments are a plain JSON
dict and an optional, picklable problem, it is also a valid
:class:`repro.cluster.task.TaskSpec` target — the server runs GA work
through the cluster pool with ``--workers > 1`` and results stay
identical to the inline path.

The server has decoded the problem before it calls
:func:`execute_payload` (to fingerprint it for the cache key), so it
hands that object over instead of having it decoded a second time.  The
contract stays the payload's: a given problem must be the decode of
``request["problem"]``, and the result is the same with or without it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.problem import SchedulingProblem
from repro.ga.engine import GAParams
from repro.io.json_io import (
    problem_from_dict,
    report_to_dict,
    schedule_to_dict,
)
from repro.service.protocol import FAST_SOLVERS

__all__ = ["heuristic_for", "build_ga_params", "solve_params", "execute_payload"]


def heuristic_for(solver: str):
    """The scheduler instance behind one fast-tier solver name: the
    component-algebra catalogue entry of that name."""
    from repro.algebra import component_scheduler

    return component_scheduler(solver)


def build_ga_params(overrides: dict[str, int] | None) -> GAParams:
    """Paper-default :class:`GAParams` with the wire overrides applied."""
    return GAParams(**(overrides or {}))


def solve_params(request: dict[str, Any]) -> dict[str, Any]:
    """The solver parameters that determine a solve's result.

    This is exactly what the result cache keys on (together with the
    problem fingerprint): two requests whose :func:`solve_params` and
    fingerprints agree are guaranteed the same response payload.
    Heuristics ignore ``epsilon`` and the GA overrides, so those fields
    are excluded from their key — a shed GA request therefore lands on
    the same entry as an explicit HEFT request for the instance.
    """
    solver = request["solver"]
    params: dict[str, Any] = {
        "seed": request["seed"],
        "n_realizations": request["n_realizations"],
    }
    if solver not in FAST_SOLVERS:
        params["epsilon"] = request["epsilon"]
        params["ga"] = request.get("ga") or {}
        # Warm-start seeds change the GA trajectory, so they are part of
        # the result's identity.  Digesting the seeds (rather than an
        # on/off flag) keys the cache on what actually seeded the run:
        # requests resolved without seeds — warm_start=false, or an empty
        # store — share one entry, and the key layout predating warm
        # starts is preserved for them.
        seeds = request.get("warm_seeds")
        if seeds:
            params["warm"] = hashlib.sha256(
                json.dumps(seeds, separators=(",", ":")).encode()
            ).hexdigest()[:16]
    return params


def execute_payload(
    request: dict[str, Any], problem: SchedulingProblem | None = None
) -> dict[str, Any]:
    """Solve one normalized request; returns the cacheable response core.

    The returned dict contains only content derived from the request
    (schedule, robustness report, solver identification) — no timings or
    server state — so it can be cached, shipped across the cluster pool
    and compared bit-for-bit against a direct API run.

    *problem*, when given, must be ``problem_from_dict(request["problem"])``
    (the caller's own decode of the same payload); it saves the decode.
    Without it the payload is decoded here.
    """
    from repro.robustness.montecarlo import assess_robustness

    if problem is None:
        problem = problem_from_dict(request["problem"])
    solver = request["solver"]
    seed = request["seed"]
    result: dict[str, Any] = {
        "solver": solver,
        "seed": seed,
        "n_realizations": request["n_realizations"],
    }
    if solver in FAST_SOLVERS:
        schedule = heuristic_for(solver).schedule(problem)
    else:
        from repro.core.robust import RobustScheduler
        from repro.ga.chromosome import Chromosome

        warm_start = [
            Chromosome(order=s["order"], proc_of=s["proc_of"])
            for s in request.get("warm_seeds") or []
        ]
        robust = RobustScheduler(
            epsilon=request["epsilon"],
            params=build_ga_params(request.get("ga")),
            rng=seed,
            warm_start=warm_start or None,
        ).solve(problem)
        schedule = robust.schedule
        result["epsilon"] = request["epsilon"]
        result["m_heft"] = robust.m_heft
        result["ga_generations"] = robust.ga_result.generations
        result["warm_seeds_used"] = len(warm_start)
        # The best chromosome rides along so the server can feed its
        # warm-start store without re-deriving an order from the schedule.
        best = robust.ga_result.best.chromosome
        result["ga_chromosome"] = {
            "order": best.order.tolist(),
            "proc_of": best.proc_of.tolist(),
        }
    report = assess_robustness(schedule, request["n_realizations"], rng=seed + 1)
    result["schedule"] = schedule_to_dict(schedule)
    result["report"] = report_to_dict(report)
    return result
