"""``stream-overload``: seeded Poisson DAG-job streams at 1.5x load.

One unit replays one stream through ``run_stream`` under each of the
``none``, ``prune`` (probabilistic pruning, arXiv 1901.09312) and
``drop`` (autonomous dropping, arXiv 2005.11050) shedding policies; a
round replays all ``STREAMS`` streams.  It loads the multi-job event
loop and the shedding policies; the GA and the service do none of the
work.  The output that judges the policies, the on-time rate, is
reported beside the timings.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from benchlib import (
    Layers,
    Outcome,
    Unit,
    derive_seeds,
    percentile,
    run_rounds,
    trace_round,
    unattributed,
)
from repro.graph import _native
from repro.stream import StreamParams, build_workload, make_policy, run_stream

LOAD = 1.5
POLICIES = ("none", "prune", "drop")
STREAMS = 12


@dataclasses.dataclass
class State:
    streams: list
    build_seconds: float


def setup(seed: int, seconds: float) -> State:
    _native.get_lib()
    t0 = time.perf_counter()
    streams = [
        build_workload(StreamParams(load=LOAD, seed=s))
        for s in derive_seeds(seed, "stream-overload", STREAMS)
    ]
    return State(streams, (time.perf_counter() - t0) / STREAMS)


def close(state: State) -> None:
    pass


def _replay(stream, latency_out=None, seconds=None) -> dict:
    """One stream under every policy: {policy: result}."""
    out = {}
    for name in POLICIES:
        t0 = time.perf_counter()
        out[name] = run_stream(stream, make_policy(name), latency_out=latency_out)
        if seconds is not None:
            seconds[name].append(time.perf_counter() - t0)
    return out


def _units(state: State, **kwargs) -> list[Unit]:
    return [
        Unit(lambda s=stream: _replay(s, **kwargs), len(POLICIES) * stream.n_jobs)
        for stream in state.streams
    ]


def _signature(result) -> str:
    """Everything the run decided, in a form that compares NaN equal."""
    return repr((result.outcomes, result.horizon, result.n_deferrals, result.busy_time))


def _failures(runs: dict, reference: dict | None) -> int:
    """Jobs of runs that lost a job or decided differently than before."""
    failed = 0
    for name, result in runs.items():
        terminal = result.n_on_time + result.n_late + result.n_dropped + result.n_rejected
        valid = result.n_jobs == len(result.outcomes) == terminal
        same = reference is None or _signature(result) == _signature(reference[name])
        if not (valid and same):
            failed += result.n_jobs
    return failed


def _on_time_rate(replays) -> float:
    """Mean on-time rate over every (stream, policy) run."""
    return float(np.mean([r.on_time_rate for runs in replays for r in runs.values()]))


def measure(state: State, seconds: float, pauses=()) -> Outcome:
    units = _units(state)
    rounds = run_rounds(units, seconds, _failures, pauses=pauses)
    outcome = rounds.outcome()
    outcome.table = [
        ("jobs_per_s", outcome.throughput, "1/s"),
        ("on_time_rate", _on_time_rate(rounds.reference), "ratio"),
    ]
    return outcome


def layers(state: State) -> Layers:
    dispatch: list[float] = []
    run_seconds: dict[str, list[float]] = {name: [] for name in POLICIES}
    # The untraced round samples per-policy run time and every dispatch
    # decision; the traced round collects the ``stream.*`` spans.
    units = _units(state, latency_out=dispatch, seconds=run_seconds)
    rnd = trace_round(units)
    n_warm = len(dispatch) // 3  # warm-up, untraced and traced rounds
    decisions = dispatch[n_warm : 2 * n_warm]
    failed = sum(_failures(r, p) for r, p in zip(rnd.traced, rnd.plain))
    plain_runs = [r for runs in rnd.plain for r in runs.values()]
    values = {
        f"stream.run_ms.{name}": float(np.mean(ts[len(state.streams) : 2 * len(state.streams)]))
        * 1e3
        for name, ts in run_seconds.items()
    }
    values.update(
        {
            "stream.dispatch_us.p50": percentile(decisions, 50) * 1e6,
            "stream.dispatch_us.p90": percentile(decisions, 90) * 1e6,
            "stream.decisions": len(decisions),
            "stream.shed_jobs": sum(r.n_dropped + r.n_rejected for r in plain_runs),
            "stream.goodput": float(np.mean([r.goodput for r in plain_runs])),
            "stream.on_time_rate": _on_time_rate(rnd.plain),
            "stream.build_workload_s": state.build_seconds,
            "obs.overhead_frac": rnd.overhead,
            "bench.unattributed_frac": unattributed(rnd.records, rnd.traced_seconds),
        }
    )
    return Layers(
        attempted=2 * sum(u.ops for u in units), failed=failed, values=values
    )
