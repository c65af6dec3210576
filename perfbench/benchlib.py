"""Workload-independent pieces of the benchmark.

* the percentile rule (:func:`tail_percentile`): report the highest
  percentile that still has at least ten samples beyond it;
* self-time accounting over ``repro.obs`` span records
  (:func:`layer_self_times`), with the rule ``repro trace-summary``
  uses: a span's self time is its duration minus the durations of its
  direct children;
* seed plumbing (:func:`derive_seeds`): every input of a run comes from
  the run seed and a role name;
* the batch loop (:func:`run_rounds`), which replays a fixed set of
  inputs in whole rounds and checks every result against the first
  round's, with untimed work spread between the rounds;
* the open-loop request generator (:func:`run_open_loop`), which times
  each request from when it was due, not from when it was sent;
* :func:`traced`, which runs a call inside its own ``repro.obs`` session;
* the per-workload :class:`Outcome` and the one-line result record the
  benchmark prints last.

Only :func:`traced` imports ``repro``, and only when called.
"""

from __future__ import annotations

import json
import math
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

#: Candidate percentiles, in tenths of a percent (integers, so that
#: "ten samples beyond p90 out of 100" is not lost to rounding).
PERCENTILE_LADDER = (500, 900, 990, 999)

#: Samples a percentile needs beyond it before it is reported.
MIN_TAIL_SAMPLES = 10

#: Timed rounds a batch run makes however long they take.
MIN_ROUNDS = 3


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of *n* samples beyond it.

    ``None`` when even the median lacks them (fewer than 20 samples).
    """
    best = None
    for per_mille in PERCENTILE_LADDER:
        if n * (1000 - per_mille) >= MIN_TAIL_SAMPLES * 1000:
            best = per_mille / 10.0
    return best


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return percentile(values, 50.0)


# ----------------------------------------------------------------- spans


@dataclass(frozen=True)
class LayerTime:
    """Aggregated time of every span with one name."""

    count: int
    total: float
    self_time: float

    @property
    def mean_self(self) -> float:
        """Self time per span (0 when there are none)."""
        return self.self_time / self.count if self.count else 0.0


def layer_self_times(records: Sequence[dict]) -> dict[str, LayerTime]:
    """Count, total and self time per span name.

    Self time is total duration minus the durations of direct children,
    summed over all spans of the name and floored at zero — the rule of
    ``repro trace-summary``.  A child whose parent is not among the
    records counts as a root.
    """
    spans = [r for r in records if r.get("type") == "span"]
    name_of = {s["id"]: s["name"] for s in spans}
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child_total: dict[str, float] = defaultdict(float)
    for s in spans:
        count[s["name"]] += 1
        total[s["name"]] += s["dur"]
        parent = name_of.get(s["parent"])
        if parent is not None:
            child_total[parent] += s["dur"]
    return {
        name: LayerTime(
            count=count[name],
            total=total[name],
            self_time=max(total[name] - child_total[name], 0.0),
        )
        for name in count
    }


def span_self_times(records: Sequence[dict]) -> dict[int, float]:
    """Self time of each individual span, by span id (same rule)."""
    spans = [r for r in records if r.get("type") == "span"]
    ids = {s["id"] for s in spans}
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] in ids:
            child_total[s["parent"]] += s["dur"]
    return {s["id"]: max(s["dur"] - child_total[s["id"]], 0.0) for s in spans}


def unattributed(records: Sequence[dict], wall: float) -> float:
    """Share of *wall* seconds that no span claims (outside every root span)."""
    roots = sum(r["dur"] for r in records if r.get("type") == "span" and r["parent"] is None)
    return max(wall - roots, 0.0) / wall


def traced(fn: Callable[[], Any]) -> tuple[Any, float, list[dict]]:
    """Run *fn* in its own obs session: (result, seconds, records)."""
    from repro import obs

    sink = obs.InMemorySink()
    obs.enable(sink)
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
    finally:
        session = obs.disable()
    return result, seconds, list(sink.records) + session.registry.export()


# ----------------------------------------------------------------- seeds


def derive_seeds(seed: int, role: str, count: int) -> list[int]:
    """*count* 32-bit seeds for one input role, a pure function of *seed*."""
    sequence = np.random.SeedSequence([int(seed), zlib.crc32(role.encode())])
    return [int(s) for s in sequence.generate_state(count)]


def arrival_offsets(rate: float, duration: float, seed: int) -> list[float]:
    """Poisson arrivals of *rate* over *duration* s, conditioned on their count.

    Exactly ``round(rate * duration)`` arrivals, placed uniformly at
    random and sorted — a Poisson process given its count — so every
    seed offers the same load and only the arrival pattern varies.
    """
    rng = np.random.default_rng(seed)
    count = int(round(rate * duration))
    return sorted(float(t) for t in rng.uniform(0.0, duration, count))


# ------------------------------------------------------------ batch rounds


@dataclass(frozen=True)
class Unit:
    """One input of a batch workload: ``run()`` does ``ops`` operations."""

    run: Callable[[], Any]
    ops: int


@dataclass
class Rounds:
    """What :func:`run_rounds` measured.

    ``reference`` holds the warm-up round's result of each unit (``None``
    where it raised).  ``round_seconds``, ``unit_seconds`` (one list per
    round) and ``completed`` (operations of units that returned) cover
    the timed rounds; ``attempted``/``failed`` count every round.
    """

    reference: list[Any] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    unit_seconds: list[list[float]] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0

    def outcome(self) -> "Outcome":
        """Operations per timed second, and the typical unit latency.

        The latency is each round's median unit time, averaged over the
        rounds: the median keeps one slow unit from moving it, and the
        average over rounds follows the shared machine's slow and fast
        spells in proportion instead of snapping to one of them.
        """
        per_round = [median(times) for times in self.unit_seconds if times]
        return Outcome(
            attempted=self.attempted,
            failed=self.failed,
            throughput=self.completed / sum(self.round_seconds),
            latency=float(np.mean(per_round)),
            samples=[t for times in self.unit_seconds for t in times],
        )


def run_rounds(
    units: Sequence[Unit],
    seconds: float,
    failures: Callable[[Any, Any], int],
    *,
    pauses: Sequence[Callable[[], None]] = (),
    min_rounds: int = MIN_ROUNDS,
    clock: Callable[[], float] = time.perf_counter,
) -> Rounds:
    """Replay every unit in whole rounds: one warm-up, then timed ones.

    The warm-up round gives each unit's reference result.  Timed rounds
    follow until they add up to *seconds* and at least *min_rounds* are
    done, so every run does the same mix of work.  ``failures(result,
    reference)`` is the number of a unit's operations whose output is
    wrong (``reference`` is ``None`` in the warm-up round); a unit that
    raises, or has no reference, fails all its operations.

    Each of *pauses* is called once, untimed, between timed rounds, at
    evenly spaced points of the measured time (see :func:`spread_pauses`).
    """
    out = Rounds()

    def replay(timed: bool) -> None:
        times = []
        for i, unit in enumerate(units):
            out.attempted += unit.ops
            t0 = clock()
            try:
                result = unit.run()
            except Exception:  # a failed operation is data, not a crash
                out.failed += unit.ops
                if not timed:
                    out.reference.append(None)
                continue
            if not timed:
                out.reference.append(result)
                out.failed += min(failures(result, None), unit.ops)
                continue
            times.append(clock() - t0)
            out.completed += unit.ops
            reference = out.reference[i]
            bad = unit.ops if reference is None else failures(result, reference)
            out.failed += min(bad, unit.ops)
        if timed:
            out.unit_seconds.append(times)

    replay(timed=False)
    pause = spread_pauses(pauses, seconds)
    while len(out.round_seconds) < min_rounds or sum(out.round_seconds) < seconds:
        t0 = clock()
        replay(timed=True)
        out.round_seconds.append(clock() - t0)
        pause(sum(out.round_seconds))
    pause(math.inf)
    return out


def spread_pauses(
    pauses: Sequence[Callable[[], None]], seconds: float
) -> Callable[[float], None]:
    """Spread *pauses* over *seconds* of measured time.

    Returns ``due(measured)``, which calls every pause whose turn has
    come: pause ``k`` of ``n`` is due once ``(k + 1) / (n + 1)`` of the
    seconds are measured.  Interleaving the untimed work of a run (the
    set-up probes) with the timed work spreads the measurement over the
    whole run, so a slow spell of a shared machine weighs on it less.
    """
    pending = list(pauses)
    marks = [seconds * (k + 1) / (len(pending) + 1) for k in range(len(pending))]

    def due(measured: float) -> None:
        while pending and measured >= marks[len(marks) - len(pending)]:
            pending.pop(0)()

    return due


@dataclass
class TracedRound:
    """An untraced and a traced round over the same units, after a warm-up."""

    plain: list[Any]
    plain_seconds: float
    traced: list[Any]
    traced_seconds: float
    records: list[dict]

    @property
    def overhead(self) -> float:
        """Traced wall time over untraced wall time, minus 1."""
        return self.traced_seconds / self.plain_seconds - 1.0


def trace_round(units: Sequence[Unit]) -> TracedRound:
    """Warm up, time one untraced round, then trace one round."""
    for unit in units:
        unit.run()
    start = time.perf_counter()
    plain = [unit.run() for unit in units]
    plain_seconds = time.perf_counter() - start
    results, seconds, records = traced(lambda: [unit.run() for unit in units])
    return TracedRound(plain, plain_seconds, results, seconds, records)


# -------------------------------------------------------------- open loop


@dataclass(frozen=True)
class Sent:
    """One open-loop request, times relative to the start of the loop."""

    index: int
    due: float
    sent: float
    done: float
    response: Any
    error: str | None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its response."""
        return self.done - self.due

    @property
    def send_lag(self) -> float:
        """Seconds the generator sent the request late."""
        return self.sent - self.due


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int, int], Any],
    n_conns: int,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sent]:
    """Send request ``i`` at ``offsets[i]`` over *n_conns* connections.

    ``send(conn, i)`` performs request ``i`` on connection ``conn`` and
    returns its response; an exception it raises is recorded as the
    request's error.  Each connection takes the next request in due
    order as soon as it is free, so a slow response delays later
    requests and their due-time latency shows it.
    """
    start = clock()
    records: list[Sent | None] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = iter(range(len(offsets)))

    def worker(conn: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + offsets[i]
            delay = due - clock()
            if delay > 0:
                sleep(delay)
            sent = clock()
            response, error = None, None
            try:
                response = send(conn, i)
            except Exception as exc:  # a failed request is data, not a crash
                error = f"{type(exc).__name__}: {exc}"
            done = clock()
            records[i] = Sent(
                i, due - start, sent - start, done - start, response, error
            )

    if n_conns == 1:
        worker(0)
    else:
        threads = [
            threading.Thread(target=worker, args=(c,), daemon=True)
            for c in range(n_conns)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [r for r in records if r is not None]


# ----------------------------------------------------------------- output


@dataclass
class Outcome:
    """What one untraced workload run measured.

    ``attempted``/``failed`` count the workload's operations (a failed
    output check is a failed operation); ``throughput`` is operations
    per second, ``latency`` the typical seconds of one timed unit,
    ``samples`` every unit's seconds and ``table`` the workload's own
    named metrics, for the human-readable report.
    """

    attempted: int
    failed: int
    throughput: float
    latency: float
    samples: list[float]
    table: list[tuple[str, float, str]] = field(default_factory=list)


@dataclass
class Layers:
    """What one traced workload pass measured: per-layer values by name."""

    attempted: int
    failed: int
    values: dict[str, float]


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
