"""``service-mix``: an open loop against a sharded ``Coordinator``.

``RATE`` x ``--seconds`` requests arrive at seeded Poisson times
(conditioned on their count), over at most ``nproc`` TCP connections to
a coordinator with at most ``nproc`` inproc shards and fast threads.
``RATE`` is about a quarter of what a 2-core machine serves of this mix
in a closed loop (82-91 requests/s): at half of it, queueing behind the
GA solves amplified the shared machine's slow spells until the median
latency varied by a quarter between runs.  The mix, in exact shares
shuffled by the seed:

* ``REPEAT_SHARE`` repeats of earlier requests (cache reads);
* ``GA_SHARE`` distinct small GA solves (cache writes through the GA
  admission tier), half of them with warm starts allowed;
* the rest distinct HEFT or component-catalogue requests.

Every request is timed from when it was due, so a stall shows in the
requests queued behind it.  The fixed per-request cost of protocol,
cache, admission, sharding and comm dominates; GA init is a large share
of each 20-generation solve.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import threading
import time

import numpy as np

from benchlib import (
    Layers,
    Outcome,
    arrival_offsets,
    derive_seeds,
    layer_self_times,
    median,
    percentile,
    run_open_loop,
    span_self_times,
)
from repro import obs
from repro.core.problem import SchedulingProblem
from repro.graph import _native
from repro.graph.generator import DagParams
from repro.io.json_io import problem_to_dict
from repro.platform.uncertainty import UncertaintyParams
from repro.service import Coordinator, CoordinatorConfig, ServiceClient, execute_payload
from repro.service.protocol import ALGEBRA_SOLVERS, normalize_request

RATE = 20.0
REPEAT_SHARE = 0.30
GA_SHARE = 0.10
N_TASKS = 40
N_REALIZATIONS = 200
GA_OVERRIDES = {"max_iterations": 20, "stagnation_limit": 20}
FAST_SOLVERS = ("heft",) + ALGEBRA_SOLVERS
CHECK_SAMPLE = 16

#: Response fields that describe how a request was served, not its result.
ENVELOPE = frozenset(
    {
        "ok",
        "protocol",
        "id",
        "cached",
        "coalesced",
        "degraded",
        "warm_seeds",
        "elapsed_s",
        "requested_solver",
        "degraded_reason",
    }
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Server:
    """A coordinator with inproc shards, served from its own thread."""

    def __init__(self) -> None:
        width = nproc()
        self.coordinator = Coordinator(
            CoordinatorConfig(
                port=0,
                shards=width,
                transport="inproc",
                workers=1,
                fast_threads=width,
                ga_queue_limit=256,
            )
        )
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 60
        while self.coordinator.port is None:
            if not self._thread.is_alive() or time.monotonic() > deadline:
                raise RuntimeError(f"coordinator failed to start: {self._error!r}")
            time.sleep(0.005)
        self.clients = [
            ServiceClient("127.0.0.1", self.coordinator.port, timeout=60)
            for _ in range(width)
        ]

    def _serve(self) -> None:
        try:
            asyncio.run(self.coordinator.run())
        except BaseException as exc:  # reported by __init__, then re-raised
            self._error = exc
            raise

    def status(self) -> dict:
        return self.clients[0].status()

    def close(self) -> None:
        try:
            self.clients[0].shutdown()
        except OSError:
            pass
        for client in self.clients:
            client.close()
        self._thread.join(timeout=60)


@dataclasses.dataclass
class State:
    offsets: list[float]
    kinds: list[str]
    messages: list[dict]
    check: list[int]
    server: Server | None


def _problem(seed: int) -> dict:
    return problem_to_dict(
        SchedulingProblem.random(
            m=4,
            dag_params=DagParams(n=N_TASKS),
            uncertainty_params=UncertaintyParams(mean_ul=2.0),
            rng=seed,
        )
    )


def _solve(rng, request_id: int, solver: str) -> dict:
    message = {
        "op": "solve",
        "id": request_id,
        "problem": _problem(int(rng.integers(2**31))),
        "seed": int(rng.integers(2**31)),
        "n_realizations": N_REALIZATIONS,
        "solver": solver,
    }
    if solver == "ga":
        message.update(epsilon=1.2, ga=GA_OVERRIDES, warm_start=bool(rng.integers(2)))
    return message


def build_requests(seed: int, seconds: float) -> tuple[list[float], list[str], list[dict]]:
    """The request schedule: due offsets, kinds and wire messages."""
    arrival_seed, mix_seed = derive_seeds(seed, "service-mix", 2)
    offsets = arrival_offsets(RATE, seconds, arrival_seed)
    n = len(offsets)
    n_repeat, n_ga = round(REPEAT_SHARE * n), round(GA_SHARE * n)
    n_fast = n - n_repeat - n_ga
    rng = np.random.default_rng(mix_seed)
    # The first request is distinct, so every repeat has one to repeat;
    # the fast solvers take equal shares of the fast requests.
    kinds = ["fast"] + list(
        rng.permutation(["repeat"] * n_repeat + ["ga"] * n_ga + ["fast"] * (n_fast - 1))
    )
    solvers = iter(rng.permutation(np.resize(FAST_SOLVERS, n_fast)))
    messages: list[dict] = []
    cacheable: list[int] = []  # a GA repeat hits the cache only without warm starts
    for i, kind in enumerate(kinds):
        if kind == "repeat":
            source = messages[cacheable[int(rng.integers(len(cacheable)))]]
            messages.append(dict(source, id=i))
            continue
        message = _solve(rng, i, "ga" if kind == "ga" else str(next(solvers)))
        if not message.get("warm_start"):
            cacheable.append(i)
        messages.append(message)
    return offsets, [str(k) for k in kinds], messages


def setup(seed: int, seconds: float) -> State:
    _native.get_lib()
    warm_seed, check_seed = derive_seeds(seed, "service-aux", 2)
    # The first solves of a process run slow; pay for them here.
    warm_rng = np.random.default_rng(warm_seed)
    for solver in ("heft", "ga"):
        execute_payload(normalize_request(_solve(warm_rng, 0, solver)))
    offsets, kinds, messages = build_requests(seed, seconds)
    sample = np.random.default_rng(check_seed).choice(
        len(messages), size=min(CHECK_SAMPLE, len(messages)), replace=False
    )
    return State(offsets, kinds, messages, sorted(int(i) for i in sample), Server())


def close(state: State) -> None:
    if state.server is not None:
        state.server.close()
        state.server = None


def _drive(state: State, server: Server, pauses=()) -> tuple[list, float]:
    """Send the schedule: (every request, seconds the sending took).

    With *pauses*, the schedule goes out in ``len(pauses) + 1`` slices of
    equal count, each slice's clock starting at its first due time, and
    one pause runs, untimed, between consecutive slices.
    """
    sent, seconds = [], 0.0
    for k, part in enumerate(np.array_split(np.arange(len(state.offsets)), len(pauses) + 1)):
        base = int(part[0])
        offsets = [state.offsets[i] - state.offsets[base] for i in part]

        def send(conn: int, i: int, base=base) -> dict:
            return server.clients[conn].request(state.messages[base + i])

        records = run_open_loop(offsets, send, len(server.clients))
        sent += [dataclasses.replace(r, index=r.index + base) for r in records]
        seconds += max(r.done for r in records)
        if k < len(pauses):
            pauses[k]()
    return sent, seconds


def _klass(kind: str, response: dict) -> str:
    if response.get("cached"):
        return "cached"
    if response.get("coalesced"):
        return "coalesced"
    return "ga_cold" if kind == "ga" else "heft_cold"


def _ok(sent) -> list:
    return [r for r in sent if not r.error and r.response.get("ok")]


def _failures(state: State, sent) -> int:
    """Errors, plus sampled responses that differ from a direct solve."""
    failed = len(sent) - len(_ok(sent))
    for i in state.check:
        if i >= len(sent) or sent[i].error:
            continue
        response = sent[i].response
        if not response.get("ok") or response.get("degraded") or response.get("warm_seeds"):
            continue
        core = {k: v for k, v in response.items() if k not in ENVELOPE}
        expected = execute_payload(normalize_request(state.messages[i]))
        if json.dumps(core, sort_keys=True) != json.dumps(expected, sort_keys=True):
            failed += 1
    return failed


def _client_view(sent) -> list[tuple[str, float, str]]:
    """What the client saw beyond the latency: cache hits, degraded share, lag."""
    ok = _ok(sent)
    cached = [r.latency for r in ok if r.response.get("cached")]
    degraded = sum(1 for r in ok if r.response.get("degraded"))
    return [
        ("cached_p50_ms", median(cached) * 1e3, "ms"),
        ("degraded_frac", degraded / len(sent), "ratio"),
        ("send_lag_p90_ms", percentile([r.send_lag for r in sent], 90) * 1e3, "ms"),
    ]


def measure(state: State, seconds: float, pauses=()) -> Outcome:
    sent, elapsed = _drive(state, state.server, pauses)
    ok = _ok(sent)
    latencies = [r.latency for r in ok]
    return Outcome(
        attempted=len(sent),
        failed=_failures(state, sent),
        throughput=len(ok) / elapsed,
        latency=median(latencies),
        samples=latencies,
        table=[("offered_rate", RATE, "1/s")] + _client_view(sent),
    )


def _rtt_p50(sent, state: State, klass: str) -> float:
    rtts = [
        r.done - r.sent
        for r in sent
        if r.response and _klass(state.kinds[r.index], r.response) == klass
    ]
    return median(rtts) * 1e3 if rtts else 0.0


def layers(state: State) -> Layers:
    """An untraced and a traced pass over the request schedule.

    The traced pass runs against a fresh server, so both passes see the
    same cache states.
    """
    plain, _ = _drive(state, state.server)
    status = state.server.status()
    failed = _failures(state, plain)
    close(state)

    sink = obs.InMemorySink()
    obs.enable(sink)
    try:
        server = Server()
        try:
            traced, _ = _drive(state, server)
        finally:
            server.close()
    finally:
        session = obs.disable()
    records = list(sink.records) + session.registry.export()
    failed += _failures(state, traced)

    spans = [r for r in records if r.get("type") == "span"]
    own = span_self_times(records)
    coordinator = [
        s
        for s in spans
        if s["name"] == "service.request"
        and "node" not in s["attrs"]
        and s["attrs"].get("op") == "solve"
    ]
    shard = [s for s in spans if s["name"] == "service.request" and "node" in s["attrs"]]
    coord_cached = [s["dur"] for s in coordinator if s["attrs"].get("cached")]
    lt = layer_self_times(records)
    requests = status["requests"]
    cache = status["cache"]
    rtt_plain = [r.done - r.sent for r in plain]
    rtt_traced = [r.done - r.sent for r in traced]
    values = {name: value for name, value, _ in _client_view(plain)}
    values["bench.send_lag_ms"] = values.pop("send_lag_p90_ms")
    values["latency_p90_ms"] = percentile([r.latency for r in _ok(plain)], 90) * 1e3
    values.update(
        {
            f"service.rtt_ms.{klass}": _rtt_p50(plain, state, klass)
            for klass in ("heft_cold", "cached", "ga_cold")
        }
    )
    values.update(
        {
            "service.coordinator_ms": median([own[s["id"]] for s in coordinator]) * 1e3,
            "service.transport_ms": max(
                _rtt_p50(traced, state, "cached") - median(coord_cached) * 1e3, 0.0
            ),
            "service.shard_ms": median([s["dur"] for s in shard]) * 1e3,
            "ga.init_ms": lt["ga.run"].mean_self * 1e3,
            "ga.generation_ms": lt["ga.generation"].mean_self * 1e3,
            "service.cache_hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
            "service.coalesced": requests["coalesced"],
            "service.shed": requests["degraded"],
            "service.routing.stolen": status["routing"]["stolen"],
            "service.warm_start_hits": requests["warm_start_hits"],
            "obs.overhead_frac": median(rtt_traced) / median(rtt_plain) - 1.0,
            "bench.unattributed_frac": max(
                sum(rtt_traced) - sum(s["dur"] for s in coordinator), 0.0
            )
            / sum(rtt_traced),
        }
    )
    return Layers(attempted=len(plain) + len(traced), failed=failed, values=values)
