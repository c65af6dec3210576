"""Coordinator of the sharded scheduler service.

The coordinator speaks the exact same wire protocol as the single-node
:class:`~repro.service.server.SchedulerService` — clients cannot tell
which one they connected to.  It *is* that service: it runs the same
request pipeline, connection loop and lifecycle, and overrides only
routing (every solve passes through; the shards admit), where a core
comes from on a cache miss (a shard, over the comm layer, instead of a
local solver), its backends (the shards) and its ``status`` sections:

* **routing** — the problem fingerprint is consistent-hashed to a home
  shard (:mod:`repro.service.sharding`); GA requests may be stolen by
  the least-loaded shard when the home backlog is deep;
* **warm starts** — the coordinator owns the warm-start store and
  injects seeds into the payload *before* routing (shards run with the
  store disabled), so sharded responses stay bit-identical to the
  single-node daemon for any shard count;
* **replicated cache** — every core but a relayed shed is written
  through to the coordinator's :class:`ResultCache`, so a repeat request
  is a hit even after the shard that computed it was killed, and
  identical in-flight requests coalesce before they are dispatched;
* **supervision** — a reader task per shard detects comm loss, fails
  the shard's in-flight dispatches, and respawns the shard (bounded by
  ``max_restarts``); failed dispatches are re-routed to live shards,
  which is safe because :func:`repro.service.solvers.execute_payload`
  is a pure function of the payload.

Shards are either in-process :class:`ShardServer` instances over the
``inproc://`` transport (tests, docs) or forked OS processes serving
``tcp://`` (real parallelism; the chaos story).
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import runtime as obs
from repro.service.comm import Comm, CommClosedError, DEFAULT_MAX_FRAME
from repro.service.comm import connect as comm_connect
from repro.service.protocol import ERROR_CODES, ProtocolError
from repro.service.server import SchedulerService, ServiceConfig
from repro.service.shard import ShardServer, shard_config, shard_main
from repro.service.sharding import HashRing, choose_shard

__all__ = ["CoordinatorConfig", "Coordinator", "ShardDown"]

TRANSPORTS = ("inproc", "tcp")

#: Result-cache budget of each shard.
SHARD_CACHE_BYTES = 64 * 1024 * 1024
#: Routing attempts per request when shards die mid-solve.
DISPATCH_ATTEMPTS = 8
#: How the tcp transport starts shard processes.
SHARD_START_METHOD = "fork"

#: :class:`CoordinatorConfig` fields each shard's :class:`ServiceConfig`
#: takes as they are.
_SHARD_FIELDS = (
    "workers",
    "ga_queue_limit",
    "admission_mode",
    "stream_threshold",
    "fast_threads",
    "max_line_bytes",
)

#: Response fields the coordinator strips from a shard reply to recover
#: the cacheable core (everything ``SchedulerService._solve`` adds around
#: the ``execute_payload`` result).
_ENVELOPE_FIELDS = frozenset(
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

#: Distinguishes coordinator inproc namespaces when several coordinators
#: live in one process (the test suite does).
_NAMESPACE = itertools.count(1)


class ShardDown(Exception):
    """The dispatch target died before answering; re-route the request."""


@dataclass(frozen=True)
class CoordinatorConfig:
    """Topology and per-shard knobs of a sharded deployment.

    Attributes
    ----------
    host / port / listen:
        The client-facing bind, same semantics as
        :class:`~repro.service.server.ServiceConfig`.
    shards:
        Number of scheduler-worker shards.
    transport:
        ``"inproc"`` keeps shards in the coordinator's event loop (fast
        to start, no parallelism — tests and docs); ``"tcp"`` forks one
        OS process per shard (real multi-core GA throughput).
    workers / ga_queue_limit / admission_mode / stream_threshold /
    fast_threads / max_line_bytes:
        Forwarded to each shard's :class:`ServiceConfig`, whose checks
        they pass when this config is built.
    cache_bytes:
        Budget of the coordinator's replicated result cache (each shard's
        local cache has :data:`SHARD_CACHE_BYTES`).
    steal_margin:
        Minimum home-vs-least-loaded GA backlog difference before a GA
        request is stolen (see :func:`repro.service.sharding.choose_shard`).
    max_restarts:
        Times one shard may be respawned before it is left dead (the
        ring fails its keys over to the survivors).
    """

    host: str = "127.0.0.1"
    port: int = 0
    listen: str | None = None
    shards: int = 2
    transport: str = "inproc"
    workers: int = 1
    ga_queue_limit: int = 8
    admission_mode: str = "tiered"
    stream_threshold: float = 0.5
    cache_bytes: int = 64 * 1024 * 1024
    fast_threads: int = 4
    max_line_bytes: int = DEFAULT_MAX_FRAME
    steal_margin: int = 1
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )
        if self.steal_margin < 1:
            raise ValueError(f"steal_margin must be >= 1, got {self.steal_margin}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        self._service_config()  # ServiceConfig checks every field it takes

    def _service_config(self) -> ServiceConfig:
        """The coordinator's own :class:`ServiceConfig`: the client-facing
        bind and cache budget, and the fields every shard takes."""
        return ServiceConfig(
            host=self.host,
            port=self.port,
            listen=self.listen,
            cache_bytes=self.cache_bytes,
            **{name: getattr(self, name) for name in _SHARD_FIELDS},
        )


class _ShardHandle:
    """Coordinator-side state of one shard."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.address: str | None = None
        self.pid: int | None = None
        self.alive = False
        self.comm: Comm | None = None
        self.reader: asyncio.Task | None = None
        self.pending: dict[str, asyncio.Future] = {}
        self.ga_inflight = 0
        self.routed = 0
        self.restarts = 0
        # Exactly one backend is set: an in-loop service (inproc) or a
        # forked process plus its report pipe (tcp).
        self.service: ShardServer | None = None
        self.process: mp.process.BaseProcess | None = None

    def fail_pending(self, exc: Exception) -> None:
        pending, self.pending = list(self.pending.values()), {}
        for future in pending:
            if not future.done():
                future.set_exception(exc)
            future.exception()  # nobody may await a re-routed dispatch


class Coordinator(SchedulerService):
    """The client-facing front of a sharded scheduler service.

    Use it exactly like :class:`SchedulerService`::

        coordinator = Coordinator(CoordinatorConfig(shards=4, transport="tcp"))
        asyncio.run(coordinator.run())     # serves until 'shutdown'

    Runs the single-node service's request pipeline, connection loop and
    lifecycle; overrides routing, the core of a cache miss (shard
    dispatch), the backends (the shards) and the ``status`` sections.
    """

    def __init__(
        self,
        config: CoordinatorConfig | None = None,
        *,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.topology = config or CoordinatorConfig()
        super().__init__(self.topology._service_config(), progress=progress)
        self.counters.update(
            routed_home=0,
            routed_stolen=0,
            routed_failover=0,
            dispatch_retries=0,
            shard_restarts=0,
        )
        node_ids = [f"shard-{i}" for i in range(self.topology.shards)]
        self._ring = HashRing(node_ids)
        self._shards = {nid: _ShardHandle(nid) for nid in node_ids}
        self._namespace = f"coord{next(_NAMESPACE)}-{os.getpid()}"
        self._corr = itertools.count(1)
        self._closing = False
        self._aux_tasks: set[asyncio.Task] = set()

    # --------------------------------------------------------------- lifecycle

    async def _start_backends(self) -> None:
        """Spawn the shards (all or none)."""
        try:
            for handle in self._shards.values():
                await self._start_shard(handle)
        except Exception:
            self._closing = True
            for handle in self._shards.values():
                await self._stop_shard(handle, graceful=False)
            raise

    async def aclose(self) -> None:
        """Stop the listener, the client connections, then the shards."""
        self._closing = True
        await super().aclose()

    async def _stop_backends(self) -> None:
        """Cancel supervision, then stop every shard."""
        for task in list(self._aux_tasks):
            task.cancel()
        if self._aux_tasks:
            await asyncio.gather(*self._aux_tasks, return_exceptions=True)
            self._aux_tasks.clear()
        for handle in self._shards.values():
            await self._stop_shard(handle, graceful=True)

    # ---------------------------------------------------------- shard spawning

    def _shard_kwargs(self, node_id: str, listen: str) -> dict[str, Any]:
        return dict(
            {name: getattr(self.topology, name) for name in _SHARD_FIELDS},
            node_id=node_id,
            listen=listen,
            cache_bytes=SHARD_CACHE_BYTES,
        )

    async def _start_shard(self, handle: _ShardHandle) -> None:
        if self.topology.transport == "inproc":
            await self._start_inproc_shard(handle)
        else:
            await self._start_tcp_shard(handle)
        handle.comm = await comm_connect(
            handle.address, max_frame=self.config.max_line_bytes
        )
        handle.alive = True
        handle.reader = asyncio.ensure_future(self._shard_reader(handle))
        self._log(f"shard {handle.node_id} up at {handle.address} (pid {handle.pid})")

    async def _start_inproc_shard(self, handle: _ShardHandle) -> None:
        listen = f"inproc://{self._namespace}-{handle.node_id}-g{handle.restarts}"
        service = ShardServer(
            shard_config(**self._shard_kwargs(handle.node_id, listen))
        )
        await service.start()
        handle.service = service
        handle.address = service.listen_address
        handle.pid = os.getpid()

    async def _start_tcp_shard(self, handle: _ShardHandle) -> None:
        ctx = mp.get_context(SHARD_START_METHOD)
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=shard_main,
            args=(self._shard_kwargs(handle.node_id, "tcp://127.0.0.1:0"), child_conn),
            name=f"repro-{handle.node_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, _recv_report, parent_conn, 15.0
            )
        finally:
            parent_conn.close()
        if "error" in report:
            process.join(timeout=2.0)
            raise RuntimeError(
                f"shard {handle.node_id} failed to start: {report['error']}"
            )
        handle.process = process
        handle.address = f"tcp://127.0.0.1:{report['port']}"
        handle.pid = report["pid"]

    async def _stop_shard(self, handle: _ShardHandle, *, graceful: bool) -> None:
        handle.alive = False
        if graceful and handle.comm is not None and not handle.comm.closed:
            try:
                await asyncio.wait_for(
                    self._shard_rpc(handle, {"op": "shutdown"}), timeout=2.0
                )
            except (ShardDown, CommClosedError, asyncio.TimeoutError):
                pass
        if handle.comm is not None:
            await handle.comm.aclose()
        if handle.reader is not None:
            try:
                await asyncio.wait_for(handle.reader, timeout=2.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                handle.reader.cancel()
            handle.reader = None
        handle.fail_pending(ShardDown(handle.node_id))
        if handle.service is not None:
            await handle.service.aclose()
            handle.service = None
        if handle.process is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, _reap_process, handle.process)
            handle.process = None
        handle.comm = None

    # -------------------------------------------------------------- supervision

    async def _shard_reader(self, handle: _ShardHandle) -> None:
        """Resolve shard replies by correlation id; detect shard death."""
        comm = handle.comm
        try:
            while True:
                reply = await comm.recv()
                future = handle.pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except CommClosedError:
            pass
        except Exception as exc:  # framing bug: treat as shard loss
            self._log(f"shard {handle.node_id} reader failed: {exc!r}")
        finally:
            handle.alive = False
            handle.fail_pending(ShardDown(handle.node_id))
            if not self._closing:
                self._log(f"shard {handle.node_id} lost; supervising restart")
                obs.event("service.shard_lost", node=handle.node_id)
                task = asyncio.ensure_future(self._restart_shard(handle))
                self._aux_tasks.add(task)
                task.add_done_callback(self._aux_tasks.discard)

    async def _restart_shard(self, handle: _ShardHandle) -> None:
        if handle.restarts >= self.topology.max_restarts:
            self._log(
                f"shard {handle.node_id} exceeded max_restarts="
                f"{self.topology.max_restarts}; leaving it down"
            )
            return
        handle.restarts += 1
        self.counters["shard_restarts"] += 1
        obs.add("service.shard_restart")
        old_reader, handle.reader = handle.reader, None
        if old_reader is not None and old_reader is not asyncio.current_task():
            old_reader.cancel()
        try:
            await self._stop_shard(handle, graceful=False)
            await self._start_shard(handle)
        except asyncio.CancelledError:  # coordinator closing
            raise
        except Exception as exc:
            self._log(f"shard {handle.node_id} restart failed: {exc}")

    # ----------------------------------------------------------------- routing

    async def _shard_rpc(
        self, handle: _ShardHandle, message: dict[str, Any]
    ) -> dict[str, Any]:
        """One correlated request/response over the shard's comm."""
        corr = f"x{next(self._corr)}"
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        handle.pending[corr] = future
        try:
            await handle.comm.send(dict(message, id=corr))
        except (CommClosedError, AttributeError) as exc:
            handle.pending.pop(corr, None)
            raise ShardDown(handle.node_id) from exc
        try:
            reply = await asyncio.shield(future)
        finally:
            handle.pending.pop(corr, None)
        return dict(reply)

    def _forward_message(self, request: dict[str, Any]) -> dict[str, Any]:
        """The solve request as re-sent to a shard (sans correlation id)."""
        message: dict[str, Any] = {
            "op": "solve",
            "problem": request["problem"],
            "solver": request["solver"],
            "epsilon": request["epsilon"],
            "seed": request["seed"],
            "n_realizations": request["n_realizations"],
            "warm_start": request["warm_start"],
        }
        if request.get("deadline_s") is not None:
            message["deadline_s"] = request["deadline_s"]
        if request.get("ga"):
            message["ga"] = request["ga"]
        if request.get("warm_seeds"):
            message["warm_seeds"] = request["warm_seeds"]
        return message

    async def _dispatch(
        self, request: dict[str, Any], fingerprint: str
    ) -> dict[str, Any]:
        """Route one solve to a live shard, re-routing across failures.

        Re-dispatch after a shard death cannot double-execute anything
        observable: ``execute_payload`` is a pure function of the
        payload, so a duplicate solve on another shard returns the same
        bits the lost one would have.
        """
        message = self._forward_message(request)
        is_ga = request["solver"] == "ga"
        last_error: Exception | None = None
        for attempt in range(DISPATCH_ATTEMPTS):
            if attempt:
                self.counters["dispatch_retries"] += 1
                obs.add("service.dispatch_retry")
            alive = {
                h.node_id: h.ga_inflight
                for h in self._shards.values()
                if h.alive
            }
            if not alive:
                # Give supervision a beat to respawn someone.
                await asyncio.sleep(0.1)
                last_error = ShardDown("no live shards")
                continue
            decision = choose_shard(
                self._ring,
                fingerprint,
                request["solver"],
                alive,
                steal_margin=self.topology.steal_margin,
            )
            handle = self._shards[decision.node_id]
            handle.routed += 1
            key = (
                "routed_stolen"
                if decision.stolen
                else "routed_failover"
                if decision.failover
                else "routed_home"
            )
            self.counters[key] += 1
            obs.add(f"service.{key}")
            if is_ga:
                handle.ga_inflight += 1
            try:
                reply = await self._shard_rpc(handle, message)
            except ShardDown as exc:
                last_error = exc
                continue
            finally:
                if is_ga:
                    handle.ga_inflight -= 1
            if not reply.get("ok") and (
                (reply.get("error") or {}).get("code") == "shutting-down"
            ):
                # The shard is draining (being replaced); treat like loss.
                last_error = ShardDown(handle.node_id)
                continue
            return reply
        raise ProtocolError(
            "internal",
            f"no shard could serve the request after "
            f"{DISPATCH_ATTEMPTS} attempts: {last_error}",
        )

    # ------------------------------------------------------------------- solve

    def _route(
        self, request: dict[str, Any]
    ) -> tuple[dict[str, Any], str, str | None]:
        """Every solve passes through: the shard that runs it admits it."""
        return request, "coordinator", None

    async def _execute(
        self, request: dict[str, Any], tier: str, fingerprint: str, problem
    ) -> tuple[dict[str, Any], bool, str | None]:
        """Dispatch a cache miss to a shard and relay its answer.

        The shard decodes the payload itself, so *problem* goes unused.

        The shard's ``cached`` flag and shed reason come back with the
        core.  A relayed shed counts as degraded here unless the shard
        answered it from its cache.
        """
        reply = await self._dispatch(request, fingerprint)
        if not reply.get("ok"):
            error = reply.get("error") or {}
            code = error.get("code", "internal")
            raise ProtocolError(
                code if code in ERROR_CODES else "internal",
                error.get("message", "shard error"),
            )
        core = {k: v for k, v in reply.items() if k not in _ENVELOPE_FIELDS}
        cached = bool(reply.get("cached"))
        shed = reply.get("degraded_reason") if reply.get("degraded") else None
        if shed is not None and not cached:
            self.counters["degraded"] += 1
        return core, cached, shed

    # ------------------------------------------------------------------ status

    def _status_sections(self, server: dict[str, Any]) -> dict[str, Any]:
        """The coordinator's ``status`` sections, routing and the shards,
        and its role and transport in *server*."""
        server.update(role="coordinator", transport=self.topology.transport)
        shards = []
        total_inflight = 0
        for handle in self._shards.values():
            total_inflight += handle.ga_inflight
            shards.append(
                {
                    "node_id": handle.node_id,
                    "address": handle.address,
                    "alive": handle.alive,
                    "pid": handle.pid,
                    "ga_inflight": handle.ga_inflight,
                    "routed": handle.routed,
                    "restarts": handle.restarts,
                }
            )
            obs.set_gauge(
                f"service.shard_ga_inflight.{handle.node_id}",
                float(handle.ga_inflight),
            )
        obs.set_gauge(
            "service.shards_alive",
            float(sum(1 for s in shards if s["alive"])),
        )
        return {
            "routing": {
                "home": self.counters["routed_home"],
                "stolen": self.counters["routed_stolen"],
                "failover": self.counters["routed_failover"],
                "dispatch_retries": self.counters["dispatch_retries"],
                "shard_restarts": self.counters["shard_restarts"],
                "steal_margin": self.topology.steal_margin,
            },
            "ga": {"inflight": total_inflight},
            "shards": shards,
        }


def _recv_report(conn, timeout: float) -> dict[str, Any]:
    """Read a shard's startup report from its pipe (blocking helper)."""
    try:
        if not conn.poll(timeout):
            return {"error": f"no startup report within {timeout}s"}
        return conn.recv()
    except (EOFError, OSError) as exc:
        return {"error": f"shard process died during startup: {exc!r}"}


def _reap_process(process: mp.process.BaseProcess) -> None:
    """Join a shard process, escalating to terminate/kill (blocking helper)."""
    process.join(timeout=3.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
    if process.is_alive():  # pragma: no cover - kill is a last resort
        process.kill()
        process.join(timeout=1.0)
