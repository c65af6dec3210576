"""The scheduler-as-a-service daemon.

One asyncio event loop owns all serving state — cache, admission
counters, the coalescing map — while the actual solving happens off the
loop: heuristics on a small thread pool, GA work on a
:class:`repro.cluster.scheduler.Scheduler` driven through its
non-blocking ``submit``/``poll`` API by a dedicated backend thread
(in-process when ``workers <= 1``, a supervised process pool above
that).  The split mirrors dask ``distributed``: the server is a state
machine that must never block, and computation is somebody else's
problem.

Request lifecycle for ``solve``::

    decode -> normalize -> deserialize problem (fingerprint check)
      -> route                      admission: fast | ga | shed
      -> warm start                 (GA seeds join the payload)
      -> cache lookup               (content-addressed; hit -> respond)
      -> coalesce                   (identical in-flight solve -> share it)
      -> execute                    (fast executor | GA backend)
      -> cache store -> respond

The problem is deserialized once per process: :meth:`_solve` decodes it,
and the same object goes through :meth:`_compute` and :meth:`_execute`
to :func:`~repro.service.solvers.execute_payload` (pickled to the worker
when the GA tier runs a process pool), which therefore does not decode
it again.

:class:`SchedulerService` owns each of these steps, the connection loop
and the lifecycle once.  The sharded deployment's
:class:`~repro.service.coordinator.Coordinator` and
:class:`~repro.service.shard.ShardServer` are subclasses that override
only the steps whose behaviour differs: routing (:meth:`_route`), where
a core comes from on a cache miss (:meth:`_execute`), the backends
(:meth:`_start_backends` / :meth:`_stop_backends`), when a frame is
answered (:meth:`_answer`) and the role's ``status`` sections
(:meth:`_status_sections`).

Shedding is *service degradation*, not failure: an overloaded GA tier
answers with the HEFT schedule for the same instance and seed, flagged
``degraded: true`` — the client always gets a valid schedule (see
``docs/service.md`` for the overload semantics).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.io.features import problem_features
from repro.io.json_io import problem_fingerprint, problem_from_dict
from repro.obs import runtime as obs
from repro.service.admission import ADMISSION_MODES, AdmissionController
from repro.service.cache import ResultCache, cache_key
from repro.service.comm import (
    Comm,
    CommClosedError,
    DEFAULT_MAX_FRAME,
    FrameTooLargeError,
)
from repro.service.comm import listen as comm_listen
from repro.service.warmstart import WarmStartStore
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SOLVERS,
    ProtocolError,
    decode,
    error_response,
    normalize_request,
    ok_response,
)
from repro.service.solvers import execute_payload, solve_params

__all__ = ["ServiceConfig", "SchedulerService"]

#: Seconds ``shutdown`` waits for in-flight requests before closing.
DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon knobs (all have serving-friendly defaults).

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` asks the OS for a free port (the bound
        port is in :attr:`SchedulerService.port` after ``start``).
    workers:
        GA executor slots.  ``<= 1`` solves in-process on the backend
        thread (no pickling, the bit-identical serial path); above that
        the backend drives a supervised ``repro.cluster`` process pool.
    ga_queue_limit:
        GA requests allowed to *wait* beyond the running ones; the
        excess is shed to the degraded heuristic tier.
    admission_mode:
        ``"tiered"`` (EWMA point estimate) or ``"stream"``
        (probabilistic on-time-start test from the streaming
        subsystem); see :mod:`repro.service.admission`.  In both modes
        a shed request is served the degraded fallback inline and is
        never enqueued for the GA executor.
    stream_threshold:
        Stream mode only: shed a GA request whose on-time start
        probability is below this value.
    cache_bytes:
        Result cache budget (encoded-JSON bytes).
    fast_threads:
        Thread-pool width for the heuristic tier.
    listen:
        Explicit comm address (``tcp://host:port`` or ``inproc://name``)
        overriding ``host``/``port``.  This is how a shard serves over
        the in-process transport; the default is the classic TCP bind.
    node_id:
        Identity stamped into spans/gauges and the ``status`` payload
        when this service runs as a shard.  Empty for the plain
        single-node daemon (keeping its telemetry names unchanged).
    max_line_bytes:
        Per-frame byte limit on every connection.  An over-limit request
        line is answered with a clean ``bad-request`` error before the
        connection closes (it cannot be resynchronized mid-frame).
    warm_start_enabled:
        Whether this node consults/feeds the warm-start store.  Shards
        disable it — the coordinator owns warm starts so sharded
        responses stay bit-identical to the single-node path.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    ga_queue_limit: int = 8
    admission_mode: str = "tiered"
    stream_threshold: float = 0.5
    cache_bytes: int = 64 * 1024 * 1024
    fast_threads: int = 4
    listen: str | None = None
    node_id: str = ""
    max_line_bytes: int = DEFAULT_MAX_FRAME
    warm_start_enabled: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.ga_queue_limit < 0:
            raise ValueError(
                f"ga_queue_limit must be >= 0, got {self.ga_queue_limit}"
            )
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.max_line_bytes < 1024:
            raise ValueError(
                f"max_line_bytes must be >= 1024, got {self.max_line_bytes}"
            )
        if self.admission_mode not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.admission_mode!r}; "
                f"choose from {ADMISSION_MODES}"
            )
        if not 0.0 <= self.stream_threshold <= 1.0:
            raise ValueError(
                f"stream_threshold must be in [0, 1], got {self.stream_threshold}"
            )
        if self.fast_threads < 1:
            raise ValueError(f"fast_threads must be >= 1, got {self.fast_threads}")


class _GaBackend:
    """Feeds GA jobs to a cluster Scheduler from a daemon thread.

    The event loop hands ``(payload, problem, future)`` jobs over a
    thread-safe queue; the thread submits them to the incremental
    scheduler and resolves the asyncio futures back on the loop as
    outcomes arrive.
    With one worker the scheduler's serial path runs the solve inline on
    this thread, which is exactly the single-slot GA tier.  With no job in
    flight the thread blocks on the queue, so a request that reaches an
    idle tier is submitted at once; :meth:`stop` wakes it with a ``None``
    sentinel.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, n_workers: int) -> None:
        self._loop = loop
        self._n_workers = n_workers
        self._jobs: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-ga", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        self._jobs.put(None)  # wakes an idle thread; in-flight jobs finish
        self._thread.join(timeout=timeout)

    def submit(self, payload: dict, problem, future: asyncio.Future) -> None:
        self._jobs.put((payload, problem, future))

    # ----------------------------------------------------------- thread side

    def _run(self) -> None:
        from repro.cluster.scheduler import ClusterConfig, Scheduler
        from repro.cluster.task import TaskSpec

        scheduler = Scheduler(
            ClusterConfig(n_workers=self._n_workers, poll_interval=0.02)
        )
        pending: dict[str, asyncio.Future] = {}
        seq = 0
        stopping = False
        block = True
        try:
            while True:
                while True:
                    try:
                        job = self._jobs.get(block=block)
                    except queue.Empty:
                        break
                    block = False
                    if job is None:
                        stopping = True
                        continue
                    payload, problem, future = job
                    seq += 1
                    pending[f"ga-{seq}"] = future
                    scheduler.submit(
                        TaskSpec(
                            key=f"ga-{seq}",
                            fn=execute_payload,
                            args=(payload, problem),
                            max_retries=1,
                        )
                    )
                if not pending:
                    if stopping:
                        break
                    # Idle: sleep on the queue until a job or stop() arrives.
                    block = True
                    continue
                for outcome in scheduler.poll(timeout=0.05):
                    future = pending.pop(outcome.key)
                    if outcome.ok:
                        self._post(future.set_result, outcome.result)
                    else:
                        self._post(
                            future.set_exception,
                            RuntimeError(outcome.error or "GA task failed"),
                        )
        finally:
            scheduler.close()
            for future in pending.values():
                self._post(
                    future.set_exception, RuntimeError("service shutting down")
                )

    def _post(self, setter: Callable, value: Any) -> None:
        def apply() -> None:
            future = setter.__self__
            if not future.done():
                setter(value)

        self._loop.call_soon_threadsafe(apply)


class SchedulerService:
    """The daemon: accepts JSON-lines connections, serves schedules.

    Typical embedded use (the CLI's ``repro serve`` does the same) ::

        service = SchedulerService(ServiceConfig(port=0, workers=2))
        asyncio.run(service.run())            # serves until 'shutdown'

    or, for tests, ``start()``/``aclose()`` inside an existing loop.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.progress = progress
        self.cache = ResultCache(self.config.cache_bytes)
        self.admission = AdmissionController(
            self.config.ga_queue_limit,
            self.config.workers,
            mode=self.config.admission_mode,
            stream_threshold=self.config.stream_threshold,
        )
        self.warm_store = WarmStartStore()
        self.port: int | None = None
        self.counters: dict[str, int] = {
            "requests": 0,
            "solve": 0,
            "status": 0,
            "ping": 0,
            "errors": 0,
            "degraded": 0,
            "coalesced": 0,
            "warm_start_hits": 0,
            "warm_start_misses": 0,
        }
        self._inflight: dict[str, asyncio.Future] = {}
        self._ga_inflight = 0
        self._active = 0
        self._draining = False
        self._started = time.monotonic()
        self._listener = None
        self._backend: _GaBackend | None = None
        self._fast_executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._shutdown_event: asyncio.Event | None = None
        # Every task serving a connection: its read loop, and on a shard
        # each frame it answers in a task of its own.
        self._conn_tasks: set[asyncio.Task] = set()
        self._conns: set[Comm] = set()
        # Telemetry names stay unchanged on the classic single node; a
        # shard suffixes its node id so per-shard gauges don't collide.
        self._gauge_suffix = (
            f".{self.config.node_id}" if self.config.node_id else ""
        )

    @property
    def listen_address(self) -> str:
        """The comm address this service serves (or would serve) on."""
        if self._listener is not None:
            return self._listener.address
        return self.config.listen or f"tcp://{self.config.host}:{self.config.port}"

    # --------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start the backends, then bind the listener."""
        self._shutdown_event = asyncio.Event()
        await self._start_backends()
        self._listener = await comm_listen(
            self.listen_address,
            self._handle_comm,
            max_frame=self.config.max_line_bytes,
        )
        self.port = self._listener.port
        self._started = time.monotonic()
        self._log(
            f"listening on {self._listener.address} "
            f"(workers={self.config.workers}, "
            f"ga_queue_limit={self.config.ga_queue_limit})"
        )

    async def _start_backends(self) -> None:
        """Start the fast-tier thread pool and the GA backend."""
        self._fast_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.fast_threads,
            thread_name_prefix="repro-service-fast",
        )
        self._backend = _GaBackend(asyncio.get_running_loop(), self.config.workers)
        self._backend.start()

    async def run(self) -> None:
        """Serve until a ``shutdown`` request, then drain and close."""
        await self.start()
        try:
            await self._shutdown_event.wait()
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while self._active > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            await asyncio.sleep(0.05)  # let the final acks flush
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting connections and release every resource."""
        if self._listener is not None:
            await self._listener.aclose()
            self._listener = None
        # Established connections are not closed by the listener.  Close
        # their comms so each handler unblocks with EOF and finishes on
        # its own (cancelling the tasks instead trips a noisy
        # StreamReaderProtocol callback on CPython 3.11), then cancel any
        # straggler as a last resort.
        for comm in list(self._conns):
            await comm.aclose()
        if self._conn_tasks:
            _, stragglers = await asyncio.wait(
                list(self._conn_tasks), timeout=5.0
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
            self._conn_tasks.clear()
        self._conns.clear()
        await self._stop_backends()
        self._log("stopped")

    async def _stop_backends(self) -> None:
        """Stop the GA backend and the fast-tier thread pool."""
        if self._backend is not None:
            self._backend.stop()
            self._backend = None
        if self._fast_executor is not None:
            self._fast_executor.shutdown(wait=False, cancel_futures=True)
            self._fast_executor = None

    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # ------------------------------------------------------------- connections

    async def _handle_comm(self, comm: Comm) -> None:
        """Serve one connection: one response per request frame.

        Responses go out whole, behind one write lock per connection, so
        :meth:`_answer` may answer frames concurrently.
        """
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conns.add(comm)
        lock = asyncio.Lock()

        async def reply(message: dict[str, Any]) -> bool:
            async with lock:
                try:
                    await comm.send(message)
                except CommClosedError:
                    return False
            return True

        try:
            while True:
                try:
                    line = await comm.read_frame()
                except FrameTooLargeError:
                    # The channel cannot be resynchronized mid-frame:
                    # answer with a clean protocol error, then close.
                    self.counters["errors"] += 1
                    obs.add("service.errors")
                    await reply(
                        error_response(
                            None,
                            "bad-request",
                            "request line exceeds the "
                            f"{self.config.max_line_bytes} byte limit; "
                            "closing the connection",
                        )
                    )
                    break
                except CommClosedError:
                    break
                if line.strip() and not await self._answer(line, reply):
                    break
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conns.discard(comm)
            await comm.aclose()

    async def _answer(
        self, line: bytes, reply: Callable[[dict[str, Any]], Awaitable[bool]]
    ) -> bool:
        """Answer one frame before the next is read, so responses keep
        request order; False once the peer is gone."""
        return await reply(await self._respond(line))

    async def _respond(self, line: bytes) -> dict[str, Any]:
        self.counters["requests"] += 1
        obs.add("service.requests")
        try:
            request = normalize_request(decode(line))
        except ProtocolError as exc:
            self.counters["errors"] += 1
            obs.add("service.errors")
            return error_response(None, exc.code, str(exc))
        op = request["op"]
        request_id = request.get("id")
        self._active += 1
        try:
            attrs = {"op": op}
            if self.config.node_id:
                attrs["node"] = self.config.node_id
            with obs.trace("service.request", **attrs) as span:
                if op == "ping":
                    self.counters["ping"] += 1
                    return ok_response(request_id, op="ping")
                if op == "status":
                    self.counters["status"] += 1
                    return self._status_response(request_id)
                if op == "shutdown":
                    self._draining = True
                    # Ack first; run() drains after the event fires.
                    asyncio.get_running_loop().call_soon(
                        self._shutdown_event.set
                    )
                    return ok_response(request_id, op="shutdown")
                return await self._solve(request, span)
        except ProtocolError as exc:
            self.counters["errors"] += 1
            obs.add("service.errors")
            return error_response(request_id, exc.code, str(exc))
        except Exception as exc:  # solver bug: report, keep serving
            self.counters["errors"] += 1
            obs.add("service.errors")
            return error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._active -= 1

    # ------------------------------------------------------------------ solve

    async def _solve(self, request: dict[str, Any], span) -> dict[str, Any]:
        if self._draining:
            raise ProtocolError("shutting-down", "server is shutting down")
        self.counters["solve"] += 1
        t0 = time.perf_counter()
        try:
            problem = problem_from_dict(request["problem"])
            fingerprint = problem_fingerprint(problem)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(
                "bad-problem", f"problem payload rejected: {exc}"
            ) from exc

        request, tier, shed = self._route(request)
        span.set(solver=request["solver"], tier=tier)

        request, features, warm_seeds_count = self._apply_warm_start(
            request, problem
        )

        key = cache_key(
            fingerprint, request["solver"], **solve_params(request)
        )
        core, cached, coalesced, relayed = await self._compute(
            key, request, tier, fingerprint, problem
        )
        shed = shed or relayed

        self._record_warm_start(core, problem, fingerprint, features)
        span.set(cached=cached, degraded=shed is not None)
        obs.add("service.cache_hit" if cached else "service.cache_miss")
        response = ok_response(request["id"], **core)
        response["cached"] = cached
        response["coalesced"] = coalesced
        response["degraded"] = shed is not None
        response["warm_seeds"] = warm_seeds_count
        if shed is not None:
            response["requested_solver"] = "ga"
            response["degraded_reason"] = shed
        response["elapsed_s"] = time.perf_counter() - t0
        return response

    def _route(
        self, request: dict[str, Any]
    ) -> tuple[dict[str, Any], str, str | None]:
        """Admission: the solve's tier, and the reason if it is shed.

        A shed GA request becomes the HEFT request for the same instance
        and seed before its cache key forms, so it shares an explicit
        HEFT request's entry.  It counts as degraded here, at admission,
        even when that entry is a hit.
        """
        decision = self.admission.route(
            request["solver"], self._ga_inflight, request["deadline_s"]
        )
        if decision.tier != "shed":
            return request, decision.tier, None
        self.counters["degraded"] += 1
        obs.add("service.shed")
        obs.event(
            "service.shed", solver=request["solver"], reason=decision.reason
        )
        return dict(request, solver="heft"), decision.tier, decision.reason

    # ------------------------------------------------------------ warm starts

    def _apply_warm_start(
        self, request: dict[str, Any], problem
    ) -> tuple[dict[str, Any], Any, int]:
        """Inject warm-start seeds into a GA request.

        The seeds become part of the request payload *before* the cache
        key is formed, so identical (problem, params, seeds) requests
        share one entry and the response stays reproducible.  Returns
        the (possibly rewritten) request, the computed feature vector
        (``None`` if not needed) and the number of injected seeds.
        """
        if (
            not self.config.warm_start_enabled
            or request["solver"] != "ga"
            or not request.get("warm_start", True)
            or request.get("warm_seeds")
        ):
            return request, None, len(request.get("warm_seeds") or [])
        features = problem_features(problem)
        seeds = self.warm_store.suggest(problem.n, problem.m, features)
        if seeds:
            self.counters["warm_start_hits"] += 1
            obs.add("service.warm_start_hit")
            return dict(request, warm_seeds=seeds), features, len(seeds)
        self.counters["warm_start_misses"] += 1
        obs.add("service.warm_start_miss")
        return request, features, 0

    def _record_warm_start(
        self, core: dict[str, Any], problem, fingerprint: str, features
    ) -> None:
        """Feed the store with the run's best chromosome so later
        near-match requests start from it (cache hits re-record to
        refresh the entry's eviction age)."""
        if not self.config.warm_start_enabled:
            return
        chromosome = core.get("ga_chromosome")
        if chromosome is not None:
            if features is None:
                features = problem_features(problem)
            self.warm_store.record(
                problem.n,
                problem.m,
                fingerprint,
                features,
                chromosome["order"],
                chromosome["proc_of"],
            )

    async def _compute(
        self,
        key: str,
        request: dict[str, Any],
        tier: str,
        fingerprint: str,
        problem,
    ) -> tuple[dict[str, Any], bool, bool, str | None]:
        """Resolve one solve: cache, coalesce with an in-flight twin, or run.

        Returns ``(core, cached, coalesced, relayed)``.  ``relayed`` is
        the reason a core :meth:`_execute` relayed is a shed stand-in: it
        answers another key than *key*, so it is never stored under it.
        """
        hit = self.cache.get(key)
        if hit is not None:
            return hit, True, False, None
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.counters["coalesced"] += 1
            obs.add("service.coalesced")
            core, relayed = await asyncio.shield(inflight)
            return dict(core), False, True, relayed
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            core, cached, relayed = await self._execute(
                request, tier, fingerprint, problem
            )
            future.set_result((core, relayed))
        except Exception as exc:
            future.set_exception(exc)
            future.exception()  # a coalesced waiter may never retrieve it
            raise
        finally:
            self._inflight.pop(key, None)
        if relayed is None:
            self.cache.put(key, core)
        return dict(core), cached, False, relayed

    async def _execute(
        self, request: dict[str, Any], tier: str, fingerprint: str, problem
    ) -> tuple[dict[str, Any], bool, str | None]:
        """The core of a cache miss, whether it was a cache hit where it
        was computed, and the reason it was shed there.  A single node
        computes it itself, from the *problem* :meth:`_solve` decoded: on
        the fast pool, or on the GA backend."""
        if tier == "ga":
            core = await self._run_ga(request, problem)
        else:
            core = await asyncio.get_running_loop().run_in_executor(
                self._fast_executor, execute_payload, dict(request), problem
            )
        return core, False, None

    async def _run_ga(self, request: dict[str, Any], problem) -> dict[str, Any]:
        self._ga_inflight += 1
        obs.set_gauge(
            f"service.ga_inflight{self._gauge_suffix}", float(self._ga_inflight)
        )
        t0 = time.perf_counter()
        try:
            future = asyncio.get_running_loop().create_future()
            self._backend.submit(dict(request), problem, future)
            core = await future
            self.admission.observe_ga_seconds(time.perf_counter() - t0)
            return core
        finally:
            self._ga_inflight -= 1
            obs.set_gauge(
                f"service.ga_inflight{self._gauge_suffix}",
                float(self._ga_inflight),
            )

    # ----------------------------------------------------------------- status

    def _status_response(self, request_id: Any) -> dict[str, Any]:
        server: dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "workers": self.config.workers,
            "draining": self._draining,
        }
        if self.config.node_id:
            server["node_id"] = self.config.node_id
        return ok_response(
            request_id,
            op="status",
            server=server,
            requests=dict(self.counters),
            cache=self.cache.stats(),
            warm_start=self.warm_store.stats(),
            solvers={
                "fast": [s for s in SOLVERS if s != "ga"],
                "queued": ["ga"],
            },
            **self._status_sections(server),
        )

    def _status_sections(self, server: dict[str, Any]) -> dict[str, Any]:
        """The ``status`` sections of this role, which may also add to
        *server*: here admission and the GA tier."""
        queue_depth = max(0, self._ga_inflight - self.config.workers)
        obs.set_gauge(
            f"service.ga_queue_depth{self._gauge_suffix}", float(queue_depth)
        )
        load = self.admission.stream_load()
        if load is not None:
            obs.set_gauge(
                f"service.stream_load{self._gauge_suffix}", float(load)
            )
        return {
            "admission": self.admission.stats(),
            "ga": {
                "inflight": self._ga_inflight,
                "queue_depth": queue_depth,
                "queue_limit": self.config.ga_queue_limit,
            },
        }
