"""A scheduler-worker shard: one :class:`SchedulerService` behind a comm.

The coordinator multiplexes *all* client traffic for a shard over a
single comm, tagging each request with a correlation id.  A shard
therefore cannot serve frames strictly in order the way the single-node
daemon does — one long GA solve would head-of-line-block every fast
request behind it.  :class:`ShardServer` overrides one step of the
service's connection loop, :meth:`~ShardServer._answer`: it answers each
frame in its own task, and the responses go back as they finish (out of
order; the coordinator matches them by ``id``) behind the loop's write
lock.

Everything else — the connection loop, admission, cache, coalescing,
the GA backend — is the plain service.  Shards run with
``warm_start_enabled=False``: the coordinator owns the warm-start store
and injects seeds into the payload before routing, which keeps a
sharded deployment's responses bit-identical to the single-node
daemon's.

:func:`shard_main` is the child-process entry point for TCP shards
(forked via :mod:`multiprocessing`); inproc shards are just
``ShardServer`` instances living in the coordinator's event loop.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Awaitable, Callable

from repro.obs import runtime as obs
from repro.service.server import SchedulerService, ServiceConfig

__all__ = ["ShardServer", "shard_config", "shard_main"]


def shard_config(node_id: str, listen: str, **overrides: Any) -> ServiceConfig:
    """The :class:`ServiceConfig` for one shard of a sharded deployment.

    Warm starts are forced off — the coordinator applies them before
    routing so every shard solves exactly the payload it was handed.
    """
    overrides.pop("warm_start_enabled", None)
    return ServiceConfig(
        listen=listen,
        node_id=node_id,
        warm_start_enabled=False,
        **overrides,
    )


class ShardServer(SchedulerService):
    """A service whose connections handle frames concurrently.

    Responses may come back out of request order; callers (the
    coordinator, or any pipelining client talking to a shard directly)
    must correlate them by ``id``.
    """

    async def _answer(
        self, line: bytes, reply: Callable[[dict[str, Any]], Awaitable[bool]]
    ) -> bool:
        """Answer the frame in its own task, so one long GA solve does not
        hold up the requests behind it."""
        task = asyncio.ensure_future(super()._answer(line, reply))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return True


def shard_main(config_kwargs: dict[str, Any], conn) -> None:
    """Entry point of a forked TCP shard process.

    Builds the shard's service from plain kwargs (the config dataclass
    itself is not sent across the fork), serves until ``shutdown``, and
    reports ``{"port", "pid"}`` back over the pipe once the listener is
    bound — or ``{"error"}`` if startup failed.
    """
    obs.reset_inherited()
    service = ShardServer(shard_config(**config_kwargs))

    async def main() -> None:
        try:
            await service.start()
        except Exception as exc:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
            raise
        conn.send({"port": service.port, "pid": os.getpid()})
        try:
            await service._shutdown_event.wait()
            await asyncio.sleep(0.05)
        finally:
            await service.aclose()

    asyncio.run(main())
