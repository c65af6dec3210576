"""Fixtures shared by the service integration tests."""

from __future__ import annotations

import contextlib
import multiprocessing
import time

import pytest

from repro.service import server, solvers


class GaGate:
    """Holds GA solves in flight until the test lets them go.

    A test that needs GA solves to stay running (to fill the GA slot and
    queue, build a shard backlog, or outlast a client's timeout) holds
    them here instead of relying on how long a GA run takes.  The flag
    lives in shared memory, so shards forked while the gate is installed
    obey it too, and killing a shard that waits on it leaves it intact.
    """

    def __init__(self) -> None:
        self._held = multiprocessing.get_context("fork").RawValue("b", 0)

    @contextlib.contextmanager
    def holding(self):
        """Keep every GA solve waiting until the block exits."""
        self._held.value = 1
        try:
            yield self
        finally:
            self._held.value = 0

    def wait(self, timeout: float = 60.0) -> None:
        """Block the calling GA solve while the gate is held."""
        deadline = time.monotonic() + timeout
        while self._held.value and time.monotonic() < deadline:
            time.sleep(0.005)

    @staticmethod
    def wait_for(condition, timeout: float = 30.0) -> None:
        """Poll *condition* until it holds or *timeout* passes; the
        test's own assertions then judge the outcome."""
        deadline = time.monotonic() + timeout
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)


@pytest.fixture
def ga_gate(monkeypatch) -> GaGate:
    """A :class:`GaGate` in front of every GA solve the service runs
    (the in-process GA tier, and shards forked after installation)."""
    gate = GaGate()
    execute = server.execute_payload

    def gated(request, problem=None):
        if request["solver"] == "ga":
            gate.wait()
        return execute(request, problem)

    monkeypatch.setattr(server, "execute_payload", gated)
    return gate


@pytest.fixture
def decodes(monkeypatch) -> list[int]:
    """Count the ``problem_from_dict`` calls the service makes in this
    process (its pipeline and its solver): ``decodes[0]`` after a request."""
    calls = [0]
    decode = server.problem_from_dict

    def counting(payload):
        calls[0] += 1
        return decode(payload)

    monkeypatch.setattr(server, "problem_from_dict", counting)
    monkeypatch.setattr(solvers, "problem_from_dict", counting)
    return calls
