"""Thread safety of the native kernel's first-compile path.

The service's fast tier evaluates on a thread pool, so the very first
``get_lib()`` calls of a process can race: two threads may reach the
compile-and-load path simultaneously.  :mod:`repro.graph._native` guards
this with a process-wide lock and a double-checked ``_tried`` flag that
is published *last*, so racing readers of the lock-free fast path never
observe a half-built library.  These tests reset the module state and
re-run the race for real.
"""

from __future__ import annotations

import ctypes
import shutil
import threading

import pytest

from repro.graph import _native


@pytest.fixture
def fresh_native_state(monkeypatch, tmp_path):
    """Reset the module to its pre-first-call state, compile cache cleared.

    The compiled-object cache is redirected to a fresh temp dir so the
    race exercises the actual compile, not a warm ``dlopen``.  monkeypatch
    restores ``_lib``/``_tried`` afterwards, so the rest of the suite
    keeps its already-loaded library.
    """
    # These tests are about the compile path itself, so they must run it
    # even when the surrounding suite opted out (REPRO_NATIVE=0 legs).
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    # tempfile.gettempdir() caches its answer per process; point the
    # resolved value at the fresh dir directly.
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_tried", False)
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def test_two_threads_racing_first_compile(fresh_native_state):
    """Both racers get the same (fully initialised) library object."""
    n_threads = 2
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def racer(i: int) -> None:
        try:
            barrier.wait(timeout=30)
            results[i] = _native.get_lib()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert all(not t.is_alive() for t in threads)

    # Exactly one outcome, shared by both threads — either both got the
    # same CDLL instance or both saw the (no-compiler) fallback None.
    assert results[0] is results[1]
    if results[0] is not None:
        # The published library is complete: the last symbol the Python
        # side binds is present and its callable metadata is set.
        assert results[0].list_schedule.restype is ctypes.c_int64


def test_compile_failure_published_once(fresh_native_state, monkeypatch):
    """A failed compile publishes None and is never retried."""
    calls: list[int] = []

    def failing_load():
        calls.append(1)
        raise RuntimeError("simulated compile failure")

    monkeypatch.setattr(_native, "_load", failing_load)
    assert _native.get_lib() is None
    assert _native.get_lib() is None
    assert len(calls) == 1


def test_opt_out_env_never_compiles(fresh_native_state, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")

    def exploding_load():  # pragma: no cover - must not run
        raise AssertionError("REPRO_NATIVE=0 must not reach _load")

    monkeypatch.setattr(_native, "_load", exploding_load)
    assert _native.get_lib() is None
