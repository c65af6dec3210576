"""The kernel library across processes.

Parallelism in this system is processes: cluster workers, service
shards and ``--workers`` grids, many of them forked from a parent that
has already run the kernels.  The library is built serially, so it
loads no threading runtime and a forked child evaluates exactly as its
parent did.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ga.chromosome import random_chromosome
from repro.ga.popeval import PopulationEvaluator
from repro.graph import _native

from tests.conftest import make_random_problem


def test_library_maps_no_threading_runtime():
    """Loading the library maps no ``libgomp``.  This needs a fresh
    interpreter: the test session may have mapped other libraries."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps on this platform")
    script = textwrap.dedent("""
        from repro.graph import _native

        if _native.get_lib() is None:
            print("no library")
        else:
            with open("/proc/self/maps") as fh:
                print("".join(line for line in fh if "libgomp" in line))
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "no library":
        pytest.skip("no native kernel library")
    assert done.stdout.strip() == "", done.stdout


def _evaluate_in_child(conn, problem, orders, procs) -> None:
    evaluation = PopulationEvaluator(problem).evaluate(orders, procs)
    conn.send((evaluation.makespans, evaluation.slack_matrix))
    conn.close()


def test_forked_child_evaluates_like_its_parent():
    """A child forked after its parent ran the population kernel gives
    the same bits, and exits."""
    if _native.get_lib() is None:
        pytest.skip("no native kernel library")
    problem = make_random_problem(11, n=30, m=4)
    rng = np.random.default_rng(3)
    chromosomes = [random_chromosome(problem, rng) for _ in range(20)]
    orders = np.stack([c.order for c in chromosomes])
    procs = np.stack([c.proc_of for c in chromosomes])
    parent = PopulationEvaluator(problem).evaluate(orders, procs)

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_evaluate_in_child, args=(send, problem, orders, procs))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not answer within 60 s"
        makespans, slacks = recv.recv()
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert makespans.tobytes() == parent.makespans.tobytes()
    assert slacks.tobytes() == parent.slack_matrix.tobytes()
