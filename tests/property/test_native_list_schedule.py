"""The native placement loop gives the Python loop's processor orders.

``ComponentScheduler._run`` hands the placement loop to the C kernel
``list_schedule`` when the library is loaded; the Python loop over
``PartialSchedule`` (``repro.algebra.scheduler._place``) is its
reference.  These tests run every catalogue entry, plus the ``padded``
selection at q = 0, 0.5 and 1, through both on one corpus of problems:
layered graphs with 1-80 tasks on 1-6 processors (every other one with
non-unit transfer rates), the four ``algo-grid`` families, a chain, a
uniform-cost problem whose ranks and processors tie, and small integer
costs, whose idle gaps fit a task exactly.  They also check the error
path and concurrent calls from several threads.  Every test skips when
the native library is not loaded.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algebra import CATALOGUE, ComponentScheduler, rank_context
from repro.algebra import scheduler as scheduler_mod
from repro.core.problem import SchedulingProblem
from repro.experiments.algo_grid import family_graph
from repro.graph import _native
from repro.graph.taskgraph import TaskGraph
from repro.heuristics import QuantileHeftScheduler
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel

from tests.property import heuristics_golden

#: (n, m) of the layered problems; odd positions get non-unit rates.
LAYERED = [
    (1, 1), (1, 4), (2, 3), (5, 1), (9, 6), (16, 2), (24, 5), (40, 4),
    (57, 3), (80, 6), (80, 1), (33, 2),
]


def _integer_costs() -> SchedulingProblem:
    """Durations 1-3 and data sizes 0-2: many gaps fit a task exactly."""
    rng = np.random.default_rng(0)
    layered = family_graph("layered", 30, rng)
    graph = TaskGraph(
        layered.n,
        zip(layered.edge_src.tolist(), layered.edge_dst.tolist()),
        rng.integers(0, 3, size=layered.num_edges).astype(float),
    )
    times = rng.integers(1, 4, size=(graph.n, 3)).astype(float)
    return SchedulingProblem(
        graph=graph,
        platform=Platform(3),
        uncertainty=UncertaintyModel.deterministic(times),
    )


PROBLEMS = {
    **{
        f"layered-n{n}-m{m}{'-rates' if i % 2 else ''}": (
            lambda n=n, m=m, i=i: heuristics_golden._random(
                n, m, seed=100 + i, rates=bool(i % 2)
            )
        )
        for i, (n, m) in enumerate(LAYERED)
    },
    **{
        name: heuristics_golden.PROBLEMS[name]
        for name in heuristics_golden.PROBLEMS
        if name.startswith("family-") or name in ("chain", "uniform-ties")
    },
    "integer-costs": _integer_costs,
}

SCHEDULERS = [
    *(ComponentScheduler(comps, name=name) for name, comps in CATALOGUE.items()),
    *(QuantileHeftScheduler(q) for q in (0.0, 0.5, 1.0)),
]


@pytest.fixture(autouse=True)
def lib():
    lib = _native.get_lib()
    if lib is None:
        pytest.skip("native kernel unavailable")
    return lib


def _orders(orders) -> list[list[int]]:
    return [[int(t) for t in order] for order in orders]


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_native_orders_match_the_python_loop(problem, monkeypatch):
    """Each call of the kernel returns the reference's orders."""
    native = scheduler_mod._place_native
    seen: list[tuple[str, list, list]] = []

    def both(lib, plan, comps, ctx, order):
        got = native(lib, plan, comps, ctx, order)
        want = scheduler_mod._place(plan, comps, ctx, order)
        seen.append((comps.spec, _orders(got), _orders(want)))
        return got

    monkeypatch.setattr(scheduler_mod, "_place_native", both)
    instance = PROBLEMS[problem]()
    for sched in SCHEDULERS:
        schedule = sched.schedule(instance)
        assert _orders(schedule.proc_orders) == seen[-1][1]
    assert len(seen) == len(SCHEDULERS)
    for spec, got, want in seen:
        assert got == want, spec


@pytest.mark.parametrize(
    "name",
    [
        name
        for name, c in CATALOGUE.items()
        if c.order == "static" and c.selection != "padded"
    ],
)
def test_non_topological_static_order_raises_the_same_error(name, lib):
    problem = PROBLEMS["layered-n24-m5"]()
    comps = CATALOGUE[name]
    ctx = rank_context(comps, problem)
    order = np.lexsort((np.arange(problem.n), -ctx.priorities))[::-1].copy()
    with pytest.raises(ValueError, match="not placed") as want:
        scheduler_mod._place(problem, comps, ctx, order)
    with pytest.raises(ValueError, match="not placed") as got:
        scheduler_mod._place_native(lib, problem, comps, ctx, order)
    assert str(got.value) == str(want.value)


def test_repeated_static_entry_raises(lib):
    problem = PROBLEMS["chain"]()
    comps = CATALOGUE["heft"]
    ctx = rank_context(comps, problem)
    order = np.array([0, 1, 1, 2, 3, 4, 5, 6], dtype=np.int64)
    for place in (
        scheduler_mod._place,
        lambda *args: scheduler_mod._place_native(lib, *args),
    ):
        with pytest.raises(ValueError, match="task 1 already placed"):
            place(problem, comps, ctx, order)


def test_threads_get_the_single_thread_answers():
    """Concurrent kernel calls (ctypes drops the GIL) share no state."""
    jobs = [
        (PROBLEMS[name](), sched)
        for name in ("layered-n40-m4-rates", "layered-n57-m3", "family-fft")
        for sched in SCHEDULERS
    ]
    want = [_orders(sched.schedule(p).proc_orders) for p, sched in jobs]
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def work(i: int) -> None:
        # Each thread starts at its own job, so different schedulers overlap.
        try:
            barrier.wait(timeout=30)
            results[i] = {
                k: _orders(jobs[k][1].schedule(jobs[k][0]).proc_orders)
                for k in [*range(i, len(jobs)), *range(i)]
            }
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert all(not t.is_alive() for t in threads)
    for got in results:
        assert [got[k] for k in range(len(jobs))] == want
