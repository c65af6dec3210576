"""The native Monte-Carlo kernel reports what the numpy reference reports.

With the library loaded, ``assess_robustness`` and ``convergence_profile``
draw the uniform model's realizations and run the forward pass in one
``mc_makespans`` call, ``MC_BLOCK`` realizations at a time.
``realize_durations`` then ``batch_makespans``, the numpy backend, is the
reference: the realized makespans must be equal bit for bit and the
generator must end in the same state, for 1-70 tasks, 1-6 processors
and realization counts on both sides of the block.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph import _native
from repro.heuristics.heft import HeftScheduler
from repro.platform.uncertainty import UncertaintyModel
from repro.robustness.analysis import convergence_profile
from repro.robustness.montecarlo import assess_robustness
from repro.schedule.schedule import Schedule
from tests.conftest import make_random_problem, numpy_backend
from tests.property.strategies import scheduled_problems

pytestmark = pytest.mark.skipif(
    _native.get_lib() is None, reason="native kernel unavailable"
)

BLOCK = _native.MC_BLOCK

#: 1-400 realizations, with the block edges drawn often.
REALIZATIONS = st.integers(1, 400) | st.sampled_from(
    [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]
)

BACKENDS = (contextlib.nullcontext, numpy_backend)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).view(np.int64).tobytes()


def _report(schedule, r, seed, backend):
    """Everything a report holds, as bits, then the stream's next draw."""
    gen = np.random.default_rng(seed)
    with backend():
        rep = assess_robustness(schedule, r, gen)
    return (
        _bits(rep.realized_makespans),
        _bits(
            [
                rep.expected_makespan,
                rep.avg_slack,
                rep.mean_makespan,
                rep.mean_tardiness,
                rep.miss_rate,
                rep.r1,
                rep.r2,
            ]
        ),
        gen.random(),
    )


@settings(max_examples=80, deadline=None)
@given(
    data=scheduled_problems(min_n=1, max_n=70, max_m=6),
    r=REALIZATIONS,
    seed=st.integers(0, 2**32 - 1),
    heft=st.booleans(),
)
def test_assess_robustness_matches_numpy(data, r, seed, heft):
    """Arbitrary DAGs, a random schedule (its scheduling string is the
    disjunctive graph's order) or the HEFT schedule (built from processor
    orders, so the order is derived)."""
    problem, schedule = data
    if heft:
        schedule = HeftScheduler().schedule(problem)
    native, numpy_ = (_report(schedule, r, seed, b) for b in BACKENDS)
    assert native == numpy_


@pytest.mark.parametrize("seed", range(6))
def test_generated_instances_match_numpy(seed):
    """Layered generator DAGs, denser than the strategy's, at the paper's
    medium size, on a fresh schedule each time."""
    problem = make_random_problem(seed, n=60, m=4, mean_ul=2.0 + seed)
    heft = HeftScheduler().schedule(problem)
    for r in (1, BLOCK, 300):
        reports = [
            _report(Schedule(problem, heft.proc_orders), r, seed, b) for b in BACKENDS
        ]
        assert reports[0] == reports[1]


def test_convergence_profile_matches_numpy():
    problem = make_random_problem(3, n=30, m=3)
    schedule = HeftScheduler().schedule(problem)
    profiles = []
    for backend in BACKENDS:
        with backend():
            profiles.append(convergence_profile(schedule, (5, 64, 200), rng=9))
    assert profiles[0] == profiles[1]


def test_traced_assessment_counts_one_forward_pass():
    """The fused call sits in ``mc.realize_durations`` and counts as one
    forward-pass kernel call, as the reference's ``batch_makespans``."""
    problem = make_random_problem(4, n=20, m=3)
    schedule = HeftScheduler().schedule(problem)
    for backend, kernel in zip(BACKENDS, ("native", "numpy")):
        sink = obs.InMemorySink()
        obs.enable(sink)
        try:
            with backend():
                assess_robustness(schedule, 5, rng=1)
        finally:
            obs.disable()
        assert len(sink.spans("mc.realize_durations")) == 1
        forward = {
            r["name"]: r["value"]
            for r in sink.records
            if r["type"] == "counter" and "batch_forward" in r["name"]
        }
        assert forward == {f"kernel.batch_forward.{kernel}": 1}


def test_non_finite_range_raises_before_drawing():
    with np.errstate(over="ignore"):
        problem = make_random_problem(5, n=6, m=2)
        bcet = problem.uncertainty.bcet.copy()
        bcet[0] = 1e308
        problem = type(problem)(
            graph=problem.graph,
            platform=problem.platform,
            uncertainty=UncertaintyModel(bcet, np.full_like(bcet, 2.0)),
        )
        schedule = HeftScheduler().schedule(problem)
        for backend in BACKENDS:
            gen = np.random.default_rng(0)
            before = gen.bit_generator.state
            with backend(), pytest.raises(OverflowError, match="Range exceeds"):
                assess_robustness(schedule, 10, gen)
            assert gen.bit_generator.state == before
