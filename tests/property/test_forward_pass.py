"""``batch_makespans`` gives the same bits on both backends and the reference.

The batched forward pass walks the schedule's disjunctive graph ``G_s``:
the C kernel ``ft_forward`` with the library loaded, the numpy recurrence
without it.  On fresh schedules — GA-decoded (a trusted topological order)
and validating-built (peeled) — both must equal, as int64 views, the
largest ``top_levels_reference + w`` over ``G_s``, for 1 to 300
realizations drawn from the uniform, beta and bimodal families, some with
``+inf`` and zero entries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.topology import random_topological_order
from repro.schedule.evaluation import batch_makespans
from repro.schedule.schedule import Schedule
from tests.conftest import numpy_backend
from tests.property.strategies import problems
from tests.unit.test_kernel_equivalence import top_levels_reference

REALIZATIONS = (1, 2, 7, 8, 9, 64, 300)
FAMILIES = ("uniform", "beta", "bimodal")


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(min_n=1, max_n=60, max_m=6),
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from(REALIZATIONS),
    family=st.sampled_from(FAMILIES),
    decoded=st.booleans(),
    special=st.booleans(),
)
def test_backends_match_reference(problem, seed, r, family, decoded, special):
    rng = np.random.default_rng(seed)
    order = random_topological_order(problem.graph, rng)
    proc_of = rng.integers(problem.m, size=problem.n)

    def fresh() -> Schedule:
        schedule = Schedule.from_assignment(problem, order, proc_of)
        if decoded:
            return schedule
        return Schedule(problem, [list(t) for t in schedule.proc_orders])

    durations = problem.uncertainty.realize_durations(
        proc_of, r, rng, family=family
    )
    if special:
        durations[rng.random(durations.shape) < 0.1] = 0.0
        durations[rng.random(durations.shape) < 0.05] = np.inf
        durations[-1] = 0.0

    native = batch_makespans(fresh(), durations, validate=False)
    with numpy_backend():
        numpy_ = batch_makespans(fresh(), durations, validate=False)
    schedule = fresh()
    reference = (
        top_levels_reference(schedule.disjunctive, durations, schedule.comm_weights)
        + durations
    ).max(axis=-1)

    assert native.shape == (r,)
    assert np.array_equal(native.view(np.int64), reference.view(np.int64))
    assert np.array_equal(numpy_.view(np.int64), reference.view(np.int64))
