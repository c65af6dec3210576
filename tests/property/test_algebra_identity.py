"""Property tests: every catalogue entry schedules validly and repeatably.

The outputs of the HEFT, CPOP, PEFT, min-min and quantile-HEFT points are
pinned separately, by ``tests/property/heuristics_golden.json``.
"""

from hypothesis import given, settings

from repro.algebra import CATALOGUE, component_scheduler
from tests.property.strategies import problems


def _orders(schedule):
    return [list(map(int, order)) for order in schedule.proc_orders]


@settings(max_examples=10, deadline=None)
@given(problem=problems(min_n=1, max_n=8, max_m=3))
def test_every_catalogue_entry_schedules_validly(problem):
    """Each named combination places every task exactly once and keeps
    every precedence constraint (Schedule's constructor validates)."""
    for name in CATALOGUE:
        schedule = component_scheduler(name).schedule(problem)
        placed = sorted(t for order in _orders(schedule) for t in order)
        assert placed == list(range(problem.n)), name


@settings(max_examples=10, deadline=None)
@given(problem=problems(min_n=1, max_n=8, max_m=3))
def test_rerun_is_deterministic(problem):
    """Two runs of the same tuple on the same problem are identical —
    including the seeded ``random`` ranking."""
    for name in ("heft-lookahead", "random-eft", "minmin-append"):
        first = component_scheduler(name).schedule(problem)
        second = component_scheduler(name).schedule(problem)
        assert _orders(first) == _orders(second), name
