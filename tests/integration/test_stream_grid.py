"""Integration tests for the stream grid: acceptance curves.

At oversubscription (load >= 1.5x) **both** shedding policies must beat
the no-shedding baseline on system-wide on-time completion — the
qualitative claim of the two task-dropping papers.  That the same
arrival seed + policy reproduces the same drop set for any worker count
is checked with every other grid in ``test_grid.py``.
"""

import pytest

from repro.experiments import run_stream_grid
from repro.stream import StreamParams

#: The default-seed workload the bench and the docs quote.
PARAMS = StreamParams(seed=20060925)

#: Shrunk pool for the argument checks.
SMALL = StreamParams(n_jobs=12, tasks=10, m=3, load=2.0, seed=11)


@pytest.fixture(scope="module")
def oversubscribed_grid():
    return run_stream_grid(PARAMS, loads=(1.5, 2.0), policies=("none", "prune", "drop"))


class TestAcceptanceCurves:
    def test_both_policies_beat_no_shedding(self, oversubscribed_grid):
        for load in (1.5, 2.0):
            baseline = oversubscribed_grid.cell(load, "none").on_time_rate
            for policy in ("prune", "drop"):
                shed = oversubscribed_grid.cell(load, policy).on_time_rate
                assert shed > baseline, (
                    f"{policy} did not beat no-shedding at load {load}: "
                    f"{shed:.3f} <= {baseline:.3f}"
                )

    def test_goodput_improves_too(self, oversubscribed_grid):
        for load in (1.5, 2.0):
            baseline = oversubscribed_grid.cell(load, "none").goodput
            for policy in ("prune", "drop"):
                assert oversubscribed_grid.cell(load, policy).goodput > baseline

    def test_curves_shape(self, oversubscribed_grid):
        curves = oversubscribed_grid.curves()
        assert set(curves) == {"none", "prune", "drop"}
        for points in curves.values():
            assert [load for load, _, _ in points] == [1.5, 2.0]
            for _, miss, goodput in points:
                assert 0.0 <= miss <= 1.0
                assert goodput >= 0.0

    def test_table_renders(self, oversubscribed_grid):
        table = oversubscribed_grid.to_table()
        assert "stream grid" in table
        assert "prune" in table and "drop" in table


class TestGridDeterminism:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="load"):
            run_stream_grid(SMALL, loads=())
        with pytest.raises(ValueError, match="load"):
            run_stream_grid(SMALL, loads=(0.0,))
        with pytest.raises(ValueError, match="policy"):
            run_stream_grid(SMALL, policies=())
        with pytest.raises(ValueError, match="unknown policy"):
            run_stream_grid(SMALL, policies=("lottery",))
        with pytest.raises(ValueError, match="n_jobs"):
            run_stream_grid(SMALL, n_jobs=0)
