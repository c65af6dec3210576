"""Integration tests for the algo-grid catalogue sweep.

Covers the issue's acceptance criteria end to end on a small scale:
every grid cell produces a valid complete schedule, reruns are
deterministic, and the rankings cover every requested combination
(serial against 2 workers: ``test_grid.py``).
"""

import math

import pytest

from repro.experiments.algo_grid import FAMILIES, run_algo_grid

_COMBOS = (
    "heft",
    "cpop",
    "peft",
    "minmin",
    "heft-append",
    "heft-lookahead",
    "maxmin",
    "random-eft",
)
_KWARGS = dict(
    seed=99,
    combos=_COMBOS,
    families=FAMILIES,
    n_instances=2,
    n_tasks=12,
    m=3,
    mean_ul=2.0,
    n_realizations=16,
)


@pytest.fixture(scope="module")
def results():
    return run_algo_grid(**_KWARGS)


def test_every_cell_is_assessed_and_finite(results):
    assert len(results.outcomes) == len(FAMILIES) * 2 * len(_COMBOS)
    for o in results.outcomes:
        assert o.combo in _COMBOS
        assert o.family in FAMILIES
        assert o.n_tasks >= 1
        assert math.isfinite(o.expected_makespan) and o.expected_makespan > 0
        assert math.isfinite(o.mean_makespan)
        assert 0.0 <= o.miss_rate <= 1.0
        assert o.r1 > 0  # may be inf (never tardy)


def test_rerun_is_deterministic(results):
    again = run_algo_grid(**_KWARGS)
    assert again.outcomes == results.outcomes


def test_rankings_cover_every_combo(results):
    for by in ("makespan", "r1", "r2"):
        ranked = results.ranking(by)
        assert sorted(name for name, _ in ranked) == sorted(_COMBOS)
        scores = [score for _, score in ranked]
        if by == "makespan":
            assert scores == sorted(scores)
            assert min(scores) >= 1.0  # ratio to per-cell best
        else:
            assert scores == sorted(scores, reverse=True)


def test_tables_render_for_each_criterion(results):
    for by in ("makespan", "r1", "r2"):
        table = results.to_table(by)
        assert f"algo grid by {by}" in table
        for combo in _COMBOS:
            assert combo in table
