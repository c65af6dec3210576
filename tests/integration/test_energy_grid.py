"""Integration tests for the energy-grid frontier study.

Covers the issue's acceptance criteria end to end on a small scale:
every cell respects its ε-budget and slack floor, backup overlapping
strictly beats naive duplication on fault-free energy at equal verified
reliability, and reruns are deterministic (serial against 2 workers:
``test_grid.py``).
"""

import numpy as np
import pytest

from repro.energy import PowerModel
from repro.experiments.config import ExperimentConfig, Scale
from repro.experiments.energy_grid import run_energy_grid
from repro.ga.engine import GAParams
from repro.io import report_to_dict

_SCALE = Scale(
    name="test",
    n_graphs=2,
    n_realizations=40,
    n_tasks=16,
    ga_max_iterations=12,
    ga_stagnation=6,
)
_CONFIG = ExperimentConfig(scale=_SCALE, m=4, seed=99)
_PARAMS = GAParams(population_size=8, max_iterations=12, stagnation_limit=6)
_EPSILONS = (1.0, 1.4)


@pytest.fixture(scope="module")
def grid():
    return run_energy_grid(
        _CONFIG,
        epsilons=_EPSILONS,
        mean_ul=2.0,
        slack_ratio=0.5,
        k=1,
        deadline_factor=4.0,
        replication_realizations=4,
        ga_params=_PARAMS,
    )


def _outcome_key(o):
    return {
        "instance": o.instance,
        "strategy": o.strategy,
        "epsilon": o.epsilon,
        "m_heft": o.m_heft,
        "makespan": o.makespan,
        "avg_slack": o.avg_slack,
        "min_slack": o.min_slack,
        "energy": o.energy,
        "dvfs_energy": o.dvfs_energy,
        "report": report_to_dict(o.report),
    }


class TestFrontier:
    def test_grid_shape(self, grid):
        n = _SCALE.n_graphs
        # heft once per instance + each GA strategy once per (instance, eps)
        assert len(grid.cells("heft")) == n
        for strategy in ("robust-ga", "energy-ga"):
            for eps in _EPSILONS:
                assert len(grid.cells(strategy, eps)) == n
        assert len(grid.replication) == 2 * n  # both policies per instance

    def test_every_cell_respects_its_constraints(self, grid):
        """The ε-constraint holds in every cell — the HEFT seed makes the
        GA structurally feasible, so this is 100%, not 'usually'."""
        for outcome in grid.outcomes:
            assert outcome.feasible, (
                f"{outcome.strategy} eps={outcome.epsilon} "
                f"instance={outcome.instance} infeasible"
            )

    def test_energy_ga_never_loses_to_robust_ga_on_energy(self, grid):
        """Instance-mean energy of the energy GA is no worse than the
        power-oblivious robust GA at every ε (both contain HEFT, but only
        the energy GA optimizes joules)."""
        for eps in _EPSILONS:
            e_energy = np.mean([o.energy for o in grid.cells("energy-ga", eps)])
            e_robust = np.mean([o.energy for o in grid.cells("robust-ga", eps)])
            assert e_energy <= e_robust * (1 + 1e-9)

    def test_dvfs_post_pass_never_costs_energy(self, grid):
        for outcome in grid.outcomes:
            assert outcome.dvfs_energy <= outcome.energy * (1 + 1e-9)

    def test_tables_render(self, grid):
        table = grid.to_table()
        assert "energy grid" in table
        assert "energy-ga" in table and "robust-ga" in table
        rep = grid.replication_table()
        assert "replication" in rep
        assert "overlap" in rep and "duplicate" in rep


class TestReplication:
    def test_overlap_beats_duplicate_at_equal_reliability(self, grid):
        """The headline claim: fault-free energy strictly lower under
        overlapping, with identical verified survival."""
        by_instance = {}
        for r in grid.replication:
            by_instance.setdefault(r.instance, {})[r.policy] = r
        assert by_instance
        for cells in by_instance.values():
            overlap, duplicate = cells["overlap"], cells["duplicate"]
            assert overlap.energy.total < duplicate.energy.total
            assert overlap.survival.survives and duplicate.survival.survives
            assert overlap.survival.guaranteed == duplicate.survival.guaranteed

    def test_survival_verified_in_every_cell(self, grid):
        for r in grid.replication:
            assert r.survival.survives
            assert r.survival.n_missed == 0
            assert r.survival.n_subsets == _CONFIG.m  # every 1-failure subset
            assert r.survival.worst_realized_makespan <= r.deadline * (1 + 1e-9)


class TestDeterminism:
    def test_rerun_is_deterministic(self, grid):
        again = run_energy_grid(
            _CONFIG,
            epsilons=_EPSILONS,
            mean_ul=2.0,
            slack_ratio=0.5,
            k=1,
            deadline_factor=4.0,
            replication_realizations=4,
            ga_params=_PARAMS,
        )
        assert [_outcome_key(o) for o in again.outcomes] == [
            _outcome_key(o) for o in grid.outcomes
        ]


class TestValidation:
    def test_rejects_sub_unit_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            run_energy_grid(_CONFIG, epsilons=(0.9,))

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strateg"):
            run_energy_grid(_CONFIG, strategies=("heft", "bogus"))

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k"):
            run_energy_grid(_CONFIG, k=-1)
