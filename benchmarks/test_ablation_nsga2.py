"""Ablation A1: ε-constraint sweep vs NSGA-II on front quality.

The paper scalarizes the bi-objective problem with the ε-constraint
method; the canonical alternative is one multi-objective (NSGA-II) run.
This ablation traces a front each way on the same instances and compares
them with standard front-quality metrics:

* 2-D hypervolume against the instance's nadir point (larger = better),
* Zitzler's coverage C(A, B) in both directions.
"""

import numpy as np

from repro.experiments.workloads import make_problems
from repro.ga.engine import GAParams
from repro.moop.fronts import epsilon_front
from repro.moop.nsga2 import Nsga2Scheduler
from repro.moop.pareto import coverage, hypervolume_2d
from repro.utils.tables import format_table

EPS_GRID = (1.0, 1.4, 2.0)


def _run(bench_config):
    problems = make_problems(bench_config, 4.0)[:2]
    params = bench_config.ga_params()
    nsga_params = GAParams(
        population_size=params.population_size,
        max_iterations=params.max_iterations,
    )
    rows = []
    for i, problem in enumerate(problems):
        eps_result = epsilon_front(problem, EPS_GRID, params=params, rng=i)
        nsga = Nsga2Scheduler(nsga_params, rng=100 + i).run(problem)

        eps_pts = eps_result.as_minimization()
        nsga_pts = np.column_stack(
            [
                [ind.makespan for ind in nsga.front],
                [-ind.avg_slack for ind in nsga.front],
            ]
        )
        combined = np.vstack([eps_pts, nsga_pts])
        ref = combined.max(axis=0) * 1.1 + 1.0
        hv_eps = hypervolume_2d(eps_pts, ref)
        hv_nsga = hypervolume_2d(nsga_pts, ref)
        rows.append(
            [
                i,
                len(eps_pts),
                len(nsga_pts),
                hv_eps,
                hv_nsga,
                coverage(eps_pts, nsga_pts),
                coverage(nsga_pts, eps_pts),
            ]
        )
    return rows


def test_ablation_nsga2(benchmark, bench_config):
    rows = benchmark.pedantic(lambda: _run(bench_config), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["inst", "|eps front|", "|nsga front|", "HV(eps)", "HV(nsga)",
             "C(eps,nsga)", "C(nsga,eps)"],
            rows,
            title="Ablation A1 — eps-constraint sweep vs NSGA-II (UL=4)",
        )
    )
    for row in rows:
        # Both approaches trace non-trivial fronts ...
        assert row[1] >= 1 and row[2] >= 2
        # ... with positive dominated hypervolume.
        assert row[3] > 0 and row[4] > 0
    # The eps sweep (3 focused solves) should not be wholly dominated by
    # the single NSGA-II run on every instance.
    assert any(row[6] < 1.0 for row in rows)
