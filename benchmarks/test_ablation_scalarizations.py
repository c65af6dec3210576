"""Ablation A9: ε-constraint sweep vs weighted-sum sweep (front tracing).

Sec. 4 notes "a few commonly used classical methods can be employed" and
picks the ε-constraint method.  The textbook argument for that choice —
weighted sums only reach the convex hull of the front and tend to cluster
at its extremes — is made measurable here: both scalarizations trace a
front on the same instances with the same per-solve budget, compared by
hypervolume and front size.
"""

import numpy as np

from repro.experiments.workloads import make_problems
from repro.moop.fronts import epsilon_front, weighted_sum_front
from repro.moop.pareto import hypervolume_2d
from repro.utils.tables import format_table

EPS_GRID = (1.0, 1.3, 1.6, 2.0)
WEIGHT_GRID = (1.0, 0.66, 0.33, 0.0)  # same number of solves


def _run(bench_config):
    problems = make_problems(bench_config, 4.0)[:2]
    params = bench_config.ga_params()
    rows = []
    for i, problem in enumerate(problems):
        eps = epsilon_front(problem, EPS_GRID, params=params, rng=i)
        ws = weighted_sum_front(problem, WEIGHT_GRID, params=params, rng=100 + i)
        pts_eps = eps.as_minimization()
        pts_ws = ws.as_minimization()
        ref = np.vstack([pts_eps, pts_ws]).max(axis=0) * 1.1 + 1.0
        rows.append(
            [
                i,
                len(pts_eps),
                len(pts_ws),
                hypervolume_2d(pts_eps, ref),
                hypervolume_2d(pts_ws, ref),
            ]
        )
    return rows


def test_ablation_scalarizations(benchmark, bench_config):
    rows = benchmark.pedantic(lambda: _run(bench_config), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["inst", "|eps front|", "|ws front|", "HV(eps)", "HV(ws)"],
            rows,
            title="Ablation A9 — eps-constraint vs weighted-sum front tracing "
            "(UL=4, equal solve budgets)",
        )
    )
    for row in rows:
        # Both scalarizations produce at least one non-dominated point and
        # positive hypervolume.
        assert row[1] >= 1 and row[2] >= 1
        assert row[3] > 0 and row[4] > 0
    # The eps sweep retains at least as many distinct front points on
    # average (weighted sums cluster at extremes on non-convex fronts).
    mean_eps = np.mean([r[1] for r in rows])
    mean_ws = np.mean([r[2] for r in rows])
    assert mean_eps >= mean_ws - 1.0
