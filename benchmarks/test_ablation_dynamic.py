"""Ablation A5: static robust scheduling vs dynamic (online) scheduling.

The paper's introduction positions robust *static* scheduling against the
obvious alternative — assigning each ready task at runtime from the
realized state.  This ablation quantifies the comparison the paper only
argues: per instance, the realized mean makespan and the predictability
(tardiness vs the up-front promise M_0) of

* HEFT's static schedule,
* the ε = 1.0 robust GA's static schedule,
* the *semi-dynamic* policy (HEFT assignment frozen, per-processor order
  decided at runtime — the related-work [20, 21] middle ground),
* the fully online MCT policy (runtime placement and ordering).

The online policies adapt (often lower mean makespan) but their promise
is soft; the robust static schedule keeps the promise it made.
"""

import numpy as np

from repro.core.robust import RobustScheduler
from repro.experiments.workloads import make_problems
from repro.faults.assess import assess_robustness_faulty
from repro.heuristics.heft import HeftScheduler
from repro.robustness.metrics import mean_relative_tardiness, miss_rate
from repro.robustness.montecarlo import assess_robustness
from repro.sim.dynamic import simulate_semi_dynamic
from repro.utils.tables import format_table


def _assess_semi(problem, proc_of, n_real, rng):
    """Monte-Carlo report of the semi-dynamic policy on one assignment."""
    gen = np.random.default_rng(rng)
    idx = np.arange(problem.n)
    low = problem.uncertainty.bcet[idx, proc_of]
    high = (2.0 * problem.uncertainty.ul[idx, proc_of] - 1.0) * low
    m0 = simulate_semi_dynamic(
        problem, proc_of, problem.uncertainty.expected_durations(proc_of)
    ).makespan
    makespans = np.empty(n_real)
    for r in range(n_real):
        makespans[r] = simulate_semi_dynamic(
            problem, proc_of, gen.uniform(low, high)
        ).makespan
    return m0, makespans


def _run(bench_config):
    problems = make_problems(bench_config, 4.0)
    n_real = bench_config.scale.n_realizations
    rows = []
    for i, problem in enumerate(problems):
        heft = HeftScheduler().schedule(problem)
        robust = RobustScheduler(
            epsilon=1.0, params=bench_config.ga_params(), rng=i
        ).solve(problem).schedule
        heft_rep = assess_robustness(heft, n_real, rng=3 * i)
        robust_rep = assess_robustness(robust, n_real, rng=3 * i + 1)
        dynamic_rep = assess_robustness_faulty(
            heft, None, n_real, rng=3 * i + 2, policy="dynamic"
        )
        semi_m0, semi_ms = _assess_semi(problem, heft.proc_of, n_real, 3 * i + 2)
        for name, m0, mean_m, tard, miss in [
            ("heft-static", heft_rep.expected_makespan, heft_rep.mean_makespan,
             heft_rep.mean_tardiness, heft_rep.miss_rate),
            ("robust-static", robust_rep.expected_makespan,
             robust_rep.mean_makespan, robust_rep.mean_tardiness,
             robust_rep.miss_rate),
            ("semi-dynamic", semi_m0, float(semi_ms.mean()),
             mean_relative_tardiness(semi_ms, semi_m0),
             miss_rate(semi_ms, semi_m0)),
            ("online-mct", dynamic_rep.expected_makespan,
             dynamic_rep.mean_makespan, dynamic_rep.mean_tardiness,
             dynamic_rep.miss_rate),
        ]:
            rows.append([i, name, m0, mean_m, tard, miss])
    return rows


def test_ablation_dynamic_vs_static(benchmark, bench_config):
    rows = benchmark.pedantic(lambda: _run(bench_config), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["inst", "policy", "M0", "mean M", "tardiness", "miss"],
            rows,
            title="Ablation A5 — static robust vs dynamic scheduling (UL=4)",
        )
    )
    # Sanity: every policy completed every instance with positive makespans.
    assert all(row[3] > 0 for row in rows)
    by_policy: dict[str, list[float]] = {}
    for row in rows:
        by_policy.setdefault(row[1], []).append(row[4])
    # All four policies produce finite tardiness samples on each instance.
    assert set(by_policy) == {
        "heft-static",
        "robust-static",
        "semi-dynamic",
        "online-mct",
    }
    assert len(set(len(v) for v in by_policy.values())) == 1
