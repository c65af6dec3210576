"""Unit tests for the Clark analytical makespan approximation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import repro
from repro.heuristics.heft import HeftScheduler
from repro.heuristics.random_sched import random_schedule
from repro.robustness.clark import (
    ClarkEstimate,
    _ndtr,
    _norm_pdf,
    analytic_robustness,
    clark_makespan,
    clark_max,
)
from repro.robustness.montecarlo import assess_robustness
from repro.schedule.schedule import Schedule
from tests.conftest import make_random_problem


class TestClarkMax:
    def test_degenerate_deterministic(self):
        mean, var = clark_max(5.0, 0.0, 3.0, 0.0)
        assert (mean, var) == (5.0, 0.0)
        mean, var = clark_max(3.0, 0.0, 5.0, 0.0)
        assert (mean, var) == (5.0, 0.0)

    def test_identical_normals(self):
        # max of two iid N(0, 1): mean = 1/sqrt(pi), var = 1 - 1/pi.
        mean, var = clark_max(0.0, 1.0, 0.0, 1.0)
        assert mean == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-9)
        assert var == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-9)

    def test_dominant_operand(self):
        # When A is far above B, max ~ A.
        mean, var = clark_max(100.0, 1.0, 0.0, 1.0)
        assert mean == pytest.approx(100.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-3)

    def test_symmetry(self):
        a = clark_max(1.0, 2.0, 3.0, 4.0)
        b = clark_max(3.0, 4.0, 1.0, 2.0)
        assert a == pytest.approx(b)

    def test_mean_at_least_each_operand(self):
        mean, _ = clark_max(1.0, 1.0, 1.5, 2.0)
        assert mean >= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            clark_max(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            clark_max(0.0, 1.0, 0.0, 1.0, correlation=2.0)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10.0, 2.0, 200000)
        b = rng.normal(11.0, 3.0, 200000)
        m = np.maximum(a, b)
        mean, var = clark_max(10.0, 4.0, 11.0, 9.0)
        assert mean == pytest.approx(m.mean(), rel=0.01)
        assert var == pytest.approx(m.var(), rel=0.03)


class TestClarkMakespan:
    def test_deterministic_problem_exact(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        est = clark_makespan(s)
        assert est.mean == pytest.approx(29.0)
        assert est.std == pytest.approx(0.0)

    def test_chain_is_exact_in_moments(self, uncertain_diamond):
        """A serial chain has no max: Clark is exact for mean/variance."""
        s = Schedule(uncertain_diamond, [[0, 1, 2, 3], []])
        est = clark_makespan(s)
        # Serial schedule on one processor: all comm is zero. But the DAG
        # has a diamond, so starts still take maxes of *chained* values;
        # mean must equal sum of means only if the chain order dominates.
        mc = assess_robustness(s, 30000, rng=1)
        assert est.mean == pytest.approx(mc.mean_makespan, rel=0.02)

    @pytest.mark.parametrize("seed", range(4))
    def test_mean_close_to_monte_carlo(self, seed):
        problem = make_random_problem(seed, n=18, m=3, mean_ul=3.0)
        s = random_schedule(problem, seed)
        est = clark_makespan(s)
        mc = assess_robustness(s, 20000, rng=seed)
        # Canonical-form Clark: ~1% on the mean, a few % on the std.
        assert est.mean == pytest.approx(mc.mean_makespan, rel=0.02)
        mc_std = mc.realized_makespans.std()
        if mc_std > 0:
            assert est.std == pytest.approx(mc_std, rel=0.15)

    @pytest.mark.parametrize("seed", range(3))
    def test_correlation_tracking_beats_independence(self, seed):
        """The canonical form must be at least as accurate on the mean as
        the independence fallback (which is biased high)."""
        problem = make_random_problem(seed, n=18, m=3, mean_ul=3.0)
        s = random_schedule(problem, seed)
        mc = assess_robustness(s, 20000, rng=seed)
        canon = clark_makespan(s).mean
        indep = clark_makespan(s, track_correlations=False).mean
        assert abs(canon - mc.mean_makespan) <= abs(indep - mc.mean_makespan) + 1e-6
        assert indep >= canon - 1e-6  # independence never under-predicts

    def test_completion_moments_shapes(self, small_random_problem):
        s = HeftScheduler().schedule(small_random_problem)
        est = clark_makespan(s)
        assert est.completion_means.shape == (small_random_problem.n,)
        assert np.all(est.completion_vars >= 0)


class TestClarkEstimateMetrics:
    def test_miss_rate_normal_theory(self):
        est = ClarkEstimate(
            mean=100.0, std=10.0, completion_means=np.zeros(1), completion_vars=np.zeros(1)
        )
        assert est.miss_rate(100.0) == pytest.approx(0.5)
        assert est.miss_rate(110.0) == pytest.approx(float(norm.sf(1.0)))

    def test_tardiness_normal_theory(self):
        est = ClarkEstimate(
            mean=100.0, std=10.0, completion_means=np.zeros(1), completion_vars=np.zeros(1)
        )
        # E[(X - 100)+] for N(100, 10) = 10 / sqrt(2 pi).
        assert est.mean_relative_tardiness(100.0) == pytest.approx(
            10.0 / np.sqrt(2 * np.pi) / 100.0
        )
        with pytest.raises(ValueError):
            est.mean_relative_tardiness(0.0)

    def test_zero_std_estimates(self):
        est = ClarkEstimate(
            mean=50.0, std=0.0, completion_means=np.zeros(1), completion_vars=np.zeros(1)
        )
        assert est.miss_rate(60.0) == 0.0
        assert est.miss_rate(40.0) == 1.0
        assert est.mean_relative_tardiness(40.0) == pytest.approx(0.25)


class TestAnalyticRobustness:
    @pytest.mark.parametrize("seed", range(3))
    def test_tracks_monte_carlo(self, seed):
        problem = make_random_problem(100 + seed, n=16, m=3, mean_ul=4.0)
        s = HeftScheduler().schedule(problem)
        analytic = analytic_robustness(s)
        mc = assess_robustness(s, 20000, rng=seed)
        # Miss rate within 0.15 absolute; tardiness within 40% relative
        # (documented approximation error: independence + normality).
        assert analytic["miss_rate"] == pytest.approx(mc.miss_rate, abs=0.15)
        if mc.mean_tardiness > 0.01:
            assert analytic["mean_tardiness"] == pytest.approx(
                mc.mean_tardiness, rel=0.4
            )

    def test_deterministic_schedule_perfect(self, diamond_problem):
        s = Schedule(diamond_problem, [[0, 1], [2, 3]])
        analytic = analytic_robustness(s)
        assert analytic["miss_rate"] == 0.0
        assert analytic["r1"] == float("inf")
        assert analytic["r2"] == float("inf")

    def test_keys(self, small_random_problem):
        s = HeftScheduler().schedule(small_random_problem)
        analytic = analytic_robustness(s)
        assert set(analytic) == {
            "mean_makespan",
            "std_makespan",
            "miss_rate",
            "mean_tardiness",
            "r1",
            "r2",
        }


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestNormalFunctions:
    """Phi, its complement and the density equal ``scipy.stats.norm``'s
    bit for bit, called one scalar at a time as the estimator calls them."""

    SPECIAL = (0.0, -0.0, 1e-300, -1e-300, 8.3, -8.3, 38.5, -38.5, 40.0, -40.0,
               np.inf, -np.inf, np.nan)

    @pytest.fixture(scope="class")
    def values(self):
        rng = np.random.default_rng(23)
        return np.concatenate([
            rng.normal(0.0, 5.0, 60_000),
            rng.uniform(-40.0, 40.0, 40_000),
            np.array(self.SPECIAL),
        ])

    def test_cdf(self, values):
        got = [_ndtr(float(v)) for v in values]
        np.testing.assert_array_equal(_bits(got), _bits(norm.cdf(values)))

    def test_sf(self, values):
        got = [_ndtr(-float(v)) for v in values]
        np.testing.assert_array_equal(_bits(got), _bits(norm.sf(values)))

    def test_pdf(self, values):
        got = [_norm_pdf(float(v)) for v in values]
        np.testing.assert_array_equal(_bits(got), _bits(norm.pdf(values)))

    def test_scalar_types(self):
        assert type(_ndtr(0.3)) is np.float64
        assert type(_norm_pdf(0.3)) is np.float64

    def test_estimate_metrics_match_scipy_formulas(self):
        rng = np.random.default_rng(5)
        for mean, std, threshold in rng.uniform([50, 0.1, 40], [150, 30, 160], (2000, 3)):
            est = ClarkEstimate(
                mean=mean, std=std, completion_means=np.zeros(1), completion_vars=np.zeros(1)
            )
            z = (threshold - mean) / std
            excess = std * norm.pdf(z) + (mean - threshold) * norm.sf(z)
            assert _bits(est.miss_rate(threshold)) == _bits(float(norm.sf(z)))
            assert _bits(est.mean_relative_tardiness(threshold)) == _bits(
                float(max(excess, 0.0) / threshold)
            )


def test_scipy_loads_on_first_analytic_call():
    """Importing the package loads neither scipy nor networkx; the first
    Clark estimate loads ``scipy.special`` but not ``scipy.stats``.  This
    needs a fresh interpreter: the test session has imported scipy."""
    script = textwrap.dedent("""
        import sys

        import repro, repro.cli, repro.experiments, repro.service

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))

        assert loaded() == [], loaded()
        problem = repro.SchedulingProblem.random(m=2, dag_params=repro.DagParams(n=6), rng=0)
        repro.analytic_robustness(repro.HeftScheduler().schedule(problem))
        assert "scipy.special" in sys.modules, loaded()
        assert "scipy.stats" not in sys.modules, loaded()
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
