"""Analytical makespan-distribution approximation (Clark's method).

The paper estimates robustness by Monte-Carlo simulation; its future-work
section calls for exploiting *stochastic information* directly.  This
module provides the classic analytical alternative from statistical
timing analysis: propagate the first two moments of task completion
times through the disjunctive graph, approximating each ``max`` of two
(assumed normal, assumed independent) completion times with Clark's
moment-matched normal [Clark, "The greatest of a finite set of random
variables", Operations Research 9(2), 1961].

From the resulting makespan moments, normal-theory estimates of the
paper's robustness metrics follow in closed form:

* miss rate  ``alpha ≈ P(M > M_0) = 1 - Phi((M_0 - mu)/sigma)``;
* expected relative tardiness
  ``E[(M - M_0)+]/M_0 = (sigma * phi(z) + (mu - M_0) * Phi(-z)) / M_0``
  with ``z = (M_0 - mu)/sigma``.

By default, completion times are propagated in *canonical first-order
form* — a linear expansion over the independent task-duration sources —
so the correlation of paths sharing ancestors is exact at every join
(the standard refinement from statistical static timing analysis).  On
this library's instances the resulting makespan mean lands within ~1 %
of a 20000-sample Monte Carlo and the standard deviation within a few
percent; tail quantities inherit the normality approximation (uniform
durations are matched in mean/variance only).  ``track_correlations=
False`` falls back to the independence assumption: cheaper, biased high
on the mean.  The estimator's value is speed — one O(n·(n+|E|)) pass
versus thousands of Monte-Carlo evaluations — e.g. inside a
robustness-aware fitness function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.schedule.evaluation import evaluate
from repro.schedule.schedule import Schedule

__all__ = ["clark_max", "ClarkEstimate", "clark_makespan", "analytic_robustness"]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

_ndtr_ufunc = None


def _ndtr(x):
    """Standard normal CDF ``Phi``: ``scipy.special.ndtr``, the function
    ``scipy.stats.norm.cdf`` calls, so values match it bit for bit
    (``norm.sf(z)`` is ``_ndtr(-z)``).

    scipy loads on the first call rather than on ``import repro``; this
    estimator is its only user.  A float argument gives ``np.float64``.
    """
    global _ndtr_ufunc
    if _ndtr_ufunc is None:
        from scipy.special import ndtr

        _ndtr_ufunc = ndtr
    return _ndtr_ufunc(x)


def _norm_pdf(z):
    """Standard normal density, bit for bit ``scipy.stats.norm.pdf``.

    scipy evaluates ``np.exp(-x**2 / 2.0)`` on arrays, where ``x**2`` is
    ``x * x``; on a scalar ``**`` calls ``pow``, which rounds differently
    for some inputs, so the square is spelled out.  ``-0.5 *`` keeps the
    sign of a NaN that a unary minus would flip.
    """
    return np.exp(-0.5 * (z * z)) / _SQRT_TWO_PI


def clark_max(
    mean_a: float,
    var_a: float,
    mean_b: float,
    var_b: float,
    correlation: float = 0.0,
) -> tuple[float, float]:
    """Clark's moment-matched normal for ``max(A, B)``.

    Parameters
    ----------
    mean_a, var_a, mean_b, var_b:
        Moments of the two (approximately normal) operands.
    correlation:
        Correlation coefficient between A and B (default independent).

    Returns
    -------
    (mean, variance) of the matched normal.
    """
    if var_a < 0 or var_b < 0:
        raise ValueError("variances must be non-negative")
    if not (-1.0 <= correlation <= 1.0):
        raise ValueError(f"correlation must be in [-1, 1], got {correlation}")
    a2 = var_a + var_b - 2.0 * correlation * math.sqrt(var_a * var_b)
    if a2 <= 1e-30:
        # Deterministic comparison (or perfectly correlated equal spread).
        if mean_a >= mean_b:
            return mean_a, var_a
        return mean_b, var_b
    alpha = math.sqrt(a2)
    x = (mean_a - mean_b) / alpha
    cdf = _ndtr(x)
    pdf = math.exp(-0.5 * x * x) / _SQRT_TWO_PI
    mean = mean_a * cdf + mean_b * (1.0 - cdf) + alpha * pdf
    second = (
        (mean_a * mean_a + var_a) * cdf
        + (mean_b * mean_b + var_b) * (1.0 - cdf)
        + (mean_a + mean_b) * alpha * pdf
    )
    var = max(second - mean * mean, 0.0)
    return mean, var


@dataclass(frozen=True)
class ClarkEstimate:
    """Normal approximation of a schedule's makespan distribution."""

    mean: float
    std: float
    completion_means: np.ndarray
    completion_vars: np.ndarray

    def miss_rate(self, threshold: float) -> float:
        """Normal-theory ``P(M > threshold)``."""
        if self.std <= 0:
            return float(self.mean > threshold)
        z = (threshold - self.mean) / self.std
        return float(_ndtr(-z))

    def mean_relative_tardiness(self, threshold: float) -> float:
        """Normal-theory ``E[(M - threshold)+] / threshold``."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.std <= 0:
            return max(0.0, self.mean - threshold) / threshold
        z = (threshold - self.mean) / self.std
        expected_excess = (
            self.std * _norm_pdf(z) + (self.mean - threshold) * _ndtr(-z)
        )
        return float(max(expected_excess, 0.0) / threshold)


def _duration_moments(schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each task's uniform duration on its processor."""
    low, high = schedule.problem.uncertainty.duration_bounds(schedule.proc_of)
    mean = 0.5 * (low + high)
    var = (high - low) ** 2 / 12.0
    return mean, var


def _clark_max_canonical(
    mean_a: float,
    coef_a: np.ndarray,
    mean_b: float,
    coef_b: np.ndarray,
    var_b: float,
    var_d: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Clark max in canonical first-order form.

    Operands are represented as ``mean + coef . X`` over the independent
    zero-mean task-duration sources ``X`` (variances *var_d*), so the
    correlation at every join is exact.  The result's coefficients are the
    tightness-weighted blend, rescaled to match the Clark variance — the
    standard canonical-form propagation from statistical timing analysis.
    *var_b* is ``coef_b``'s variance, which the caller already holds.
    """
    var_a = float(np.dot(coef_a * coef_a, var_d))
    cov = float(np.dot(coef_a * coef_b, var_d))
    denom = math.sqrt(var_a * var_b)
    rho = cov / denom if denom > 0 else 0.0
    rho = min(1.0, max(-1.0, rho))
    mean, var = clark_max(mean_a, var_a, mean_b, var_b, correlation=rho)

    a2 = var_a + var_b - 2.0 * cov
    if a2 <= 1e-30:
        # Identical spreads: keep the dominant operand's form.
        return (mean, coef_a if mean_a >= mean_b else coef_b)
    x = (mean_a - mean_b) / math.sqrt(a2)
    tightness = _ndtr(x)
    coef = tightness * coef_a + (1.0 - tightness) * coef_b
    coef_var = float(np.dot(coef * coef, var_d))
    if coef_var > 0 and var > 0:
        coef = coef * math.sqrt(var / coef_var)
    return mean, coef


def clark_makespan(schedule: Schedule, *, track_correlations: bool = True) -> ClarkEstimate:
    """Approximate the makespan distribution of *schedule* analytically.

    One forward pass over the disjunctive graph in topological order;
    every multi-predecessor join folds the candidate completion times
    pairwise through Clark's max.

    Parameters
    ----------
    track_correlations:
        When true (default), completion times carry canonical first-order
        forms over the independent task durations, so path correlations
        (shared ancestors) are accounted for exactly at each join —
        markedly better means at O(n) extra cost per join.  When false,
        joins assume independence (faster, biased high).
    """
    mean_d, var_d = _duration_moments(schedule)
    dag = schedule.disjunctive
    comm = schedule.comm_weights
    n = schedule.n

    c_mean = np.zeros(n, dtype=np.float64)
    c_var = np.zeros(n, dtype=np.float64)
    coefs = np.zeros((n, n), dtype=np.float64) if track_correlations else None

    for v in dag.topo:
        v = int(v)
        eidx = dag.pred_edges(v)
        if eidx.size == 0:
            start_mean = 0.0
            start_var = 0.0
            start_coef = np.zeros(n, dtype=np.float64) if track_correlations else None
        else:
            src = dag.edge_src[eidx]
            cand_mean = c_mean[src] + comm[eidx]
            start_mean = float(cand_mean[0])
            if track_correlations:
                start_coef = coefs[int(src[0])].copy()
                for k in range(1, eidx.size):
                    start_mean, start_coef = _clark_max_canonical(
                        start_mean,
                        start_coef,
                        float(cand_mean[k]),
                        coefs[int(src[k])],
                        float(c_var[int(src[k])]),
                        var_d,
                    )
            else:
                start_coef = None
                start_var = float(c_var[int(src[0])])
                for k in range(1, eidx.size):
                    start_mean, start_var = clark_max(
                        start_mean,
                        start_var,
                        float(cand_mean[k]),
                        float(c_var[int(src[k])]),
                    )
        c_mean[v] = start_mean + mean_d[v]
        if track_correlations:
            coefs[v] = start_coef
            coefs[v, v] += 1.0
            c_var[v] = float(np.dot(coefs[v] * coefs[v], var_d))
        else:
            c_var[v] = start_var + var_d[v]

    # Makespan = max over exit nodes (out-degree 0 in G_s).
    outdeg = np.bincount(dag.edge_src, minlength=n)
    exits = np.flatnonzero(outdeg == 0)
    m_mean = float(c_mean[exits[0]])
    if track_correlations:
        m_coef = coefs[int(exits[0])].copy()
        for v in exits[1:]:
            m_mean, m_coef = _clark_max_canonical(
                m_mean, m_coef, float(c_mean[v]), coefs[int(v)], float(c_var[v]), var_d
            )
        m_var = float(np.dot(m_coef * m_coef, var_d))
    else:
        m_var = float(c_var[exits[0]])
        for v in exits[1:]:
            m_mean, m_var = clark_max(m_mean, m_var, float(c_mean[v]), float(c_var[v]))

    c_mean.setflags(write=False)
    c_var.setflags(write=False)
    return ClarkEstimate(
        mean=m_mean,
        std=math.sqrt(max(m_var, 0.0)),
        completion_means=c_mean,
        completion_vars=c_var,
    )


def analytic_robustness(schedule: Schedule) -> dict[str, float]:
    """Closed-form estimates of the paper's robustness quantities.

    Returns ``mean_makespan``, ``std_makespan``, ``miss_rate``,
    ``mean_tardiness``, ``r1`` and ``r2`` (``inf`` where the analytic
    tail mass vanishes), all relative to the schedule's expected makespan
    ``M_0`` as in Defs. 3.6/3.7.
    """
    est = clark_makespan(schedule)
    m0 = evaluate(schedule).makespan
    alpha = est.miss_rate(m0)
    tard = est.mean_relative_tardiness(m0)
    return {
        "mean_makespan": est.mean,
        "std_makespan": est.std,
        "miss_rate": alpha,
        "mean_tardiness": tard,
        "r1": (1.0 / tard) if tard > 0 else float("inf"),
        "r2": (1.0 / alpha) if alpha > 0 else float("inf"),
    }
