"""Statistical analysis of robustness estimates.

The paper fixes N = 1000 realizations without justifying it; this module
provides the tooling to check that choice: bootstrap confidence intervals
for R1/R2/miss-rate, and a convergence profile showing how the estimates
stabilise as N grows.  Used by the diagnostics example and available to
downstream users deciding how many realizations their precision needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.robustness.metrics import (
    mean_relative_tardiness,
    miss_rate,
    robustness_miss_rate,
    robustness_tardiness,
)
from repro.robustness.montecarlo import _realized_makespans
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["BootstrapCI", "bootstrap_robustness", "convergence_profile"]


@dataclass(frozen=True)
class BootstrapCI:
    """A point estimate with a percentile-bootstrap confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width (``inf`` when an endpoint is infinite)."""
        return self.upper - self.lower

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.estimate:.4g} "
            f"[{self.lower:.4g}, {self.upper:.4g}] @ {self.confidence:.0%}"
        )


def _percentile_ci(
    samples: np.ndarray, estimate: float, confidence: float
) -> BootstrapCI:
    alpha = (1.0 - confidence) / 2.0
    # method="nearest" keeps endpoints at actual sample values, so
    # replicates at inf (a resample that never misses) never enter
    # interpolation arithmetic (inf - inf -> nan).
    lower, upper = np.quantile(samples, [alpha, 1.0 - alpha], method="nearest")
    return BootstrapCI(
        estimate=float(estimate),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
    )


def bootstrap_robustness(
    realized_makespans: np.ndarray,
    expected_makespan: float,
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    rng: np.random.Generator | int | None = None,
) -> dict[str, BootstrapCI]:
    """Percentile-bootstrap CIs for the paper's robustness metrics.

    Returns a dict with keys ``"r1"``, ``"r2"``, ``"miss_rate"`` and
    ``"mean_tardiness"``.  Resamples with infinite metric values (a
    bootstrap replicate that never misses) propagate ``inf`` into the
    upper endpoint, which is the honest answer.
    """
    realized = np.asarray(realized_makespans, dtype=np.float64).ravel()
    if realized.size < 2:
        raise ValueError("need at least two realizations to bootstrap")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_boot < 10:
        raise ValueError(f"n_boot must be >= 10, got {n_boot}")
    gen = as_generator(rng)

    n = realized.size
    idx = gen.integers(n, size=(n_boot, n))
    resamples = realized[idx]  # (n_boot, n)

    excess = np.maximum(0.0, resamples - expected_makespan) / expected_makespan
    tard = excess.mean(axis=1)
    miss = (resamples > expected_makespan).mean(axis=1)
    with np.errstate(divide="ignore"):
        r1 = np.where(tard > 0, 1.0 / np.where(tard > 0, tard, 1.0), np.inf)
        r2 = np.where(miss > 0, 1.0 / np.where(miss > 0, miss, 1.0), np.inf)

    return {
        "mean_tardiness": _percentile_ci(
            tard, mean_relative_tardiness(realized, expected_makespan), confidence
        ),
        "miss_rate": _percentile_ci(
            miss, miss_rate(realized, expected_makespan), confidence
        ),
        "r1": _percentile_ci(
            r1, robustness_tardiness(realized, expected_makespan), confidence
        ),
        "r2": _percentile_ci(
            r2, robustness_miss_rate(realized, expected_makespan), confidence
        ),
    }


def convergence_profile(
    schedule: Schedule,
    sample_sizes: tuple[int, ...] = (50, 100, 250, 500, 1000, 2000),
    rng: np.random.Generator | int | None = None,
) -> dict[int, dict[str, float]]:
    """R1/R2/miss-rate estimates at growing Monte-Carlo sample sizes.

    Samples are nested (the N=100 estimate reuses the first 100 of the
    N=2000 draws) so the profile shows pure estimator convergence, not
    draw-to-draw noise.
    """
    if not sample_sizes or any(s < 1 for s in sample_sizes):
        raise ValueError("sample_sizes must be positive")
    sizes = tuple(sorted(set(int(s) for s in sample_sizes)))
    gen = as_generator(rng)

    from repro.schedule.evaluation import evaluate

    m0 = evaluate(schedule).makespan
    makespans = _realized_makespans(schedule, sizes[-1], gen)

    profile: dict[int, dict[str, float]] = {}
    for size in sizes:
        window = makespans[:size]
        profile[size] = {
            "mean_makespan": float(window.mean()),
            "mean_tardiness": mean_relative_tardiness(window, m0),
            "miss_rate": miss_rate(window, m0),
            "r1": robustness_tardiness(window, m0),
            "r2": robustness_miss_rate(window, m0),
        }
    return profile
