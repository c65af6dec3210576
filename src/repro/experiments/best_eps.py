"""Figs. 7 & 8: the best ε for overall performance as a function of r.

For each user weight ``r`` and uncertainty level, the paper reports the ε
(searched over [1.0, 2.0]) maximizing the mean overall performance
``P(s) = r log(M_HEFT/M) + (1-r) log(R/R_HEFT)`` (Eqn. 9), with R = R1
(Fig. 7) or R2 (Fig. 8).  Expected shapes: best ε decreases as r grows
(makespan emphasis forbids slack-buying) and increases with UL (more
uncertainty justifies a bigger makespan budget).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import PAPER_ULS, R1_CAP, ExperimentConfig
from repro.experiments.eps_sweep import PAPER_EPSILONS
from repro.experiments.runner import EpsGridResults, capped, run_eps_grid
from repro.robustness.performance import overall_performance
from repro.utils.tables import format_series

__all__ = ["BestEpsResult", "run_best_eps", "DEFAULT_R_GRID"]

#: The r-axis of Figs. 7/8.
DEFAULT_R_GRID: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class BestEpsResult:
    """Best ε per (r, UL) for both robustness definitions."""

    r_grid: tuple[float, ...]
    uls: tuple[float, ...]
    epsilons: tuple[float, ...]
    best_eps_r1: dict[float, np.ndarray]  # ul -> eps per r
    best_eps_r2: dict[float, np.ndarray]
    mean_performance_r1: dict[tuple[float, float], np.ndarray]  # (ul, r) -> per-eps
    mean_performance_r2: dict[tuple[float, float], np.ndarray]
    grid: EpsGridResults

    def to_table(self, which: str = "r1") -> str:
        """Render Fig. 7 (``which='r1'``) or Fig. 8 (``'r2'``)."""
        if which not in ("r1", "r2"):
            raise ValueError(f"which must be 'r1' or 'r2', got {which!r}")
        data = self.best_eps_r1 if which == "r1" else self.best_eps_r2
        series = {f"UL={ul:g}": data[ul] for ul in self.uls}
        fig = "7" if which == "r1" else "8"
        return format_series(
            "r",
            list(self.r_grid),
            series,
            title=f"Fig. {fig} — best eps for overall performance ({which.upper()})",
        )


def run_best_eps(
    config: ExperimentConfig,
    uls: tuple[float, ...] = PAPER_ULS,
    epsilons: tuple[float, ...] = PAPER_EPSILONS,
    r_grid: tuple[float, ...] = DEFAULT_R_GRID,
    *,
    grid: EpsGridResults | None = None,
    n_jobs: int = 1,
    progress=None,
    checkpoint=None,
    resume: bool = False,
) -> BestEpsResult:
    """Run the Figs. 7/8 experiment (reusing a Figs. 5/6 grid if given)."""
    epsilons = tuple(float(e) for e in epsilons)
    if 1.0 not in epsilons:
        epsilons = (1.0, *epsilons)
    if grid is None:
        grid = run_eps_grid(
            config,
            uls,
            epsilons,
            n_jobs=n_jobs,
            progress=progress,
            checkpoint=checkpoint,
            resume=resume,
        )

    uls = tuple(float(u) for u in uls)
    r_grid = tuple(float(r) for r in r_grid)

    best_r1: dict[float, np.ndarray] = {}
    best_r2: dict[float, np.ndarray] = {}
    perf_r1: dict[tuple[float, float], np.ndarray] = {}
    perf_r2: dict[tuple[float, float], np.ndarray] = {}

    for ul in uls:
        picks1, picks2 = [], []
        for r in r_grid:
            means1, means2 = [], []
            for eps in epsilons:
                vals1, vals2 = [], []
                for o in grid.outcomes(ul, eps):
                    vals1.append(
                        overall_performance(
                            o.ga.mean_makespan,
                            capped(o.ga.r1, R1_CAP),
                            o.heft.mean_makespan,
                            capped(o.heft.r1, R1_CAP),
                            r,
                        )
                    )
                    vals2.append(
                        overall_performance(
                            o.ga.mean_makespan,
                            capped(o.ga.r2, R1_CAP),
                            o.heft.mean_makespan,
                            capped(o.heft.r2, R1_CAP),
                            r,
                        )
                    )
                means1.append(float(np.mean(vals1)))
                means2.append(float(np.mean(vals2)))
            perf_r1[(ul, r)] = np.asarray(means1)
            perf_r2[(ul, r)] = np.asarray(means2)
            picks1.append(epsilons[int(np.argmax(means1))])
            picks2.append(epsilons[int(np.argmax(means2))])
        best_r1[ul] = np.asarray(picks1)
        best_r2[ul] = np.asarray(picks2)

    return BestEpsResult(
        r_grid=r_grid,
        uls=uls,
        epsilons=epsilons,
        best_eps_r1=best_r1,
        best_eps_r2=best_r2,
        mean_performance_r1=perf_r1,
        mean_performance_r2=perf_r2,
        grid=grid,
    )
