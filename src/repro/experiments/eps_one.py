"""Fig. 4: improvement over HEFT at ε = 1.0.

With ε = 1.0 the GA may not exceed HEFT's expected makespan, so any
robustness gain is "free".  For each uncertainty level the paper plots the
log ratio of relative improvement over HEFT of three quantities:

* mean realized makespan — ``log(M_HEFT / M_GA)`` (positive: GA no worse);
* R1 — ``log(R1_GA / R1_HEFT)`` (the paper reports ~13 % at UL = 2,
  shrinking as UL grows);
* R2 — same form, smaller gains than R1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import PAPER_ULS, ExperimentConfig
from repro.experiments.runner import EpsGridResults, run_eps_grid
from repro.utils.tables import format_series

__all__ = ["EpsOneResult", "run_eps_one"]


@dataclass(frozen=True)
class EpsOneResult:
    """Fig. 4's three series over the UL axis (mean log improvement over HEFT)."""

    uls: tuple[float, ...]
    makespan: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    grid: EpsGridResults

    def to_table(self) -> str:
        """Render the figure as an ASCII table."""
        return format_series(
            "UL",
            list(self.uls),
            {
                "makespan": self.makespan,
                "R1": self.r1,
                "R2": self.r2,
            },
            title="Fig. 4 — log ratio of relative improvement over HEFT (eps = 1.0)",
        )


def run_eps_one(
    config: ExperimentConfig,
    uls: tuple[float, ...] = PAPER_ULS,
    *,
    grid: EpsGridResults | None = None,
    n_jobs: int = 1,
    progress=None,
    checkpoint=None,
    resume: bool = False,
) -> EpsOneResult:
    """Run the Fig. 4 experiment.

    Parameters
    ----------
    grid:
        Optionally reuse a precomputed grid that covers these ULs at
        ε = 1.0 (the Figs. 5-8 grid qualifies).
    """
    if grid is None:
        grid = run_eps_grid(
            config,
            uls,
            (1.0,),
            n_jobs=n_jobs,
            progress=progress,
            checkpoint=checkpoint,
            resume=resume,
        )
    makespan = np.asarray(
        [
            grid.mean_log_ratio(
                ul, 1.0, lambda o: o.heft.mean_makespan, lambda o: o.ga.mean_makespan
            )
            for ul in uls
        ]
    )
    r1 = np.asarray(
        [
            grid.mean_log_ratio(ul, 1.0, lambda o: o.ga.r1, lambda o: o.heft.r1)
            for ul in uls
        ]
    )
    r2 = np.asarray(
        [
            grid.mean_log_ratio(ul, 1.0, lambda o: o.ga.r2, lambda o: o.heft.r2)
            for ul in uls
        ]
    )
    return EpsOneResult(
        uls=tuple(float(u) for u in uls), makespan=makespan, r1=r1, r2=r2, grid=grid
    )
