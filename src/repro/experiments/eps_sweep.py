"""Figs. 5 & 6: robustness improvement as the ε budget is relaxed.

For ε in [1.2, 2.0] the paper plots, per uncertainty level, the
improvement of R1 (Fig. 5) and R2 (Fig. 6) over the ε = 1.0 run:
``log(R(ε) / R(1.0))`` averaged over instances.  Expected shapes:
improvement grows with ε; at low UL it saturates early (little
uncertainty left to absorb), at high UL it keeps climbing; R2's curves
are less spread across UL than R1's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import PAPER_ULS, R1_CAP, ExperimentConfig
from repro.experiments.runner import EpsGridResults, capped, run_eps_grid
from repro.utils.tables import format_series

__all__ = ["EpsSweepResult", "run_eps_sweep", "PAPER_EPSILONS"]

#: ε grid of Figs. 5–8 (1.0 is the reference run).
PAPER_EPSILONS: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


@dataclass(frozen=True)
class EpsSweepResult:
    """R1/R2 improvement over ε = 1.0, indexed ``[ul][eps]``."""

    uls: tuple[float, ...]
    epsilons: tuple[float, ...]  # the swept values, excluding the 1.0 reference
    r1_improvement: dict[float, np.ndarray]
    r2_improvement: dict[float, np.ndarray]
    grid: EpsGridResults

    def to_table(self, which: str = "r1") -> str:
        """Render Fig. 5 (``which='r1'``) or Fig. 6 (``'r2'``)."""
        if which not in ("r1", "r2"):
            raise ValueError(f"which must be 'r1' or 'r2', got {which!r}")
        data = self.r1_improvement if which == "r1" else self.r2_improvement
        series = {f"UL={ul:g}": data[ul] for ul in self.uls}
        fig = "5" if which == "r1" else "6"
        return format_series(
            "eps",
            list(self.epsilons),
            series,
            title=f"Fig. {fig} — {which.upper()} improvement over eps = 1.0 (log ratio)",
        )


def run_eps_sweep(
    config: ExperimentConfig,
    uls: tuple[float, ...] = PAPER_ULS,
    epsilons: tuple[float, ...] = PAPER_EPSILONS,
    *,
    grid: EpsGridResults | None = None,
    n_jobs: int = 1,
    progress=None,
    checkpoint=None,
    resume: bool = False,
) -> EpsSweepResult:
    """Run the Figs. 5/6 experiment.

    Parameters
    ----------
    grid:
        Optionally reuse a precomputed :func:`run_eps_grid` result covering
        these ULs and ε values (Figs. 7/8 share the same grid).
    """
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

    swept = tuple(e for e in epsilons if e != 1.0)
    r1_improvement: dict[float, np.ndarray] = {}
    r2_improvement: dict[float, np.ndarray] = {}
    for ul in uls:
        ref = {o.instance: o for o in grid.outcomes(ul, 1.0)}
        r1_row, r2_row = [], []
        for eps in swept:
            vals1, vals2 = [], []
            for o in grid.outcomes(ul, eps):
                base = ref[o.instance]
                vals1.append(
                    np.log(capped(o.ga.r1, R1_CAP) / capped(base.ga.r1, R1_CAP))
                )
                vals2.append(
                    np.log(capped(o.ga.r2, R1_CAP) / capped(base.ga.r2, R1_CAP))
                )
            r1_row.append(float(np.mean(vals1)))
            r2_row.append(float(np.mean(vals2)))
        r1_improvement[ul] = np.asarray(r1_row)
        r2_improvement[ul] = np.asarray(r2_row)

    return EpsSweepResult(
        uls=tuple(float(u) for u in uls),
        epsilons=swept,
        r1_improvement=r1_improvement,
        r2_improvement=r2_improvement,
        grid=grid,
    )
