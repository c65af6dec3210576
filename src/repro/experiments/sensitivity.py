"""Parameter-sensitivity study (extension; not a paper figure).

The paper fixes the instance parameters at ``n = 100, alpha = 1.0,
cc = 20, CCR = 0.1`` and 4 processors.  This driver sweeps one generator
parameter at a time — CCR, the shape parameter alpha, or the processor
count — and reports how the ε = 1.0 robustness gain over HEFT responds,
answering "does the paper's conclusion survive away from its corner of
the parameter space?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.robust import RobustScheduler
from repro.experiments.config import R1_CAP, ExperimentConfig
from repro.experiments.runner import capped
from repro.experiments.workloads import make_problem
from repro.heuristics.heft import HeftScheduler
from repro.robustness.montecarlo import assess_robustness
from repro.utils.rng import role_stream
from repro.utils.tables import format_series

__all__ = ["SensitivityResult", "run_sensitivity"]

_SWEEPABLE = ("ccr", "alpha", "m")


@dataclass(frozen=True)
class SensitivityResult:
    """Robustness/makespan gains of the ε = 1.0 GA along one parameter axis."""

    parameter: str
    values: tuple[float, ...]
    r1_gain: np.ndarray
    r2_gain: np.ndarray
    makespan_gain: np.ndarray

    def to_table(self) -> str:
        """Render the sweep as an ASCII table."""
        return format_series(
            self.parameter,
            list(self.values),
            {
                "makespan": self.makespan_gain,
                "R1": self.r1_gain,
                "R2": self.r2_gain,
            },
            title=(
                "Sensitivity — mean log-improvement of the eps=1.0 GA over "
                f"HEFT vs {self.parameter}"
            ),
        )


def _configure(config: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    if parameter == "ccr":
        return replace(config, dag=replace(config.dag, ccr=float(value)))
    if parameter == "alpha":
        return replace(config, dag=replace(config.dag, alpha=float(value)))
    if parameter == "m":
        return replace(config, m=int(value))
    raise ValueError(f"parameter must be one of {_SWEEPABLE}, got {parameter!r}")


def run_sensitivity(
    config: ExperimentConfig,
    parameter: str,
    values: tuple[float, ...],
    mean_ul: float = 4.0,
    *,
    progress=None,
) -> SensitivityResult:
    """Sweep *parameter* over *values* at a fixed uncertainty level.

    Parameters
    ----------
    parameter:
        ``"ccr"``, ``"alpha"`` or ``"m"``.
    values:
        Axis values (processor counts are truncated to int).
    mean_ul:
        The uncertainty level held fixed during the sweep.
    """
    if parameter not in _SWEEPABLE:
        raise ValueError(f"parameter must be one of {_SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("values must be non-empty")
    n_real = config.scale.n_realizations

    r1_rows, r2_rows, mk_rows = [], [], []
    for value in values:
        cfg = _configure(config, parameter, value)
        gains_r1, gains_r2, gains_mk = [], [], []
        for i in range(cfg.scale.n_graphs):
            problem = make_problem(cfg, mean_ul, i)
            heft = HeftScheduler().schedule(problem)
            heft_rep = assess_robustness(
                heft,
                n_real,
                role_stream(cfg.seed, "sensitivity.heft_mc", i),
            )
            ga = RobustScheduler(
                epsilon=1.0,
                params=cfg.ga_params(),
                rng=role_stream(cfg.seed, "sensitivity.ga", i),
            ).solve(problem, heft_schedule=heft)
            ga_rep = assess_robustness(
                ga.schedule,
                n_real,
                role_stream(cfg.seed, "sensitivity.ga_mc", i),
            )
            gains_r1.append(
                math.log(capped(ga_rep.r1, R1_CAP) / capped(heft_rep.r1, R1_CAP))
            )
            gains_r2.append(
                math.log(capped(ga_rep.r2, R1_CAP) / capped(heft_rep.r2, R1_CAP))
            )
            gains_mk.append(
                math.log(heft_rep.mean_makespan / ga_rep.mean_makespan)
            )
        r1_rows.append(float(np.mean(gains_r1)))
        r2_rows.append(float(np.mean(gains_r2)))
        mk_rows.append(float(np.mean(gains_mk)))
        if progress is not None:
            progress(f"{parameter}={value:g} done")

    return SensitivityResult(
        parameter=parameter,
        values=tuple(float(v) for v in values),
        r1_gain=np.asarray(r1_rows),
        r2_gain=np.asarray(r2_rows),
        makespan_gain=np.asarray(mk_rows),
    )
