"""Monte-Carlo robustness assessment — the simulated "real environment".

The paper evaluates every schedule against ``N = 1000`` realizations of the
task execution times (Sec. 5).  :func:`assess_robustness` performs that
experiment for one schedule: sample realizations from the uncertainty
model, compute all realized makespans in one vectorized critical-path
pass, and derive tardiness / miss-rate / R1 / R2 along with the schedule's
static expected makespan and slack.

For the paper's uniform model with the native library loaded, sampling
and the critical-path pass are one C call (``mc_makespans`` in
:mod:`repro.graph._native`) that draws the same numbers from the same
generator and returns the same makespans bit for bit, in blocks of
realizations, never holding the ``(N, n)`` durations.
:meth:`~repro.platform.uncertainty.UncertaintyModel.realize_durations`
then :func:`~repro.schedule.evaluation.batch_makespans` stay the
reference, and the path for the other duration families and for
``REPRO_NATIVE=0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import _native
from repro.obs import runtime as obs
from repro.robustness.metrics import (
    mean_relative_tardiness,
    miss_rate,
    robustness_miss_rate,
    robustness_tardiness,
)
from repro.schedule.evaluation import batch_makespans, evaluate
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["RobustnessReport", "assess_robustness"]


@dataclass(frozen=True)
class RobustnessReport:
    """All per-schedule quantities the paper's experiments consume.

    Attributes
    ----------
    expected_makespan:
        ``M_0`` — makespan under expected durations.
    avg_slack:
        Average slack ``σ̄`` under expected durations (Eqn. 3).
    realized_makespans:
        The ``N`` sampled makespans ``M_1..M_N``.
    mean_makespan:
        Mean realized makespan (what Figs. 2 and 4 plot as "makespan").
    mean_tardiness:
        ``E[δ_i]`` sample estimate.
    miss_rate:
        ``α``.
    r1, r2:
        The two robustness values (``inf`` when never tardy / never missed).
    """

    expected_makespan: float
    avg_slack: float
    realized_makespans: np.ndarray
    mean_makespan: float
    mean_tardiness: float
    miss_rate: float
    r1: float
    r2: float

    @property
    def n_realizations(self) -> int:
        """Number of Monte-Carlo realizations behind this report."""
        return int(self.realized_makespans.size)


def assess_robustness(
    schedule: Schedule,
    n_realizations: int = 1000,
    rng: np.random.Generator | int | None = None,
    *,
    family: str = "uniform",
) -> RobustnessReport:
    """Run the Monte-Carlo robustness experiment for one schedule.

    Parameters
    ----------
    schedule:
        The schedule under test.
    n_realizations:
        ``N`` (paper default 1000).
    rng:
        Seed or generator for the realization draws.
    family:
        Duration distribution family (see
        :meth:`~repro.platform.uncertainty.UncertaintyModel.realize_durations`);
        the paper's model is ``"uniform"``.

    Returns
    -------
    RobustnessReport

    Raises
    ------
    ValueError
        If ``n_realizations < 1`` — validated here, at the API boundary,
        instead of surfacing as an opaque failure deep inside the
        batched kernel.
    """
    n_realizations = int(n_realizations)
    if n_realizations < 1:
        raise ValueError(
            f"n_realizations must be >= 1, got {n_realizations}"
        )
    gen = as_generator(rng)
    with obs.trace(
        "mc.assess_robustness", n_realizations=n_realizations, family=family
    ):
        static = evaluate(schedule)
        m0 = static.makespan
        realized = _realized_makespans(schedule, n_realizations, gen, family)
        realized.setflags(write=False)
        return RobustnessReport(
            expected_makespan=m0,
            avg_slack=static.avg_slack,
            realized_makespans=realized,
            mean_makespan=float(realized.mean()),
            mean_tardiness=mean_relative_tardiness(realized, m0),
            miss_rate=miss_rate(realized, m0),
            r1=robustness_tardiness(realized, m0),
            r2=robustness_miss_rate(realized, m0),
        )


def _realized_makespans(
    schedule: Schedule,
    n_realizations: int,
    gen: np.random.Generator,
    family: str = "uniform",
) -> np.ndarray:
    """``n_realizations >= 1`` sampled makespans of *schedule* from *gen*.

    One ``mc_makespans`` call for the uniform family with the native
    library loaded, else ``realize_durations`` then ``batch_makespans``
    (see the module docstring); both run the forward pass over the
    schedule's disjunctive graph.  Traced, the draws run inside an
    ``mc.realize_durations`` span and the pass counts one
    ``kernel.batch_forward.*`` call either way.
    """
    lib = _native.get_lib()
    with obs.trace("mc.realize_durations", n_realizations=n_realizations):
        if lib is not None and family == "uniform":
            if obs.enabled():
                obs.add("kernel.batch_forward.native")
            low, span = schedule.problem.uncertainty.uniform_support(
                schedule.proc_of
            )
            dag = schedule.disjunctive
            sinks = dag.sinks
            out = np.empty(n_realizations)
            scratch = np.empty(2 * _native.MC_BLOCK * schedule.n)
            with gen.bit_generator.lock:
                lib.mc_makespans(
                    schedule.n,
                    n_realizations,
                    dag.topo.ctypes.data,
                    dag.pred_indptr.ctypes.data,
                    dag.pred_eidx.ctypes.data,
                    dag.edge_src.ctypes.data,
                    schedule.comm_weights.ctypes.data,
                    sinks.ctypes.data,
                    sinks.size,
                    low.ctypes.data,
                    span.ctypes.data,
                    _native.bitgen(gen),
                    scratch.ctypes.data,
                    out.ctypes.data,
                )
            return out
        durations = schedule.problem.uncertainty.realize_durations(
            schedule.proc_of, n_realizations, gen, family=family
        )
    # Freshly sampled durations are finite and non-negative by
    # construction, so skip the validation scan.
    return batch_makespans(schedule, durations, validate=False)
