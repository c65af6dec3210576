"""The robust-scheduling problem instance (paper Sec. 3.1 + Sec. 5 setup).

A :class:`SchedulingProblem` bundles everything a scheduler needs:

* the task graph ``G`` with per-edge data sizes;
* the platform (processors + transfer rates);
* the uncertainty model (best-case times ``B``, levels ``UL``), from which
  the *expected* execution-time matrix ``E = UL ∘ B`` — the only timing
  information any scheduler in this library is allowed to see — derives.

:meth:`SchedulingProblem.random` reproduces the paper's experimental
instance generator: a layered random DAG (``n``, ``alpha``, ``cc``, ``CCR``),
a COV-based BCET matrix (``V_task = V_mach = 0.5``) and a two-stage-gamma
``UL`` matrix (``V1 = V2 = 0.5``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.generator import DagParams, random_dag
from repro.graph.taskgraph import TaskGraph
from repro.platform.etc import EtcParams, generate_etc
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel, UncertaintyParams
from repro.utils.rng import as_generator

__all__ = ["SchedulingProblem"]


def _check_task_count(uncertainty: UncertaintyModel, n: int) -> None:
    """Raise ``ValueError`` unless *uncertainty* covers exactly *n* tasks.

    :class:`SchedulingProblem` checks its graph with it; a problem decoder
    checks a declared task count with it before anything is sized by it.
    """
    if uncertainty.n != n:
        raise ValueError(
            f"uncertainty model covers {uncertainty.n} tasks but the graph has {n}"
        )


@dataclass(frozen=True)
class SchedulingProblem:
    """A task graph, a platform, and an uncertainty model.

    Attributes
    ----------
    graph:
        The application DAG.
    platform:
        The heterogeneous platform.
    uncertainty:
        Best-case times and uncertainty levels; ``uncertainty.expected_times``
        is the scheduler-visible ``n x m`` expected execution-time matrix.
    name:
        Label used in reports.
    """

    graph: TaskGraph
    platform: Platform
    uncertainty: UncertaintyModel
    name: str = field(default="problem")

    def __post_init__(self) -> None:
        _check_task_count(self.uncertainty, self.graph.n)
        if self.uncertainty.m != self.platform.m:
            raise ValueError(
                f"uncertainty model covers {self.uncertainty.m} processors but "
                f"the platform has {self.platform.m}"
            )

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of tasks."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of processors."""
        return self.platform.m

    @property
    def expected_times(self) -> np.ndarray:
        """Scheduler-visible expected execution-time matrix ``E = UL ∘ B``."""
        return self.uncertainty.expected_times

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls,
        m: int = 4,
        dag_params: DagParams | None = None,
        etc_params: EtcParams | None = None,
        uncertainty_params: UncertaintyParams | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        name: str | None = None,
    ) -> "SchedulingProblem":
        """Generate a random instance with the paper's methodology.

        Parameters
        ----------
        m:
            Processor count.  The paper never states it outside the 4-processor
            worked example (Fig. 1); 4 is therefore the default.
        dag_params:
            Graph-generator inputs; defaults to the paper's
            ``n=100, alpha=1, cc=20, CCR=0.1``.
        etc_params:
            BCET generator inputs; ``mu_task`` defaults to ``dag_params.cc``
            so the two stay consistent, with ``V_task = V_mach = 0.5``.
        uncertainty_params:
            UL generator inputs; defaults to ``mean UL = 2, V1 = V2 = 0.5``.
        rng:
            Seed or generator; three child streams are derived for the
            graph, the BCET matrix and the UL matrix.
        """
        gen = as_generator(rng)
        g_rng, b_rng, u_rng = gen.spawn(3)
        dag_params = dag_params or DagParams()
        etc_params = etc_params or EtcParams(mu_task=dag_params.cc)
        uncertainty_params = uncertainty_params or UncertaintyParams()

        graph = random_dag(dag_params, g_rng)
        platform = Platform(m)
        bcet = generate_etc(graph.n, m, etc_params, b_rng)
        uncertainty = UncertaintyModel.generate(bcet, uncertainty_params, u_rng)
        label = name or f"random(n={graph.n},m={m},UL={uncertainty_params.mean_ul})"
        return cls(graph=graph, platform=platform, uncertainty=uncertainty, name=label)

    @classmethod
    def deterministic(
        cls,
        graph: TaskGraph,
        times: np.ndarray,
        platform: Platform | None = None,
        *,
        name: str = "deterministic",
    ) -> "SchedulingProblem":
        """Wrap a classic deterministic instance (``UL = 1`` everywhere).

        Useful for unit tests against hand-worked schedules and for running
        the library as a plain HEFT-style scheduler.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 2 or times.shape[0] != graph.n:
            raise ValueError(
                f"times must be (n={graph.n}, m) execution times, got {times.shape}"
            )
        platform = platform or Platform(times.shape[1])
        return cls(
            graph=graph,
            platform=platform,
            uncertainty=UncertaintyModel.deterministic(times),
            name=name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SchedulingProblem(name={self.name!r}, n={self.n}, m={self.m}, "
            f"edges={self.graph.num_edges})"
        )
