"""Experiment configuration and scale presets.

The paper's full protocol — 100 random graphs of 100 tasks, 1000
realizations each, GAs run for up to 1000 generations — takes hours.  All
drivers therefore accept a :class:`Scale`, with three presets:

``paper``
    The exact Sec. 5 protocol.
``medium``
    ~10x cheaper in every dimension; shapes remain stable.  Default for
    locally exploring results.
``smoke``
    Seconds-level; used by the benchmark suite and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.graph.generator import DagParams
from repro.platform.etc import EtcParams
from repro.platform.uncertainty import UncertaintyParams

__all__ = ["Scale", "SCALES", "ExperimentConfig", "PAPER_ULS", "R1_CAP"]


#: The uncertainty levels swept throughout Sec. 5.
PAPER_ULS: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0)

#: Finite stand-in for infinite robustness values when aggregating
#: log-ratios across instances (a schedule that never misses has
#: ``R = inf``; rare but possible at small scales).
R1_CAP = 1e6


@dataclass(frozen=True)
class Scale:
    """Cost knobs of one experiment run.

    Attributes
    ----------
    n_graphs:
        Number of random task-graph instances averaged over (paper: 100).
    n_realizations:
        Monte-Carlo realizations per schedule (paper: 1000).
    n_tasks:
        Tasks per graph (paper: 100).
    ga_max_iterations / ga_stagnation:
        GA stopping rule (paper: 1000 / 100).
    """

    name: str
    n_graphs: int
    n_realizations: int
    n_tasks: int
    ga_max_iterations: int
    ga_stagnation: int

    def __post_init__(self) -> None:
        for attr in (
            "n_graphs",
            "n_realizations",
            "n_tasks",
            "ga_max_iterations",
            "ga_stagnation",
        ):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1")


SCALES: dict[str, Scale] = {
    "paper": Scale(
        name="paper",
        n_graphs=100,
        n_realizations=1000,
        n_tasks=100,
        ga_max_iterations=1000,
        ga_stagnation=100,
    ),
    "medium": Scale(
        name="medium",
        n_graphs=10,
        n_realizations=300,
        n_tasks=60,
        ga_max_iterations=300,
        ga_stagnation=60,
    ),
    "smoke": Scale(
        name="smoke",
        n_graphs=3,
        n_realizations=120,
        n_tasks=30,
        ga_max_iterations=80,
        ga_stagnation=40,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a driver needs besides its figure-specific sweep axis.

    Attributes
    ----------
    scale:
        A :class:`Scale` or the name of a preset.
    m:
        Processor count (the paper states it only for the Fig. 1 example;
        4 there, 4 here).
    dag:
        Graph-generator parameters; ``n`` is overridden by the scale.
    etc:
        BCET generator parameters (``V_task = V_mach = 0.5``).
    seed:
        Root seed; instances, GA runs and Monte-Carlo draws all derive
        independent child streams from it.
    """

    scale: Scale = SCALES["medium"]
    m: int = 4
    dag: DagParams = field(default_factory=DagParams)
    etc: EtcParams = field(default_factory=EtcParams)
    seed: int = 20060925  # CLUSTER 2006 conference date

    def __post_init__(self) -> None:
        if isinstance(self.scale, str):
            try:
                object.__setattr__(self, "scale", SCALES[self.scale])
            except KeyError:
                raise ValueError(
                    f"unknown scale {self.scale!r}; choose from {sorted(SCALES)}"
                ) from None
        if self.m < 1:
            raise ValueError("m must be >= 1")
        # The scale dictates the graph size.
        if self.dag.n != self.scale.n_tasks:
            object.__setattr__(self, "dag", replace(self.dag, n=self.scale.n_tasks))

    def uncertainty(self, mean_ul: float) -> UncertaintyParams:
        """Paper's UL-generation parameters at a given mean level."""
        return UncertaintyParams(mean_ul=mean_ul, v1=0.5, v2=0.5)

    def ga_params(self, *, seed_heft: bool = True):
        """Paper's GA hyper-parameters under this scale."""
        from repro.ga.engine import GAParams

        return GAParams(
            population_size=20,
            crossover_prob=0.9,
            mutation_prob=0.1,
            max_iterations=self.scale.ga_max_iterations,
            stagnation_limit=self.scale.ga_stagnation,
            seed_heft=seed_heft,
        )
