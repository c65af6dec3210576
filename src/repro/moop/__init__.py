"""Multi-objective optimization extension (DESIGN.md S20).

The paper frames robust scheduling as a bi-objective problem whose optima
form a non-dominated (Pareto) set, then scalarizes via the ε-constraint
method.  This extension implements the canonical alternative — NSGA-II —
so the two approaches can be compared (ablation A1): a single NSGA-II run
approximates the whole makespan/slack Pareto front that would otherwise
require one ε-constraint GA run per ε value.
"""

from repro.moop.fronts import (
    FrontResult,
    energy_front,
    epsilon_front,
    weighted_sum_front,
)
from repro.moop.nsga2 import Nsga2Result, Nsga2Scheduler
from repro.moop.pareto import (
    coverage,
    crowding_distance,
    dominates,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front_mask,
)
from repro.moop.weighted_sum import WeightedSumFitness

__all__ = [
    "dominates",
    "pareto_front_mask",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "coverage",
    "Nsga2Scheduler",
    "Nsga2Result",
    "WeightedSumFitness",
    "FrontResult",
    "epsilon_front",
    "energy_front",
    "weighted_sum_front",
]
