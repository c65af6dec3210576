"""Bi-objective genetic algorithm (paper Sec. 4.2).

* :class:`~repro.ga.chromosome.Chromosome` — scheduling string + processor
  assignment (Sec. 4.2.1), decodable to a :class:`~repro.schedule.Schedule`.
* :mod:`~repro.ga.crossover` / :mod:`~repro.ga.mutation` /
  :mod:`~repro.ga.selection` — the paper's precedence-preserving operators
  (Secs. 4.2.4–4.2.6).
* :mod:`~repro.ga.fitness` — pluggable fitness policies scoring a
  :class:`~repro.ga.fitness.Population` view: pure makespan (Fig. 2),
  pure slack (Fig. 3), and the ε-constraint penalty fitness of Eqn. 8
  (Figs. 4–8), plus the quantile-fed extension.
* :class:`~repro.ga.engine.GeneticScheduler` — the evolution loop with
  HEFT seeding, binary tournament, elitism and the paper's stopping rule.
"""

from repro.ga.analytic_fitness import AnalyticRobustnessFitness
from repro.ga.chromosome import Chromosome, heft_chromosome, random_chromosome
from repro.ga.crossover import single_point_crossover
from repro.ga.engine import GAHistory, GAParams, GAResult, GeneticScheduler
from repro.ga.island import IslandGeneticScheduler, IslandParams, IslandResult
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    FitnessPolicy,
    Individual,
    MakespanFitness,
    Population,
    SlackFitness,
)
from repro.ga.mutation import legal_window, mutate
from repro.ga.selection import binary_tournament
from repro.ga.variants import (
    adjacent_swap_mutation,
    order_only_crossover,
    rebalance_mutation,
    uniform_processor_crossover,
)

__all__ = [
    "Chromosome",
    "random_chromosome",
    "heft_chromosome",
    "single_point_crossover",
    "mutate",
    "legal_window",
    "binary_tournament",
    "FitnessPolicy",
    "Population",
    "Individual",
    "MakespanFitness",
    "SlackFitness",
    "EpsilonConstraintFitness",
    "AnalyticRobustnessFitness",
    "GAParams",
    "GAResult",
    "GAHistory",
    "GeneticScheduler",
    "uniform_processor_crossover",
    "order_only_crossover",
    "adjacent_swap_mutation",
    "rebalance_mutation",
    "IslandGeneticScheduler",
    "IslandParams",
    "IslandResult",
]
