"""repro — robust bi-objective DAG scheduling for heterogeneous systems.

A from-scratch reproduction of Shi, Jeannot & Dongarra,
*"Robust task scheduling in non-deterministic heterogeneous computing
systems"* (IEEE CLUSTER 2006): schedule DAG applications onto
heterogeneous processors to simultaneously minimize makespan and maximize
robustness to task-duration uncertainty, via an ε-constraint genetic
algorithm that maximizes average slack subject to a HEFT-relative makespan
bound.

Quickstart::

    import repro

    problem = repro.SchedulingProblem.random(m=4, rng=42)
    result = repro.RobustScheduler(epsilon=1.3, rng=7).solve(problem)
    report = repro.assess_robustness(result.schedule, 1000, rng=11)
    print(report.expected_makespan, report.r1, report.r2)

Layers (see DESIGN.md): :mod:`repro.graph` (DAGs), :mod:`repro.platform`
(machines + uncertainty), :mod:`repro.schedule` (disjunctive-graph
evaluation), :mod:`repro.heuristics` (HEFT & friends), :mod:`repro.ga`
(the genetic algorithm), :mod:`repro.robustness` (Monte-Carlo metrics),
:mod:`repro.moop` (Pareto/NSGA-II extension), :mod:`repro.experiments`
(per-figure drivers), :mod:`repro.sim` (event-driven oracle),
:mod:`repro.faults` (fault injection & reactive policies),
:mod:`repro.energy` (energy pricing, DVFS and k-fault replication),
:mod:`repro.algebra` (composable list-scheduling components).
"""

from repro.algebra import (
    CATALOGUE,
    Components,
    ComponentScheduler,
    component_scheduler,
)
from repro.core.problem import SchedulingProblem
from repro.core.robust import RobustResult, RobustScheduler
from repro.energy import (
    EnergyBreakdown,
    EnergyConstraintFitness,
    EnergyResult,
    EnergyScheduler,
    PowerModel,
    ReplicationPlan,
    SurvivalReport,
    build_replication_plan,
    slowest_feasible_freqs,
    verify_survival,
)
from repro.faults import (
    BUILTIN_SCENARIOS,
    FaultAssessment,
    FaultScenario,
    LinkFault,
    OutageFault,
    SlowdownFault,
    TailFault,
    assess_robustness_faulty,
)
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    MakespanFitness,
    SlackFitness,
)
from repro.graph.generator import DagParams, random_dag
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.annealing import AnnealingParams, AnnealingScheduler
from repro.heuristics import (
    CpopScheduler,
    HeftScheduler,
    MinMinScheduler,
    PeftScheduler,
    QuantileHeftScheduler,
)
from repro.heuristics.random_sched import RandomScheduler
from repro.platform.etc import EtcParams, generate_etc
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel, UncertaintyParams
from repro.robustness.analysis import bootstrap_robustness, convergence_profile
from repro.robustness.clark import analytic_robustness, clark_makespan
from repro.robustness.montecarlo import RobustnessReport, assess_robustness
from repro.robustness.performance import overall_performance
from repro.schedule.evaluation import (
    ScheduleEvaluation,
    batch_makespans,
    evaluate,
    expected_makespan,
)
from repro.schedule.gantt import render_gantt
from repro.schedule.schedule import Schedule

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # problem construction
    "TaskGraph",
    "DagParams",
    "random_dag",
    "Platform",
    "EtcParams",
    "generate_etc",
    "UncertaintyModel",
    "UncertaintyParams",
    "SchedulingProblem",
    # schedules and evaluation
    "Schedule",
    "ScheduleEvaluation",
    "evaluate",
    "expected_makespan",
    "batch_makespans",
    # schedulers
    "HeftScheduler",
    "CpopScheduler",
    "MinMinScheduler",
    "PeftScheduler",
    "QuantileHeftScheduler",
    "AnnealingScheduler",
    "AnnealingParams",
    "RandomScheduler",
    "Components",
    "ComponentScheduler",
    "CATALOGUE",
    "component_scheduler",
    "GeneticScheduler",
    "GAParams",
    "MakespanFitness",
    "SlackFitness",
    "EpsilonConstraintFitness",
    "RobustScheduler",
    "RobustResult",
    # robustness
    "RobustnessReport",
    "assess_robustness",
    "overall_performance",
    "bootstrap_robustness",
    "convergence_profile",
    "clark_makespan",
    "analytic_robustness",
    # fault injection
    "FaultScenario",
    "SlowdownFault",
    "OutageFault",
    "LinkFault",
    "TailFault",
    "FaultAssessment",
    "assess_robustness_faulty",
    "BUILTIN_SCENARIOS",
    # energy and replication
    "PowerModel",
    "EnergyBreakdown",
    "slowest_feasible_freqs",
    "EnergyConstraintFitness",
    "EnergyScheduler",
    "EnergyResult",
    "ReplicationPlan",
    "SurvivalReport",
    "build_replication_plan",
    "verify_survival",
    # visualization
    "render_gantt",
]
