"""Fault-injection & perturbation subsystem.

Stress-tests the paper's robustness claims beyond its stochastic-duration
model: composable fault scenarios (processor slowdowns, outage windows,
permanent failures, link degradation, heavy-tailed duration outliers)
realized through reactive policies (keep the schedule, repair it, or go
fully dynamic), assessed with the same Monte-Carlo R1/R2/miss-rate
machinery as :mod:`repro.robustness` — bit-identical to it when the
scenario is empty.

See ``docs/faults.md`` for the guided tour.
"""

from repro.faults.assess import POLICIES, FaultAssessment, assess_robustness_faulty
from repro.faults.environment import FaultEnvironment
from repro.faults.perturb import (
    PerturbedRealization,
    apply_tail_faults,
    realize_perturbed,
)
from repro.faults.scenario import (
    FaultScenario,
    LinkFault,
    OutageFault,
    SlowdownFault,
    TailFault,
)
from repro.faults.spec import (
    BUILTIN_SCENARIOS,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.sim.dynamic import luck_fractions

__all__ = [
    "POLICIES",
    "FaultAssessment",
    "assess_robustness_faulty",
    "FaultEnvironment",
    "PerturbedRealization",
    "apply_tail_faults",
    "realize_perturbed",
    "luck_fractions",
    "FaultScenario",
    "SlowdownFault",
    "OutageFault",
    "LinkFault",
    "TailFault",
    "BUILTIN_SCENARIOS",
    "load_scenario",
    "resolve_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]
