"""Discrete-event execution simulators, one per dispatch rule.

:func:`simulate` is an independent implementation of the paper's
execution semantics ("each task starts to execute as soon as it becomes
ready", Claim 3.2) for a static schedule, used to cross-validate the
critical-path schedule evaluator: both must produce identical
start/finish times and makespans for any schedule and any duration
realization.  It also produces Gantt-style traces for the examples.

:func:`simulate_dynamic` (online MCT placement) and
:func:`simulate_semi_dynamic` (fixed assignment, runtime ordering) are
the online alternatives.  All three take an optional execution
environment ``env`` (e.g. :class:`repro.faults.FaultEnvironment`);
without one they run the fault-free rule.
"""

from repro.sim.dynamic import DynamicRun, simulate_dynamic, simulate_semi_dynamic
from repro.sim.eventsim import GanttEntry, SimulationResult, simulate

__all__ = [
    "simulate",
    "SimulationResult",
    "GanttEntry",
    "simulate_dynamic",
    "simulate_semi_dynamic",
    "DynamicRun",
]
