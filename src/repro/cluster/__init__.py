"""repro.cluster — local-first, fault-tolerant parallel task execution.

The paper's experiment grids (Figs. 4-8), the Fig. 2/3 evolution traces
and the island-model GA are all embarrassingly (or nearly) parallel:
coarse, picklable units of work whose random streams derive from a root
seed, never from worker identity or wall clock.  This package runs such
work across a pool of supervised worker processes with

* a dependency-aware :class:`~repro.cluster.scheduler.Scheduler` holding
  :class:`~repro.cluster.task.TaskSpec` units,
* heartbeat-based supervision that detects crashed or hung workers and
  requeues their in-flight task up to ``max_retries``,
* a durable JSONL :class:`~repro.cluster.checkpoint.Checkpoint` journal
  so interrupted runs resume bit-for-bit, and
* a :class:`~repro.cluster.metrics.ClusterMetrics` surface (live one-line
  status, snapshot recorded as ``cluster.*`` trace gauges).

See ``docs/cluster.md`` for the architecture and determinism contract.
"""

from repro.cluster.checkpoint import Checkpoint
from repro.cluster.heartbeat import HeartbeatMonitor
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.scheduler import ClusterConfig, Scheduler, run_tasks
from repro.cluster.task import TaskFailure, TaskOutcome, TaskSpec, TaskState

__all__ = [
    "TaskSpec",
    "TaskOutcome",
    "TaskState",
    "TaskFailure",
    "Checkpoint",
    "HeartbeatMonitor",
    "ClusterMetrics",
    "ClusterConfig",
    "Scheduler",
    "run_tasks",
]
