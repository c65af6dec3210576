"""repro.obs — unified observability: spans, metrics, pluggable sinks.

Every layer of the system that used to invent its own timing — the GA
engine's per-generation progress, the Monte-Carlo evaluator's kernel
timings, :class:`~repro.cluster.metrics.ClusterMetrics`, the CLI's
``[  12.3s]`` progress lines — now reports through this one substrate:

* a **hierarchical span tracer**: ``with obs.trace("ga.generation",
  gen=k) as sp`` opens a span on a monotonic clock, nests under the
  enclosing span, and records per-span attributes (``sp.set(best=...)``);
* a **metrics registry**: named counters (``obs.add``), gauges
  (``obs.set_gauge``) and histograms with fixed log-spaced bins
  (``obs.observe``);
* **pluggable sinks**: :class:`~repro.obs.sinks.InMemorySink` (tests,
  worker-side capture), :class:`~repro.obs.sinks.JsonlSink` (one
  diffable JSONL stream per run, the ``--trace out.jsonl`` CLI flag) and
  the human-readable summary renderer behind ``repro trace-summary``.

The layer is **zero-cost when disabled** — the default.  Every
instrumentation point guards on the module-level session: ``obs.trace``
is one global read plus a cached no-op context manager, and attribute
computation at call sites is skipped entirely unless ``obs.enabled()``.
The cost of tracing when enabled is measured end to end:
``perfbench/run.py --trace 1`` reports every workload's
``obs.overhead_frac`` (traced over untraced wall time, minus 1).

Determinism: span ids are assigned in start order, records are emitted
in close order, attribute keys are sorted, and metric records are
emitted sorted by name — a serial run's trace stream diffs cleanly
across runs (timing *values* differ, content ordering does not).

Usage::

    from repro import obs

    session = obs.enable(obs.JsonlSink("run.jsonl"))
    with obs.trace("experiment", scale="smoke"):
        ...
        obs.add("cells.done")
        obs.observe("cell_seconds", dt)
    obs.disable()          # flushes metrics and closes the sink

See ``docs/observability.md`` for the span/metric model and the JSONL
schema.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import (
    Session,
    add,
    ingest,
    disable,
    enable,
    enabled,
    event,
    observe,
    session,
    set_gauge,
    trace,
)
from repro.obs.sinks import InMemorySink, JsonlSink, Sink
from repro.obs.spans import Span
from repro.obs.summary import (
    TraceSchemaError,
    load_trace,
    render_summary,
    validate_records,
)

__all__ = [
    # runtime facade
    "enable",
    "disable",
    "enabled",
    "session",
    "Session",
    "trace",
    "event",
    "add",
    "set_gauge",
    "observe",
    "ingest",
    # model
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # sinks
    "Sink",
    "InMemorySink",
    "JsonlSink",
    # summary / schema
    "load_trace",
    "render_summary",
    "validate_records",
    "TraceSchemaError",
]
