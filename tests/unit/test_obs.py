"""Unit tests for repro.obs: spans, metrics, sinks, schema, summary."""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.obs import (
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    TraceSchemaError,
    load_trace,
    render_summary,
    validate_records,
)
from repro.obs import runtime
from repro.obs.sinks import meta_record
from repro.obs.spans import NOOP_SPAN


class FakeClock:
    """Deterministic clock: returns 0.0, 1.0, 2.0, ... per call."""

    def __init__(self) -> None:
        self.t = -1.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


@pytest.fixture
def obs_session():
    """An enabled in-memory session on a fake clock, torn down after."""
    runtime.disable()
    sink = InMemorySink()
    session = runtime.enable(sink, clock=FakeClock())
    yield session, sink
    runtime.disable()


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    runtime.disable()


class TestDisabledMode:
    def test_trace_returns_shared_noop(self):
        assert runtime.trace("anything", x=1) is NOOP_SPAN
        assert runtime.trace("other") is NOOP_SPAN

    def test_noop_span_full_surface(self):
        with runtime.trace("a") as span:
            assert span.set(x=1) is span

    def test_facade_functions_are_noops(self):
        runtime.event("e", k=1)
        runtime.add("c", 3)
        runtime.set_gauge("g", 1.5)
        runtime.observe("h", 0.01)
        runtime.ingest([{"type": "counter", "name": "c", "value": 1}])
        assert not runtime.enabled()

    def test_disabled_call_overhead_is_tiny(self):
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            runtime.trace("x")
            runtime.add("c")
        per_call = (time.perf_counter() - start) / (2 * n)
        # Generous bound: a no-op facade call is a global read; anything
        # above 10us/call means the disabled path grew real work.
        assert per_call < 10e-6


class TestSpans:
    def test_nesting_parents(self, obs_session):
        _, sink = obs_session
        with runtime.trace("outer"):
            with runtime.trace("inner"):
                pass
        inner, outer = sink.records  # close order: inner first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert inner["id"] > outer["id"]  # ids in start order

    def test_concurrent_tasks_nest_separately(self, obs_session):
        """Two requests interleaved on one event loop, each holding its
        span across awaits: every span's parent is in its own task."""
        _, sink = obs_session

        async def request(name, mine, other):
            with runtime.trace("service.request", req=name):
                mine.set()
                await other.wait()
                with runtime.trace("inner", req=name):
                    await asyncio.sleep(0)
                await asyncio.sleep(0)

        async def main():
            a, b = asyncio.Event(), asyncio.Event()
            await asyncio.gather(request("a", a, b), request("b", b, a))

        asyncio.run(main())
        requests = sink.spans("service.request")
        by_id = {span["id"]: span for span in requests}
        assert [span["parent"] for span in requests] == [None, None]
        for inner in sink.spans("inner"):
            parent = by_id[inner["parent"]]
            assert parent["attrs"]["req"] == inner["attrs"]["req"]

    def test_golden_stream(self, obs_session):
        """Exact records under the fake clock — the schema, pinned."""
        _, sink = obs_session
        # epoch consumed tick 0; each clock read below advances by 1
        with runtime.trace("a", n=3):          # t0 = 1
            runtime.event("marker", k="v")     # t = 2
        #                                        t1 = 3
        assert sink.records == [
            {
                "type": "event",
                "id": 2,
                "parent": 1,
                "name": "marker",
                "t": 2.0,
                "attrs": {"k": "v"},
            },
            {
                "type": "span",
                "id": 1,
                "parent": None,
                "name": "a",
                "t0": 1.0,
                "t1": 3.0,
                "dur": 2.0,
                "status": "ok",
                "attrs": {"n": 3},
            },
        ]

    def test_error_status_and_propagation(self, obs_session):
        _, sink = obs_session
        with pytest.raises(KeyError):
            with runtime.trace("outer"):
                with runtime.trace("inner"):
                    raise KeyError("boom")
        inner, outer = sink.spans("inner")[0], sink.spans("outer")[0]
        assert inner["status"] == "error"
        assert inner["attrs"]["error_type"] == "KeyError"
        assert outer["status"] == "error"  # exception passed through it too

    def test_set_attrs_and_sorted_keys(self, obs_session):
        _, sink = obs_session
        with runtime.trace("s", z=1) as span:
            span.set(a=2, m=np.float64(0.5))
        attrs = sink.spans("s")[0]["attrs"]
        assert list(attrs) == ["a", "m", "z"]
        assert attrs["m"] == 0.5 and isinstance(attrs["m"], float)

    def test_nonfinite_attrs_become_strings(self, obs_session):
        _, sink = obs_session
        with runtime.trace("s", r1=float("inf"), r2=float("nan")):
            pass
        attrs = sink.spans("s")[0]["attrs"]
        assert attrs["r1"] == "inf"
        assert attrs["r2"] == "nan"

    def test_nested_enable_rejected(self, obs_session):
        with pytest.raises(RuntimeError, match="already active"):
            runtime.enable(InMemorySink())

    def test_reset_inherited_drops_without_closing(self, obs_session):
        _, sink = obs_session
        runtime.reset_inherited()
        assert not runtime.enabled()
        assert not sink.closed  # the parent still owns the sink


class TestMetrics:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        reg.counter("c").add(2)
        with pytest.raises(ValueError, match="decrease"):
            reg.counter("c").add(-1)
        assert reg.counter("c").value == 2

    def test_histogram_shape_and_binning(self):
        h = Histogram("h")
        assert len(h.counts) == len(h.edges) + 1
        h.observe(0.0)      # below lo -> underflow bin
        h.observe(1e9)      # above hi -> overflow bin
        h.observe(1.0)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.count == 3
        assert h.min == 0.0 and h.max == 1e9

    def test_histogram_roundtrip_and_merge(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(0.5)
        b.observe(2.0)
        b.observe(3.0)
        a.merge(Histogram.from_record(b.to_record()))
        assert a.count == 3
        assert a.total == pytest.approx(5.5)
        record = a.to_record()
        assert sum(record["counts"]) == record["count"] == 3

    def test_export_sorted_and_merge_record(self):
        reg = MetricsRegistry()
        reg.counter("z").add(1)
        reg.counter("a").add(2)
        reg.gauge("g").set(0.5)
        reg.histogram("h").observe(0.1)
        names = [r["name"] for r in reg.export()]
        assert names == ["a", "z", "g", "h"]

        other = MetricsRegistry()
        for record in reg.export():
            other.merge_record(record)
            other.merge_record(record)  # merging twice doubles counts
        assert other.counter("a").value == 4
        assert other.histogram("h").count == 2
        assert other.gauge("g").value == 0.5


class TestIngest:
    def test_worker_subtree_spliced_under_current_span(self, obs_session):
        _, sink = obs_session
        # A "worker" session with its own 1-based ids.
        worker = runtime.Session(InMemorySink(), clock=FakeClock())
        with worker.tracer.start("cluster.task", {}):
            worker.tracer.point("w.event", {})
        worker.registry.counter("w.count").add(5)
        shipped = worker.sink.records + worker.registry.export()

        with runtime.trace("cluster.run"):
            runtime.ingest(shipped)
        task = sink.spans("cluster.task")[0]
        run = sink.spans("cluster.run")[0]
        event = sink.events("w.event")[0]
        assert task["parent"] == run["id"]        # attached under current
        assert event["parent"] == task["id"]      # interior edge remapped
        assert task["id"] != 1                    # remapped out of local ids
        session = runtime.session()
        assert session.registry.counter("w.count").value == 5

    def test_ingest_validates_after_splice(self, obs_session):
        session, sink = obs_session
        worker = runtime.Session(InMemorySink(), clock=FakeClock())
        with worker.tracer.start("w.span", {}):
            pass
        with runtime.trace("root"):
            runtime.ingest(worker.sink.records)
        session.flush_metrics()
        validate_records([meta_record()] + sink.records)


class TestJsonlSink:
    def test_stream_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        session = runtime.enable(JsonlSink(path), clock=FakeClock())
        with runtime.trace("root", inf_attr=float("inf")):
            runtime.add("count", 2)
            runtime.observe("seconds", 0.25)
        runtime.disable()
        records = load_trace(path)  # validates en route
        assert records[0] == meta_record()
        kinds = [r["type"] for r in records]
        assert kinds == ["meta", "span", "counter", "hist"]
        # strict JSON all the way down: every line parses with no NaN/Inf
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=pytest.fail)

    def test_empty_run_still_writes_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        runtime.enable(JsonlSink(path), clock=FakeClock())
        runtime.disable()
        assert load_trace(path)[0]["type"] == "meta"


class TestValidation:
    def _stream(self, *records):
        return [meta_record(), *records]

    def test_missing_meta_rejected(self):
        with pytest.raises(TraceSchemaError, match="meta"):
            validate_records([])
        with pytest.raises(TraceSchemaError, match="meta"):
            validate_records([{"type": "counter", "name": "c", "value": 1}])

    def test_span_missing_keys_rejected(self):
        with pytest.raises(TraceSchemaError, match="missing keys"):
            validate_records(self._stream({"type": "span", "id": 1}))

    def test_span_negative_duration_rejected(self):
        bad = {
            "type": "span", "id": 1, "parent": None, "name": "s",
            "t0": 5.0, "t1": 1.0, "dur": -4.0, "status": "ok", "attrs": {},
        }
        with pytest.raises(TraceSchemaError, match="ends before"):
            validate_records(self._stream(bad))

    def test_duplicate_ids_rejected(self):
        span = {
            "type": "span", "id": 1, "parent": None, "name": "s",
            "t0": 0.0, "t1": 1.0, "dur": 1.0, "status": "ok", "attrs": {},
        }
        with pytest.raises(TraceSchemaError, match="duplicate"):
            validate_records(self._stream(span, dict(span)))

    def test_hist_bin_mismatch_rejected(self):
        bad = {
            "type": "hist", "name": "h", "edges": [1.0, 2.0],
            "counts": [1, 2], "count": 3, "sum": 3.0, "min": 1.0, "max": 2.0,
        }
        with pytest.raises(TraceSchemaError, match="counts"):
            validate_records(self._stream(bad))

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown record type"):
            validate_records(self._stream({"type": "mystery"}))


class TestSummary:
    def test_renders_tree_counters_and_hists(self, obs_session):
        session, sink = obs_session
        with runtime.trace("root"):
            with runtime.trace("child"):
                runtime.event("tick")
            runtime.add("widgets", 7)
            runtime.observe("lat", 0.01)
        session.flush_metrics()
        text = render_summary(sink.records)
        assert "root" in text and "child" in text
        assert "widgets" in text and "7" in text
        assert "lat" in text
        assert "tick" in text
        assert "0 errors" in text

    def test_error_spans_flagged(self, obs_session):
        _, sink = obs_session
        with pytest.raises(RuntimeError):
            with runtime.trace("bad"):
                raise RuntimeError
        text = render_summary(sink.records)
        assert "1 errors" in text
        assert "ERR" in text
