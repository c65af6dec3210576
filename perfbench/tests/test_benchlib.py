"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

from benchlib import (
    LayerTime,
    Unit,
    arrival_offsets,
    derive_seeds,
    layer_self_times,
    run_open_loop,
    run_rounds,
    span_self_times,
    tail_percentile,
    unattributed,
)


def _span(span_id, parent, name, dur):
    return {
        "type": "span",
        "id": span_id,
        "parent": parent,
        "name": name,
        "t0": 0.0,
        "t1": dur,
        "dur": dur,
        "status": "ok",
        "attrs": {},
    }


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


# -------------------------------------------------------------- self time

TREE = [
    _span(1, None, "root", 10.0),
    _span(2, 1, "a", 4.0),
    _span(3, 2, "c", 1.0),
    _span(4, 1, "b", 3.0),
    _span(5, 1, "a", 2.0),
    {"type": "counter", "name": "x", "value": 1},
]


def test_layer_self_time_is_total_minus_direct_children():
    lt = layer_self_times(TREE)
    assert lt["root"] == LayerTime(count=1, total=10.0, self_time=1.0)
    assert lt["a"] == LayerTime(count=2, total=6.0, self_time=5.0)
    assert lt["b"] == LayerTime(count=1, total=3.0, self_time=3.0)
    assert lt["c"] == LayerTime(count=1, total=1.0, self_time=1.0)
    assert lt["a"].mean_self == 2.5


def test_self_time_is_floored_at_zero_and_orphans_are_roots():
    records = [_span(1, None, "p", 1.0), _span(2, 1, "k", 3.0), _span(3, 99, "o", 2.0)]
    lt = layer_self_times(records)
    assert lt["p"].self_time == 0.0
    assert lt["o"].self_time == 2.0
    assert span_self_times(records) == {1: 0.0, 2: 3.0, 3: 2.0}


def test_per_span_self_times():
    assert span_self_times(TREE) == {1: 1.0, 2: 3.0, 3: 1.0, 4: 3.0, 5: 2.0}


def test_unattributed_share_is_wall_time_outside_root_spans():
    # The self times of a tree sum to its root's duration, 10 of 12.5 s.
    assert sum(span_self_times(TREE).values()) == 10.0
    assert unattributed(TREE, 12.5) == 0.2
    assert unattributed(TREE, 10.0) == 0.0


def test_self_time_matches_trace_summary():
    summary = pytest.importorskip("repro.obs.summary")
    spans = [r for r in TREE if r["type"] == "span"]
    parent_of = {s["id"]: s["parent"] for s in spans}
    root = summary._aggregate(spans, parent_of)
    node = root.children["root"]
    lt = layer_self_times(TREE)
    assert max(node.total - node.child_total, 0.0) == lt["root"].self_time
    a = node.children["a"]
    assert max(a.total - a.child_total, 0.0) == lt["a"].self_time


# -------------------------------------------------------------- open loop


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()

    def send(conn, i):
        assert conn == 0
        clock.now += 1.5  # each request takes 1.5 s to serve
        if i == 3:
            raise TimeoutError("slow")
        return {"i": i}

    sent = run_open_loop([0.0, 1.0, 2.0, 10.0], send, 1, clock=clock, sleep=clock.sleep)
    assert [r.due for r in sent] == [0.0, 1.0, 2.0, 10.0]
    assert [r.send_lag for r in sent] == [0.0, 0.5, 1.0, 0.0]
    assert [r.latency for r in sent] == [1.5, 2.0, 2.5, 1.5]
    assert [r.response for r in sent[:3]] == [{"i": 0}, {"i": 1}, {"i": 2}]
    assert sent[3].response is None and sent[3].error == "TimeoutError: slow"


def test_open_loop_uses_every_connection():
    seen = set()
    sent = run_open_loop([0.0] * 20, lambda conn, i: seen.add(conn) or i, 3)
    assert [r.response for r in sent] == list(range(20))
    assert all(r.error is None for r in sent)
    assert seen <= {0, 1, 2}


# ------------------------------------------------------------ batch rounds


def test_rounds_warm_up_then_time_whole_rounds():
    clock = FakeClock()
    calls = []

    def unit(name, cost):
        def run():
            calls.append(name)
            clock.now += cost
            return name

        return Unit(run, ops=10)

    units = [unit("a", 1.0), unit("b", 3.0)]
    rounds = run_rounds(units, 9.0, lambda result, ref: 0, clock=clock)
    # Warm-up, then rounds until 9 s have passed: 4 s each, so three.
    assert calls == ["a", "b"] * 4
    assert rounds.reference == ["a", "b"]
    assert rounds.round_seconds == [4.0, 4.0, 4.0]
    assert rounds.unit_seconds == [[1.0, 3.0]] * 3
    assert (rounds.completed, rounds.attempted, rounds.failed) == (60, 80, 0)
    outcome = rounds.outcome()
    assert outcome.throughput == 60 / 12.0
    assert outcome.latency == 2.0  # the mean over rounds of each round's median
    assert outcome.samples == [1.0, 3.0] * 3


def test_pauses_are_spread_over_the_measured_time_and_not_timed():
    clock = FakeClock()
    events = []

    def run():
        clock.now += 1.0
        events.append("unit")

    def pause():
        clock.now += 100.0  # untimed work between rounds
        events.append("pause")

    rounds = run_rounds(
        [Unit(run, ops=1)], 8.0, lambda result, ref: 0, pauses=[pause] * 3, clock=clock
    )
    # Warm-up, then eight 1 s rounds with a pause after 2, 4 and 6 s.
    assert events == ["unit"] * 3 + ["pause"] + (["unit"] * 2 + ["pause"]) * 2 + ["unit"] * 2
    assert rounds.round_seconds == [1.0] * 8


def test_every_pause_runs_even_when_the_rounds_end_early():
    calls = []
    run_rounds([Unit(lambda: None, ops=1)], 0.0, lambda result, ref: 0, pauses=[lambda: calls.append(1)] * 3)
    assert calls == [1, 1, 1]


def test_round_latency_follows_slow_spells_in_proportion():
    clock = FakeClock()
    costs = iter([1.0] * 3 + [1.0] * 3 + [2.0] * 3 + [1.0] * 3)  # one slow round

    def run():
        clock.now += next(costs)

    rounds = run_rounds([Unit(run, ops=1)] * 3, 0.0, lambda result, ref: 0, clock=clock)
    outcome = rounds.outcome()
    assert outcome.latency == (1.0 + 2.0 + 1.0) / 3
    assert outcome.throughput == 9 / 12.0


def test_rounds_count_raised_and_wrong_outputs_as_failed_operations():
    results = iter([1, 2, 1])  # the first unit's output changes once
    runs = {"n": 0}

    def flaky():
        runs["n"] += 1
        if runs["n"] == 2:  # first timed round
            raise RuntimeError("boom")
        return "ok"

    units = [Unit(lambda: next(results), ops=4), Unit(flaky, ops=5)]
    rounds = run_rounds(
        units,
        0.0,
        lambda result, ref: 0 if ref is None or result == ref else 1,
        min_rounds=2,
    )
    # A warm-up and two timed rounds; the changed output fails what the
    # check says (one operation), the raise fails all five.
    assert rounds.attempted == 3 * 9
    assert rounds.failed == 1 + 5


# ----------------------------------------------------------- seed plumbing


def test_derived_seeds_follow_the_run_seed():
    assert derive_seeds(1, "x", 4) == derive_seeds(1, "x", 4)
    assert derive_seeds(1, "x", 4) != derive_seeds(2, "x", 4)
    assert derive_seeds(1, "x", 4) != derive_seeds(1, "y", 4)


def test_arrivals_offer_a_fixed_count_in_a_seeded_pattern():
    a = arrival_offsets(40.0, 5.0, 7)
    assert len(a) == 200 and a == sorted(a) and 0.0 <= a[0] and a[-1] < 5.0
    assert a == arrival_offsets(40.0, 5.0, 7)
    assert a != arrival_offsets(40.0, 5.0, 8)


def test_service_requests_follow_the_run_seed():
    service_mix = pytest.importorskip("service_mix")
    a = service_mix.build_requests(1, 2.0)
    assert json.dumps(a) == json.dumps(service_mix.build_requests(1, 2.0))
    assert json.dumps(a) != json.dumps(service_mix.build_requests(2, 2.0))
    offsets, kinds, messages = a
    n = len(offsets)
    assert n == len(kinds) == len(messages) == round(service_mix.RATE * 2.0)
    assert kinds.count("repeat") == round(service_mix.REPEAT_SHARE * n)
    assert kinds.count("ga") == round(service_mix.GA_SHARE * n)
    for i, kind in enumerate(kinds):
        if kind == "repeat":
            repeated = [m for m in messages[:i] if dict(m, id=i) == messages[i]]
            assert repeated and not repeated[0].get("warm_start")


@pytest.mark.parametrize(
    "module, count", [("paper_cell", "GRIDS"), ("stream_overload", "STREAMS"), ("fault_replay", "INSTANCES")]
)
def test_workload_inputs_follow_the_run_seed(module, count, monkeypatch):
    workload = pytest.importorskip(module)
    monkeypatch.setattr(workload, count, 1)

    def fingerprint(seed):
        return repr(_inputs(workload.setup(seed, 1.0)))

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def _inputs(state):
    if hasattr(state, "configs"):
        return [c.seed for c in state.configs]
    if hasattr(state, "streams"):
        return [[(j.arrival, j.deadline) for j in s.jobs] for s in state.streams]
    return [(s.proc_of.tolist(), seeds) for s, seeds in state.schedules]


# ------------------------------------------------------------- the record


def test_benchmark_json_lists_the_reported_metrics():
    run = pytest.importorskip("run")
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.per_layer_metrics()
    ]


def test_compare_flags_runs_whose_kernels_differ(tmp_path, capsys):
    compare = pytest.importorskip("compare")
    record = '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x_ms": {"value": 2.0, "unit": "ms"}}}'
    paths = []
    for native in ("true", "false"):
        path = tmp_path / f"{native}.txt"
        path.write_text(f'# env {{"native": {native}, "openmp": true}}\n{record}\n')
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    assert "WARNING: native differs" in capsys.readouterr().out
