"""Equivalence of the longest-path passes with the reference passes.

The original per-node numpy passes are kept here as
``top_levels_reference`` / ``bottom_levels_reference``; this suite pins the
scalar level passes, the batched numpy forward pass and the optional C
kernel to them *bit-for-bit* across random DAGs, edgeless graphs,
``n = 1``, chains, and batch widths ``R in {0, 1, 1000}``.  It also
checks that the vectorized ``Schedule.__init__`` validation rejects the
same invalid inputs with the same error messages as the original
per-element scan.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.graph.analysis import ArrayDag
from repro.heuristics.heft import HeftScheduler
from repro.schedule.evaluation import batch_makespans
from repro.schedule.schedule import Schedule

from tests.conftest import make_random_problem


def top_levels_reference(
    dag: ArrayDag, node_w: np.ndarray, edge_w: np.ndarray
) -> np.ndarray:
    """Per-node reference implementation of :meth:`ArrayDag.top_levels`."""
    tl = np.zeros(node_w.shape, dtype=np.float64)
    for v in dag.topo:
        v = int(v)
        eidx = dag.pred_edges(v)
        if eidx.size == 0:
            continue
        src = dag.edge_src[eidx]
        # (..., k) candidate path lengths through each predecessor.
        cand = tl[..., src] + node_w[..., src] + edge_w[eidx]
        tl[..., v] = cand.max(axis=-1)
    return tl


def bottom_levels_reference(
    dag: ArrayDag, node_w: np.ndarray, edge_w: np.ndarray
) -> np.ndarray:
    """Per-node reference implementation of :meth:`ArrayDag.bottom_levels`."""
    bl = np.array(node_w, dtype=np.float64, copy=True)
    for v in dag.topo[::-1]:
        v = int(v)
        eidx = dag.succ_edges(v)
        if eidx.size == 0:
            continue
        dst = dag.edge_dst[eidx]
        cand = bl[..., dst] + edge_w[eidx]
        bl[..., v] = node_w[..., v] + cand.max(axis=-1)
    return bl


def random_dag(rng: np.random.Generator, n: int) -> ArrayDag:
    """A random DAG: each pair (u < v) is an edge with probability ~0.25."""
    src, dst = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                src.append(u)
                dst.append(v)
    return ArrayDag.build(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )


def dag_cases() -> list[tuple[str, ArrayDag]]:
    rng = np.random.default_rng(7)
    cases = [
        ("edgeless", ArrayDag.build(5, np.empty(0, np.int64), np.empty(0, np.int64))),
        ("single", ArrayDag.build(1, np.empty(0, np.int64), np.empty(0, np.int64))),
        (
            "chain",
            ArrayDag.build(
                6, np.arange(5, dtype=np.int64), np.arange(1, 6, dtype=np.int64)
            ),
        ),
    ]
    for i in range(4):
        cases.append((f"random{i}", random_dag(rng, 12 + 5 * i)))
    return cases


CASES = dag_cases()


def weights_for(dag: ArrayDag, rng: np.random.Generator):
    node_w = rng.uniform(0.5, 10.0, size=dag.n)
    edge_w = rng.uniform(0.0, 5.0, size=dag.edge_src.shape[0])
    return node_w, edge_w


@pytest.mark.parametrize("name,dag", CASES, ids=[c[0] for c in CASES])
class TestScalarAgainstReference:
    """1-D scalar passes vs the per-node reference — exact equality."""

    def test_top_levels(self, name, dag):
        node_w, edge_w = weights_for(dag, np.random.default_rng(1))
        got = dag.top_levels(node_w, edge_w)
        want = top_levels_reference(dag, node_w, edge_w)
        assert np.array_equal(got, want)

    def test_bottom_levels(self, name, dag):
        node_w, edge_w = weights_for(dag, np.random.default_rng(2))
        got = dag.bottom_levels(node_w, edge_w)
        want = bottom_levels_reference(dag, node_w, edge_w)
        assert np.array_equal(got, want)

    def test_makespan_and_finish_times(self, name, dag):
        node_w, edge_w = weights_for(dag, np.random.default_rng(3))
        ref_fin = top_levels_reference(dag, node_w, edge_w) + node_w
        assert np.array_equal(dag.finish_times(node_w, edge_w), ref_fin)
        assert dag.makespan(node_w, edge_w) == float(ref_fin.max())


@pytest.mark.parametrize("batch", [0, 1, 1000], ids=["R0", "R1", "R1000"])
@pytest.mark.parametrize("name,dag", CASES, ids=[c[0] for c in CASES])
class TestBatchedAgainstReference:
    """Batched weights vs the per-node reference — exact equality.

    The level passes take one weight vector: a batch raises, and the
    scalar pass run row by row equals the reference's batched answer
    (which the forward-pass property tests trust).
    """

    def test_top_levels(self, name, dag, batch):
        rng = np.random.default_rng(4)
        _, edge_w = weights_for(dag, rng)
        node_w = rng.uniform(0.5, 10.0, size=(batch, dag.n))
        with pytest.raises(ValueError, match="1-D"):
            dag.top_levels(node_w, edge_w)
        want = top_levels_reference(dag, node_w, edge_w)
        got = np.array([dag.top_levels(w, edge_w) for w in node_w])
        assert np.array_equal(got.reshape(want.shape), want)

    def test_bottom_levels(self, name, dag, batch):
        rng = np.random.default_rng(5)
        _, edge_w = weights_for(dag, rng)
        node_w = rng.uniform(0.5, 10.0, size=(batch, dag.n))
        with pytest.raises(ValueError, match="1-D"):
            dag.bottom_levels(node_w, edge_w)
        want = bottom_levels_reference(dag, node_w, edge_w)
        got = np.array([dag.bottom_levels(w, edge_w) for w in node_w])
        assert np.array_equal(got.reshape(want.shape), want)

    def test_finish_and_makespan(self, name, dag, batch):
        rng = np.random.default_rng(6)
        _, edge_w = weights_for(dag, rng)
        node_w = rng.uniform(0.5, 10.0, size=(batch, dag.n))
        ref_fin = top_levels_reference(dag, node_w, edge_w) + node_w
        assert np.array_equal(dag.finish_times(node_w, edge_w), ref_fin)
        ref_ms = ref_fin.max(axis=-1) if dag.n else np.zeros(batch)
        assert np.array_equal(dag.makespan(node_w, edge_w), ref_ms)
        assert np.array_equal(
            dag.makespan(node_w, edge_w, nonnegative=True), ref_ms
        )


@pytest.mark.parametrize("name,dag", CASES, ids=[c[0] for c in CASES])
def test_native_matches_numpy_kernel(name, dag):
    """The optional C kernel and the numpy kernel agree bit-for-bit.

    The C kernel takes every batch width.  When no compiler is available
    ``_finish_node_major`` already IS the numpy path and the check
    degenerates to self-consistency — still worth running for the
    scratch-buffer copy semantics.
    """
    if dag.n == 0:
        pytest.skip("kernels guard n == 0 before dispatch")
    rng = np.random.default_rng(8)
    _, edge_w = weights_for(dag, rng)
    for batch in (1, 7, 64):
        node_w = rng.uniform(0.5, 10.0, size=(batch, dag.n))
        got = dag._finish_node_major(node_w, edge_w).copy()
        want = dag._finish_node_major_numpy(node_w, edge_w).copy()
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name,dag", CASES, ids=[c[0] for c in CASES])
def test_negative_weights_keep_reference_floor(name, dag):
    """No zero floor: the reference overwrites tl with the plain candidate
    max, so negative candidates must propagate, not clamp at 0 — in the
    batched forward pass and in the scalar level pass."""
    rng = np.random.default_rng(11)
    node_w = rng.uniform(-5.0, 5.0, size=(16, dag.n))
    edge_w = rng.uniform(-2.0, 2.0, size=dag.edge_src.shape[0])
    assert np.array_equal(
        dag.finish_times(node_w, edge_w),
        top_levels_reference(dag, node_w, edge_w) + node_w,
    )
    assert np.array_equal(
        dag.top_levels(node_w[0], edge_w),
        top_levels_reference(dag, node_w[0], edge_w),
    )


def test_negative_zero_entry_weight():
    """An entry finishes at ``0.0 + w`` on both backends, as in the
    reference, so a ``-0.0`` weight finishes at ``+0.0``."""
    dag = ArrayDag.build(3, np.array([0]), np.array([1]))
    node_w = np.full((2, 3), -0.0)
    edge_w = np.zeros(1)
    want = (top_levels_reference(dag, node_w, edge_w) + node_w).view(np.int64)
    got = dag._finish_node_major(node_w, edge_w).T.copy()
    assert np.array_equal(got.view(np.int64), want)
    got = dag._finish_node_major_numpy(node_w, edge_w).T.copy()
    assert np.array_equal(got.view(np.int64), want)


def test_batch_makespans_matches_reference_on_full_gs():
    """End-to-end: batch_makespans vs the reference pass on G_s."""
    problem = make_random_problem(42, n=24, m=3)
    schedule = HeftScheduler().schedule(problem)
    durations = schedule.realize_durations(200, rng=9)
    got = batch_makespans(schedule, durations)
    ref = (
        top_levels_reference(
            schedule.disjunctive, durations, schedule.comm_weights
        )
        + durations
    ).max(axis=-1)
    assert np.array_equal(got, ref)


def test_trusted_decode_matches_validating_construction():
    """from_assignment's peel-skipping path equals the validating one."""
    problem = make_random_problem(43, n=20, m=3)
    schedule = HeftScheduler().schedule(problem)
    order = schedule.linear_order()
    fast = Schedule.from_assignment(problem, order, schedule.proc_of)
    slow = Schedule(problem, [list(t) for t in fast.proc_orders])
    durations = fast.realize_durations(50, rng=10)
    assert np.array_equal(
        batch_makespans(fast, durations), batch_makespans(slow, durations)
    )
    nw = fast.expected_durations()
    assert np.array_equal(
        fast.disjunctive.top_levels(nw, fast.comm_weights),
        slow.disjunctive.top_levels(nw, slow.comm_weights),
    )


class TestScheduleValidationMessages:
    """Vectorized construction rejects bad input with the original messages."""

    def test_out_of_range_task(self, diamond_problem):
        with pytest.raises(
            ValueError, match=re.escape("task id 9 out of range on processor 1")
        ):
            Schedule(diamond_problem, [[0, 1], [9, 2, 3]])

    def test_negative_task(self, diamond_problem):
        with pytest.raises(
            ValueError, match=re.escape("task id -1 out of range on processor 0")
        ):
            Schedule(diamond_problem, [[-1, 0, 1], [2, 3]])

    def test_duplicate_task(self, diamond_problem):
        with pytest.raises(
            ValueError, match=re.escape("task 1 assigned to more than one slot")
        ):
            Schedule(diamond_problem, [[0, 1], [1, 2, 3]])

    def test_missing_task(self, diamond_problem):
        with pytest.raises(
            ValueError, match=re.escape("tasks not assigned to any processor: [3]")
        ):
            Schedule(diamond_problem, [[0, 1], [2]])

    def test_wrong_number_of_orders(self, diamond_problem):
        with pytest.raises(ValueError, match="expected 2 processor orders, got 3"):
            Schedule(diamond_problem, [[0, 1], [2], [3]])

    def test_cyclic_orders(self, diamond_problem):
        # Processor order 3 before 0 contradicts 0 -> 1 -> 3 precedence.
        with pytest.raises(ValueError, match="disjunctive graph is cyclic"):
            Schedule(diamond_problem, [[3, 0], [1, 2]])

    def test_from_assignment_invalid_order_still_rejected(self, diamond_problem):
        # A non-topological scheduling string must not slip through the
        # trusted fast path.
        order = np.array([3, 1, 2, 0])
        proc_of = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="disjunctive graph is cyclic"):
            Schedule.from_assignment(diamond_problem, order, proc_of)
