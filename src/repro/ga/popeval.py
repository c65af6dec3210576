"""Population-wide GA evaluation: one dispatch per generation.

The GA's per-generation cost is dominated not by the paper's slack and
makespan arithmetic but by per-individual Python dispatch: decoding every
chromosome into a :class:`~repro.schedule.schedule.Schedule` (disjunctive
edge assembly, CSR indexes) and running the scalar level kernels one
individual at a time.  :func:`evaluate_population` removes that overhead by
evaluating the *whole population* in a single call:

* the native path hands the stacked chromosome arrays to the
  ``ga_population_eval`` C kernel (:mod:`repro.graph._native`), which
  decodes and runs both level passes entirely in C, OpenMP-parallel over
  individuals;
* the numpy fallback (no compiler, ``REPRO_NATIVE=0``) builds each
  individual's disjunctive edge list directly — skipping the full
  :class:`Schedule` object — and reuses the scalar
  :class:`~repro.graph.analysis.ArrayDag` kernels.

Both paths are **bit-exact** against the classic per-individual route
(``Chromosome.decode`` → :func:`repro.schedule.evaluation.evaluate`): the
disjunctive candidate sets agree up to duplicates with equal float values
(same-processor communication is exactly ``0.0``), ``max`` over one
candidate set is order-independent, and every add follows the scalar
kernels' association order.  The equivalence suite
(``tests/property/test_population_kernel.py``) pins this.

Unlike :func:`~repro.schedule.evaluation.evaluate`, the population API
accepts ``+inf`` durations (it only rejects NaN and negatives): an
infeasible individual then reports an ``inf`` makespan and NaN slack for
the tasks whose slack is ``inf - inf``, matching what the numpy scalar
kernels produce on the same inputs.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Sequence

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.graph import _native
from repro.graph.analysis import ArrayDag
from repro.obs import runtime as _obs

__all__ = ["PopulationEvaluation", "evaluate_population"]


class PopulationEvaluation:
    """Per-individual static metrics of one population evaluation.

    Attributes
    ----------
    makespans:
        ``(P,)`` expected makespan of every individual.
    slack_matrix:
        ``(P, n)`` per-task slack of every individual, or ``None`` when the
        evaluation ran with ``need_slack=False``.
    """

    __slots__ = ("makespans", "slack_matrix", "_avg_slacks")

    def __init__(
        self, makespans: np.ndarray, slack_matrix: np.ndarray | None
    ) -> None:
        self.makespans = makespans
        self.slack_matrix = slack_matrix
        self._avg_slacks = None

    @property
    def avg_slacks(self) -> np.ndarray:
        """``(P,)`` average slack (Eqn. 3) of every individual.

        Reduced row by row so each value is bit-identical to
        ``ScheduleEvaluation.avg_slack`` (numpy's pairwise summation over
        one contiguous 1-D row).
        """
        if self._avg_slacks is None:
            if self.slack_matrix is None:
                raise AttributeError(
                    "slack was not computed (need_slack=False)"
                )
            self._avg_slacks = np.asarray(
                [row.mean() for row in self.slack_matrix], dtype=np.float64
            )
        return self._avg_slacks

    def __len__(self) -> int:
        return int(self.makespans.shape[0])


def _stack_population(
    chromosomes: Sequence[Chromosome], n: int, m: int, validate: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Stack chromosomes into ``(P, n)`` order/processor arrays."""
    orders = np.empty((len(chromosomes), n), dtype=np.int64)
    procs = np.empty((len(chromosomes), n), dtype=np.int64)
    for i, c in enumerate(chromosomes):
        if c.order.shape != (n,):
            raise ValueError(
                f"chromosome {i} covers {c.order.shape[0]} tasks, "
                f"problem has {n}"
            )
        orders[i] = c.order
        procs[i] = c.proc_of
    if validate and n:
        if np.any((procs < 0) | (procs >= m)):
            raise ValueError("processor assignment out of range")
        ar = np.arange(n, dtype=np.int64)
        if np.any(np.sort(orders, axis=1) != ar):
            raise ValueError("scheduling string is not a permutation")
    return orders, procs


def _validate_topological(
    orders: np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray
) -> np.ndarray:
    """Per-position rank of every task; rejects non-topological orders."""
    pos = np.empty_like(orders)
    np.put_along_axis(
        pos, orders, np.arange(orders.shape[1], dtype=np.int64), axis=1
    )
    if edge_src.size and not bool(
        np.all(pos[:, edge_src] < pos[:, edge_dst])
    ):
        raise ValueError("scheduling string is not a topological order")
    return pos


def _duration_view(
    problem: SchedulingProblem, duration_matrix: np.ndarray | None
) -> np.ndarray:
    """The ``(n, m)`` duration matrix the population is evaluated under.

    ``+inf`` entries are legal (infeasible placements evaluate to an
    ``inf`` makespan); NaN and negatives are not.
    """
    if duration_matrix is None:
        return problem.uncertainty.expected_times
    dur = np.ascontiguousarray(duration_matrix, dtype=np.float64)
    if dur.shape != (problem.n, problem.m):
        raise ValueError(
            f"duration_matrix must have shape ({problem.n}, {problem.m}), "
            f"got {dur.shape}"
        )
    if dur.size and not bool(np.all(dur >= 0.0)):
        raise ValueError("duration_matrix entries must be >= 0 (NaN rejected)")
    return dur


def evaluate_population(
    problem: SchedulingProblem,
    chromosomes: Sequence[Chromosome],
    *,
    need_slack: bool = True,
    duration_matrix: np.ndarray | None = None,
    validate: bool = True,
) -> PopulationEvaluation:
    """Evaluate every chromosome's static metrics in one dispatch.

    Parameters
    ----------
    problem:
        The scheduling problem all chromosomes solve.
    chromosomes:
        The population; every ``order`` must be a topological permutation
        of the task graph and every ``proc_of`` in range (checked when
        ``validate``; the GA's operators guarantee it by construction).
    need_slack:
        Also run the backward pass and fill ``slack_matrix`` (default).
        Makespan-only callers skip roughly half the kernel work.
    duration_matrix:
        Optional ``(n, m)`` duration view replacing the problem's expected
        times (the quantile-fed extension); ``+inf`` entries allowed.
    validate:
        Check the population arrays before evaluating (default).

    Returns
    -------
    PopulationEvaluation
        Makespans (and slacks) bit-identical to evaluating each chromosome
        via ``decode`` + :func:`repro.schedule.evaluation.evaluate`.
    """
    n, m = problem.n, problem.m
    P = len(chromosomes)
    if P == 0:
        empty = np.empty(0, dtype=np.float64)
        return PopulationEvaluation(
            empty, np.empty((0, n), dtype=np.float64) if need_slack else None
        )

    orders, procs = _stack_population(chromosomes, n, m, validate)
    dur = _duration_view(problem, duration_matrix)
    graph = problem.graph
    if validate and n:
        _validate_topological(orders, graph.edge_src, graph.edge_dst)

    makespans = np.empty(P, dtype=np.float64)
    slacks = np.empty((P, n), dtype=np.float64) if need_slack else None
    if n == 0:
        makespans[:] = 0.0
        return PopulationEvaluation(makespans, slacks)

    lib = _native.get_lib()
    use_native = lib is not None
    if _obs.enabled():
        _obs.add(
            "kernel.ga_population.native"
            if use_native
            else "kernel.ga_population.numpy"
        )
    if use_native:
        _eval_native(
            lib, problem, orders, procs, dur, need_slack, makespans, slacks
        )
    else:
        _eval_numpy(problem, orders, procs, dur, need_slack, makespans, slacks)
    return PopulationEvaluation(makespans, slacks)


def _eval_native(
    lib,
    problem: SchedulingProblem,
    orders: np.ndarray,
    procs: np.ndarray,
    dur: np.ndarray,
    need_slack: bool,
    makespans: np.ndarray,
    slacks: np.ndarray | None,
) -> None:
    """One ``ga_population_eval`` call over the stacked population."""
    graph = problem.graph
    dag = ArrayDag.from_taskgraph(graph)
    n, m = problem.n, problem.m
    P = orders.shape[0]

    edge_src = np.ascontiguousarray(graph.edge_src)
    edge_dst = np.ascontiguousarray(graph.edge_dst)
    edge_data = np.ascontiguousarray(graph.edge_data, dtype=np.float64)
    inv_rates = np.ascontiguousarray(problem.platform._inv_rates)
    dur = np.ascontiguousarray(dur)

    n_threads = 1
    # libgomp's thread pool does not survive fork(): a worker forked after
    # its parent ran a parallel region would wait forever in its own, for
    # threads that were never copied.  Worker processes run single-threaded;
    # the results do not depend on the thread count.
    if lib.has_openmp() and multiprocessing.parent_process() is None:
        n_threads = max(1, min(P, os.cpu_count() or 1))
    ws_f = np.empty((n_threads, 3 * n), dtype=np.float64)
    ws_i = np.empty((n_threads, m), dtype=np.int64)
    # Unused slack output still needs a valid pointer for ctypes.
    slack_out = slacks if slacks is not None else np.empty(1, dtype=np.float64)

    lib.ga_population_eval(
        P,
        n,
        m,
        1 if need_slack else 0,
        n_threads,
        orders.ctypes.data,
        procs.ctypes.data,
        dag.pred_indptr.ctypes.data,
        dag.pred_eidx.ctypes.data,
        edge_src.ctypes.data,
        dag.succ_indptr.ctypes.data,
        dag.succ_eidx.ctypes.data,
        edge_dst.ctypes.data,
        edge_data.ctypes.data,
        inv_rates.ctypes.data,
        dur.ctypes.data,
        ws_f.ctypes.data,
        ws_i.ctypes.data,
        makespans.ctypes.data,
        slack_out.ctypes.data,
    )


def _eval_numpy(
    problem: SchedulingProblem,
    orders: np.ndarray,
    procs: np.ndarray,
    dur: np.ndarray,
    need_slack: bool,
    makespans: np.ndarray,
    slacks: np.ndarray | None,
) -> None:
    """Per-individual fallback over the scalar :class:`ArrayDag` kernels.

    Builds each individual's disjunctive edge arrays directly (DAG edges
    with Eqn. 1 communication weights plus *all* chain edges at weight
    0.0 — duplicates against DAG edges carry equal values, so ``max``
    absorbs them) and hands the scheduling string to :class:`ArrayDag` as
    a trusted topological order, skipping both the ``Schedule`` object and
    the peel/cycle check.
    """
    graph = problem.graph
    inv_rates = problem.platform._inv_rates
    esrc, edst = graph.edge_src, graph.edge_dst
    edge_data = np.asarray(graph.edge_data, dtype=np.float64)
    n = problem.n
    idx = np.arange(n)

    for i in range(orders.shape[0]):
        order = orders[i]
        pr = procs[i]
        comm = edge_data * inv_rates[pr[esrc], pr[edst]]
        # Chain edges: consecutive tasks per processor, i.e. the string
        # grouped by processor with within-group order preserved.
        assigned = pr[order]
        sidx = np.argsort(assigned, kind="stable")
        seq = order[sidx]
        sp = assigned[sidx]
        same = sp[1:] == sp[:-1]
        ca = seq[:-1][same]
        cb = seq[1:][same]
        dis_src = np.concatenate([esrc, ca])
        dis_dst = np.concatenate([edst, cb])
        edge_w = np.concatenate([comm, np.zeros(ca.size, dtype=np.float64)])

        dag = ArrayDag(n, dis_src, dis_dst, topo=order)
        node_w = dur[idx, pr]
        tl = dag.top_levels(node_w, edge_w)
        fin = tl + node_w
        makespans[i] = fin.max()
        if need_slack:
            bl = dag.bottom_levels(node_w, edge_w)
            # inf - inf on infeasible individuals is the documented NaN
            # passthrough, not an error worth warning about.
            with np.errstate(invalid="ignore"):
                row = (makespans[i] - bl) - tl
            np.maximum(row, 0.0, out=row)
            slacks[i] = row
