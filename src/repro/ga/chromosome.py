"""GA chromosome: scheduling string + processor assignment (Sec. 4.2.1).

The paper encodes a solution as a *scheduling string* (a topological sort
of the task graph — the global execution order) plus one *assignment
string* per processor (the tasks on that processor, in execution order).
Because every operator keeps each processor's internal order consistent
with the scheduling string, the assignment strings are fully determined by
the scheduling string and a per-task processor map.  We therefore store
exactly ``(order, proc_of)`` — the paper itself converts assignment
strings to this "processor string" form inside its crossover operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.graph import _native
from repro.graph.analysis import ArrayDag
from repro.graph.topology import is_topological_order, random_topological_order
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = [
    "Chromosome",
    "random_chromosome",
    "random_rows",
    "heft_chromosome",
    "repair_chromosome",
]


@dataclass(frozen=True)
class Chromosome:
    """One GA individual.

    Attributes
    ----------
    order:
        The scheduling string: a permutation of ``0..n-1`` that is a
        topological sort of the task graph.
    proc_of:
        Processor index of every task (indexed by task id).
    """

    order: np.ndarray
    proc_of: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "order", np.ascontiguousarray(self.order, dtype=np.int64)
        )
        object.__setattr__(
            self, "proc_of", np.ascontiguousarray(self.proc_of, dtype=np.int64)
        )
        self.order.setflags(write=False)
        self.proc_of.setflags(write=False)
        if self.order.ndim != 1 or self.proc_of.shape != self.order.shape:
            raise ValueError(
                "order and proc_of must be 1-D arrays of equal length, got "
                f"{self.order.shape} and {self.proc_of.shape}"
            )

    @property
    def n(self) -> int:
        """Number of tasks."""
        return int(self.order.shape[0])

    def key(self) -> bytes:
        """Hashable identity used for the uniqueness check (Sec. 4.2.2)."""
        return self.order.tobytes() + self.proc_of.tobytes()

    def validate(self, problem: SchedulingProblem) -> None:
        """Raise if this chromosome is not a legal solution for *problem*."""
        if self.n != problem.n:
            raise ValueError(
                f"chromosome covers {self.n} tasks, problem has {problem.n}"
            )
        if not is_topological_order(problem.graph, self.order):
            raise ValueError("scheduling string is not a topological order")
        if np.any((self.proc_of < 0) | (self.proc_of >= problem.m)):
            raise ValueError("processor assignment out of range")

    def decode(self, problem: SchedulingProblem) -> Schedule:
        """Materialise the schedule this chromosome encodes.

        Each processor's assignment string is the scheduling string filtered
        to the tasks mapped to it.
        """
        return Schedule.from_assignment(problem, self.order, self.proc_of)

    def assignment_strings(self, m: int) -> list[np.ndarray]:
        """The paper's explicit per-processor assignment strings."""
        assigned = self.proc_of[self.order]
        return [self.order[assigned == p] for p in range(m)]


def random_chromosome(
    problem: SchedulingProblem, rng: np.random.Generator | int | None = None
) -> Chromosome:
    """Random individual: random topological sort + uniform processor draws.

    This is the paper's initial-population construction (Sec. 4.2.2): tasks
    are taken from the freshly generated scheduling string in order and
    appended to a uniformly chosen processor's assignment string.
    """
    gen = as_generator(rng)
    order = random_topological_order(problem.graph, gen)
    proc_of = gen.integers(problem.m, size=problem.n)
    return Chromosome(order=order, proc_of=proc_of)


def random_rows(
    problem: SchedulingProblem,
    rng: np.random.Generator,
    orders: np.ndarray,
    procs: np.ndarray,
    k: int,
    budget: int,
) -> None:
    """Fill rows ``k..`` of a GA population's ``(Np, n)`` arrays at random.

    Each candidate is a :func:`random_chromosome`.  While *budget* lasts,
    each candidate spends one and is drawn again when it equals an earlier
    row, the paper's uniqueness check (Sec. 4.2.2); after that every
    candidate is kept, so tiny search spaces fill with duplicates instead
    of failing.  With the native library loaded this is one
    ``ga_random_rows`` call (:mod:`repro.graph._native`) that draws the
    same numbers; the loop below is its reference.
    """
    n = problem.n
    if (
        orders.shape != procs.shape
        or orders.ndim != 2
        or orders.shape[1] != n
        or not 0 <= k <= orders.shape[0]
        or orders.dtype != np.int64
        or procs.dtype != np.int64
        or not orders.flags.c_contiguous
        or not procs.flags.c_contiguous
    ):
        raise ValueError(
            f"rows {k}.. of C-contiguous int64 arrays of shape (Np, {n}) "
            f"cannot be filled: got {orders.shape} and {procs.shape}"
        )
    lib = _native.get_lib()
    if lib is not None:
        graph = problem.graph
        dag = ArrayDag.from_taskgraph(graph)
        size = orders.shape[0]
        scratch = np.empty(2 * n + 5 * size, dtype=np.int64)
        with rng.bit_generator.lock:
            rc = lib.ga_random_rows(
                size,
                k,
                n,
                problem.m,
                budget,
                dag.succ_indptr.ctypes.data,
                dag.succ_eidx.ctypes.data,
                graph.edge_dst.ctypes.data,
                _native.bitgen(rng),
                orders.ctypes.data,
                procs.ctypes.data,
                scratch.ctypes.data,
            )
        if rc == 1:
            raise ValueError("task graph contains a cycle")
        if rc:
            raise ValueError("population too large for 32-bit draws")
        return
    seen = {orders[i].tobytes() + procs[i].tobytes() for i in range(k)}
    for i in range(k, orders.shape[0]):
        while True:
            cand = random_chromosome(problem, rng)
            budget -= 1
            if budget < 0 or cand.key() not in seen:
                break
        seen.add(cand.key())
        orders[i], procs[i] = cand.order, cand.proc_of


def repair_chromosome(
    problem: SchedulingProblem,
    order: np.ndarray,
    proc_of: np.ndarray,
) -> Chromosome:
    """Coerce an ``(order, proc_of)`` pair into a legal chromosome.

    The warm-start layer transfers chromosomes between structurally
    *similar* problems (same task/processor counts, near-match features),
    whose precedence constraints may disagree with the stored order.  The
    repair is a priority-guided Kahn walk: among the ready tasks, always
    emit the one appearing earliest in the stored order.  When the stored
    order already is a valid topological order of *this* problem's graph,
    the walk reproduces it exactly (every prefix of a topological order is
    emitted before its suffix becomes ready); otherwise it yields the
    closest precedence-respecting reordering under that greedy rule.
    Processor indices are folded into range modulo ``m``.

    Raises
    ------
    ValueError
        If *order* is not a permutation of ``0..n-1`` or the array lengths
        don't match the problem.
    """
    import heapq

    n, m = problem.n, problem.m
    order = np.asarray(order, dtype=np.int64)
    proc_of = np.asarray(proc_of, dtype=np.int64)
    if order.shape != (n,) or proc_of.shape != (n,):
        raise ValueError(
            f"order and proc_of must have shape ({n},), got "
            f"{order.shape} and {proc_of.shape}"
        )
    if np.any(np.sort(order) != np.arange(n)):
        raise ValueError("order must be a permutation of 0..n-1")

    graph = problem.graph
    if is_topological_order(graph, order):
        return Chromosome(order=order, proc_of=proc_of % m)

    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    indeg = np.bincount(graph.edge_dst, minlength=n).tolist()
    succ: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
        succ[s].append(d)
    ready = [(int(pos[v]), v) for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    repaired: list[int] = []
    while ready:
        _, v = heapq.heappop(ready)
        repaired.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (int(pos[w]), w))
    return Chromosome(
        order=np.asarray(repaired, dtype=np.int64), proc_of=proc_of % m
    )


def heft_chromosome(problem: SchedulingProblem, schedule: Schedule | None = None) -> Chromosome:
    """Encode the HEFT schedule as a chromosome (the GA seed, Sec. 4.2.2).

    The scheduling string is a topological order of the schedule's
    disjunctive graph, so decoding reproduces the HEFT processor orders
    exactly.
    """
    if schedule is None:
        from repro.heuristics.heft import HeftScheduler

        schedule = HeftScheduler().schedule(problem)
    return Chromosome(order=schedule.linear_order(), proc_of=schedule.proc_of)
