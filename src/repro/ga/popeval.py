"""Population-wide GA evaluation: one dispatch per generation.

The GA's per-generation cost is dominated not by the paper's slack and
makespan arithmetic but by per-individual Python dispatch: decoding every
chromosome into a :class:`~repro.schedule.schedule.Schedule` (disjunctive
edge assembly, CSR indexes) and running the scalar level kernels one
individual at a time.  :class:`PopulationEvaluator` removes that overhead
by evaluating the *whole population* in a single call on ``(P, n)``
scheduling-string and processor-map arrays:

* the native path binds the problem's kernel inputs and scratch rows
  once per evaluator (one GA run), then hands each population to the
  ``ga_population_eval`` C kernel (:mod:`repro.graph._native`), which
  checks every row (processors in range, a permutation, a topological
  order — every index bounds-checked before use), decodes and runs both
  level passes entirely in C, one individual after another;
* the numpy fallback (no compiler, ``REPRO_NATIVE=0``) runs the same
  checks in numpy, builds each individual's disjunctive edge list
  directly — skipping the full :class:`Schedule` object — and reuses the
  scalar :class:`~repro.graph.analysis.ArrayDag` kernels.

:func:`evaluate_population` is the one-shot form over a list of
:class:`~repro.ga.chromosome.Chromosome` objects.
:meth:`PopulationEvaluator.next_generation` runs the GA's selection and
variation (``ga_next_generation``) over the same bound CSR indexes, and
:class:`NativeRun` binds a whole GA run of the paper's configuration to
``ga_run_steps``: one call for any number of generations, the history
and the incumbent log in arrays that grow on demand
(:func:`reserve_history`).  The GA engine's Python step has the same
interface and is its reference.

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

import ctypes
from typing import Sequence

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.graph import _native
from repro.graph.analysis import ArrayDag
from repro.obs import runtime as _obs

__all__ = [
    "NativeRun",
    "PopulationEvaluation",
    "PopulationEvaluator",
    "evaluate_population",
]


class PopulationEvaluation:
    """Per-individual static metrics of one population evaluation.

    Attributes
    ----------
    makespans:
        ``(P,)`` expected makespan of every individual.
    slack_matrix:
        ``(P, n)`` per-task slack of every individual.
    """

    __slots__ = ("makespans", "slack_matrix", "_avg_slacks")

    def __init__(self, makespans: np.ndarray, slack_matrix: np.ndarray) -> None:
        self.makespans = makespans
        self.slack_matrix = slack_matrix
        self._avg_slacks = None

    @property
    def avg_slacks(self) -> np.ndarray:
        """``(P,)`` average slack (Eqn. 3) of every individual.

        Each value is bit-identical to ``ScheduleEvaluation.avg_slack``:
        numpy reduces along the contiguous last axis with the same
        pairwise summation it applies to one 1-D row.
        """
        if self._avg_slacks is None:
            self._avg_slacks = self.slack_matrix.mean(axis=1)
        return self._avg_slacks

    def __len__(self) -> int:
        return int(self.makespans.shape[0])


#: Error codes of the native kernels: the row checks (``ga_check_one``),
#: in the order they run, then the draw sizes and the generation order;
#: and the errors both backends raise for them.
_CHECK_ERRORS = {
    1: "processor assignment out of range",
    2: "scheduling string is not a permutation",
    3: "scheduling string is not a topological order",
    4: "population too large for 32-bit draws",
    6: "generation 0 has not run",
}


def _check_rows(
    orders: np.ndarray, procs: np.ndarray, m: int, graph
) -> None:
    """The numpy form of the native kernel's row checks."""
    if np.any((procs < 0) | (procs >= m)):
        raise ValueError(_CHECK_ERRORS[1])
    ar = np.arange(orders.shape[1], dtype=np.int64)
    if np.any(np.sort(orders, axis=1) != ar):
        raise ValueError(_CHECK_ERRORS[2])
    if graph.edge_src.size:
        pos = np.empty_like(orders)
        np.put_along_axis(pos, orders, ar[None, :], axis=1)
        if not bool(np.all(pos[:, graph.edge_src] < pos[:, graph.edge_dst])):
            raise ValueError(_CHECK_ERRORS[3])


def _duration_view(
    problem: SchedulingProblem, duration_matrix: np.ndarray | None
) -> np.ndarray:
    """The ``(n, m)`` duration matrix the population is evaluated under.

    ``+inf`` entries are legal (infeasible placements evaluate to an
    ``inf`` makespan); NaN and negatives are not.
    """
    if duration_matrix is None:
        return np.ascontiguousarray(
            problem.uncertainty.expected_times, dtype=np.float64
        )
    dur = np.ascontiguousarray(duration_matrix, dtype=np.float64)
    if dur.shape != (problem.n, problem.m):
        raise ValueError(
            f"duration_matrix must have shape ({problem.n}, {problem.m}), "
            f"got {dur.shape}"
        )
    if dur.size and not bool(np.all(dur >= 0.0)):
        raise ValueError("duration_matrix entries must be >= 0 (NaN rejected)")
    return dur


class PopulationEvaluator:
    """One problem's population kernel, bound once for many calls.

    Construction resolves the backend and, for the native kernel, the
    problem's CSR indexes, edge data, transfer rates, durations and
    scratch rows, so a GA generation costs one kernel call with two
    input and two output pointers.

    Parameters
    ----------
    problem:
        The scheduling problem every evaluated row solves.
    duration_matrix:
        Optional ``(n, m)`` duration view replacing the problem's expected
        times (the quantile-fed extension); ``+inf`` entries allowed.
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        duration_matrix: np.ndarray | None = None,
    ) -> None:
        self.problem = problem
        self.n, self.m = problem.n, problem.m
        self._dur = _duration_view(problem, duration_matrix)
        self._lib = _native.get_lib() if self.n else None
        if self._lib is None:
            return
        graph = problem.graph
        dag = ArrayDag.from_taskgraph(graph)
        # Every array behind a bound pointer stays referenced by _keep.
        self._keep = (
            dag.pred_indptr,
            dag.pred_eidx,
            np.ascontiguousarray(graph.edge_src),
            dag.succ_indptr,
            dag.succ_eidx,
            np.ascontiguousarray(graph.edge_dst),
            np.ascontiguousarray(graph.edge_data, dtype=np.float64),
            np.ascontiguousarray(problem.platform._inv_rates),
            self._dur,
            np.empty(3 * self.n, dtype=np.float64),
            np.empty(self.m + self.n, dtype=np.int64),
        )
        self._bound = tuple(a.ctypes.data for a in self._keep)

    @property
    def native(self) -> bool:
        """Whether this evaluator runs the C kernels."""
        return self._lib is not None

    def _check_arrays(self, orders: np.ndarray, procs: np.ndarray) -> None:
        n = self.n
        if (
            orders.shape != procs.shape
            or orders.ndim != 2
            or orders.shape[1] != n
            or orders.dtype != np.int64
            or procs.dtype != np.int64
            or not orders.flags.c_contiguous
            or not procs.flags.c_contiguous
        ):
            raise ValueError(
                f"population arrays must be C-contiguous int64 of shape "
                f"(P, {n}), got {orders.shape} and {procs.shape}"
            )

    def evaluate(self, orders: np.ndarray, procs: np.ndarray) -> PopulationEvaluation:
        """Evaluate ``(P, n)`` scheduling strings and processor maps.

        Both arrays must be C-contiguous ``int64`` of the bound problem's
        width.  Every row is checked first (processors in range, a
        permutation, a topological order) and the first failing check
        raises ``ValueError``.
        """
        n = self.n
        self._check_arrays(orders, procs)
        P = orders.shape[0]
        makespans = np.empty(P, dtype=np.float64)
        slacks = np.empty((P, n), dtype=np.float64)
        if P == 0 or n == 0:
            makespans[:] = 0.0
            return PopulationEvaluation(makespans, slacks)
        if _obs.enabled():
            _obs.add(
                "kernel.ga_population.numpy"
                if self._lib is None
                else "kernel.ga_population.native"
            )
        if self._lib is None:
            _check_rows(orders, procs, self.m, self.problem.graph)
            _eval_numpy(self.problem, orders, procs, self._dur, makespans, slacks)
            return PopulationEvaluation(makespans, slacks)
        rc = self._lib.ga_population_eval(
            P,
            n,
            self.m,
            orders.ctypes.data,
            procs.ctypes.data,
            *self._bound,
            makespans.ctypes.data,
            slacks.ctypes.data,
        )
        if rc:
            raise ValueError(_CHECK_ERRORS[rc])
        return PopulationEvaluation(makespans, slacks)

    def next_generation(
        self,
        rng: np.random.Generator,
        scores: np.ndarray,
        orders: np.ndarray,
        procs: np.ndarray,
        out_orders: np.ndarray,
        out_procs: np.ndarray,
        crossover_prob: float,
        mutation_prob: float,
    ) -> tuple[int, int]:
        """The paper's selection and variation in one native call.

        Writes the children of the ``(P, n)`` population into ``out_*``
        exactly as :func:`~repro.ga.selection.binary_tournament` followed
        by ``GeneticScheduler._next_generation`` with the paper's
        operators would — the same draws from *rng*, in the same order —
        and returns the crossover and mutation counts.  Every parent row
        is checked first (processors in range, a permutation), so such an
        invalid row raises ``ValueError`` before anything is drawn; an
        empty mutation window raises the topological-order error.  The
        children do not overlap the parents.  Native only.
        """
        self._check_arrays(orders, procs)
        self._check_arrays(out_orders, out_procs)
        P = orders.shape[0]
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        if scores.shape != (P,) or out_orders.shape[0] != P:
            raise ValueError(
                f"scores and children must match the {P} parents, got "
                f"{scores.shape} and {out_orders.shape}"
            )
        if P == 0:
            raise ValueError("cannot select from an empty population")
        # Scratch rows, then the two counts.
        ws = np.empty(2 * P + 4 * self.n + 2, dtype=np.int64)
        with rng.bit_generator.lock:
            rc = self._lib.ga_next_generation(
                P,
                self.n,
                self.m,
                crossover_prob,
                mutation_prob,
                _native.bitgen(rng),
                scores.ctypes.data,
                orders.ctypes.data,
                procs.ctypes.data,
                out_orders.ctypes.data,
                out_procs.ctypes.data,
                *self._bound[:6],
                ws.ctypes.data,
            )
        if rc:
            raise ValueError(_CHECK_ERRORS[rc])
        return int(ws[-2]), int(ws[-1])


#: ``ga_run_steps``'s policy codes.
POLICIES = ("makespan", "slack", "epsilon")

#: Columns of a run's history once its first generation is written.
HISTORY_COLUMNS = 1025


def check_generations(g: int, g_end: int, max_generations: int, last: int) -> None:
    """Refuse to run generations ``g .. g_end - 1`` of a run capped at
    *max_generations* whose last generation run is *last* (-1 before
    generation 0): ``IndexError`` for a span outside
    ``0..max_generations``, ``ValueError`` for a later generation before
    generation 0 has run."""
    if not 0 <= g < g_end <= max_generations + 1:
        raise IndexError(
            f"generations {g}..{g_end - 1} outside the bound history"
        )
    if g > 0 and last < 0:
        raise ValueError(_CHECK_ERRORS[6])


def reserve_history(
    hist: np.ndarray, log: np.ndarray, g: int, max_generations: int
) -> tuple[np.ndarray, np.ndarray]:
    """*hist* and *log*, or wider copies of both, with a column for
    generation *g*.

    A run's ``(6, k)`` history and its ``(2, k, n)`` incumbent log start
    empty, take at most :data:`HISTORY_COLUMNS` columns for generation 0
    and at least double whenever a generation lands past their end, up
    to ``max_generations + 1``; so a run that stops early never allocates
    for its generation cap.  The log grows with the history because a
    run has improved at most *g* times by generation *g*.
    """
    cap = hist.shape[1]
    if g < cap:
        return hist, log
    width = min(max(2 * cap, g + 1, HISTORY_COLUMNS), max_generations + 1)
    return _widen(hist, width), _widen(log, width)


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    """A copy of *a* with its second axis *width* long."""
    grown = np.empty((a.shape[0], width, *a.shape[2:]), dtype=a.dtype)
    grown[:, : a.shape[1]] = a
    return grown


class NativeRun:
    """One GA run as ``ga_run_steps`` calls.

    Binds a run-state block once: the evaluator's problem pointers, the
    parent and child buffers (the parents a copy of ``orders``/``procs``),
    per-row metrics, scores, hashes and classes, and scratch; the history
    and the incumbent log are bound as they grow.  :meth:`advance` then runs
    generations of ``GeneticScheduler.run`` for the paper's operators and
    *policy* (one of :data:`POLICIES`; *bound* and *limit* are the ε
    policy's ``epsilon * M_HEFT`` and feasibility threshold) with the
    draws the Python step makes from *rng*, in one call.  The kernel
    reads the parent rows and the incumbent log unchecked, because it
    checked every row when it wrote it, so neither is exposed writable.
    Native only.

    Attributes
    ----------
    stats:
        The last generation's improvement flag, crossover and mutation
        counts and feasible count (-1 without a constraint).
    hist:
        ``(6, k)`` history, ``k <= max_generations + 1`` columns grown on
        demand (:func:`reserve_history`): per generation the incumbent's
        score, makespan and average slack, the mean score, the diversity
        and the number of improvements so far.
    """

    def __init__(
        self,
        evaluator: PopulationEvaluator,
        rng: np.random.Generator,
        policy: str,
        bound: float,
        limit: float,
        orders: np.ndarray,
        procs: np.ndarray,
        crossover_prob: float,
        mutation_prob: float,
        max_generations: int,
        stagnation_limit: int,
    ) -> None:
        evaluator._check_arrays(orders, procs)
        P, n, m = orders.shape[0], evaluator.n, evaluator.m
        if P == 0:
            raise ValueError("cannot select from an empty population")
        self._lock = rng.bit_generator.lock
        self._steps = evaluator._lib.ga_run_steps
        # Parent orders and procs (a copy of the caller's), then the children's.
        rows = np.empty((4, P, n), dtype=np.int64)
        rows[0], rows[1] = orders, procs
        metrics = np.empty((2, 3, P))
        hashes = np.empty((2, P), dtype=np.uint64)
        classes = np.empty((2, P), dtype=np.int64)
        self.max_generations = max_generations
        self.stagnation_limit = stagnation_limit
        self.hist = np.empty((6, 0))
        self._log = np.empty((2, 0, n), dtype=np.int64)
        table = np.empty(1 << (4 * P - 1).bit_length(), dtype=np.int64)
        ws_f = np.empty(4 * n)
        ws_i = np.empty(max(m + n, 2 * P + 4 * n + 2), dtype=np.int64)
        self.stats = (ctypes.c_int64 * 4)()
        self._run = _native.GaRun(
            P,
            n,
            m,
            POLICIES.index(policy),
            crossover_prob,
            mutation_prob,
            bound,
            limit,
            *evaluator._bound[:9],
            *(
                _native.GaRows(
                    rows[2 * side].ctypes.data,
                    rows[2 * side + 1].ctypes.data,
                    *(metrics[side, k].ctypes.data for k in range(3)),
                    hashes[side].ctypes.data,
                    classes[side].ctypes.data,
                )
                for side in range(2)
            ),
            gen=-1,
            n_inc=-1,
            table=table.ctypes.data,
            table_mask=table.size - 1,
            ws_f=ws_f.ctypes.data,
            ws_i=ws_i.ctypes.data,
        )
        # Everything behind a bound pointer stays referenced by _keep.
        self._keep = (
            rng, evaluator, rows, metrics, hashes, classes, table, ws_f, ws_i
        )
        self._args = (ctypes.addressof(self._run), _native.bitgen(rng))
        self._stats = ctypes.addressof(self.stats)

    @property
    def stagnation(self) -> int:
        """Generations since the incumbent last improved."""
        return self._run.stagnation

    @property
    def log(self) -> np.ndarray:
        """The incumbent log, read-only: ``(2, k, n)``, row ``i`` of
        ``log[0]`` and ``log[1]`` the scheduling string and processor map
        of the incumbent after ``i`` improvements; row ``k - 1`` is the
        incumbent."""
        view = self._log[:, : self._run.n_inc + 1]
        view.flags.writeable = False
        return view

    def advance(self, g: int, g_end: int) -> int:
        """Run generations ``g .. g_end - 1`` (0 evaluates the initial
        population), stopping after the one that brings :attr:`stagnation`
        to the stagnation limit; return the last generation run.

        Raises ``ValueError`` for a row that fails its checks (the same
        errors as :meth:`PopulationEvaluator.evaluate`) or for a
        generation after 0 before generation 0 has run, and
        ``ZeroDivisionError`` for a zero makespan under the makespan
        policy, as ``MakespanFitness.scores`` does; ``IndexError`` for a
        generation outside ``0..max_generations``.
        """
        run = self._run
        check_generations(g, g_end, self.max_generations, run.gen)
        while True:
            hist, log = reserve_history(self.hist, self._log, g, self.max_generations)
            if hist is not self.hist:  # bind the grown arrays before writing
                log.flags.writeable = False  # the kernel's own writes only
                self.hist, self._log = hist, log
                run.hist, run.log = hist.ctypes.data, log.ctypes.data
                run.hist_len = hist.shape[1]
            with self._lock:
                rc = self._steps(
                    *self._args, g, g_end, self.stagnation_limit, self._stats
                )
            if rc:
                if rc == 5:
                    raise ZeroDivisionError("float division by zero")
                raise ValueError(_CHECK_ERRORS[rc])
            g = run.gen + 1
            if g == g_end or run.stagnation >= self.stagnation_limit:
                return run.gen


def evaluate_population(
    problem: SchedulingProblem,
    chromosomes: Sequence[Chromosome],
    *,
    duration_matrix: np.ndarray | None = None,
) -> PopulationEvaluation:
    """Evaluate every chromosome's static metrics in one dispatch.

    Parameters
    ----------
    problem:
        The scheduling problem all chromosomes solve.
    chromosomes:
        The population; every ``order`` must be a topological permutation
        of the task graph and every ``proc_of`` in range (both checked).
    duration_matrix:
        Optional ``(n, m)`` duration view replacing the problem's expected
        times (the quantile-fed extension); ``+inf`` entries allowed.

    Returns
    -------
    PopulationEvaluation
        Makespans and slacks bit-identical to evaluating each chromosome
        via ``decode`` + :func:`repro.schedule.evaluation.evaluate`.
    """
    n = problem.n
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
    return PopulationEvaluator(problem, duration_matrix).evaluate(orders, procs)


def _eval_numpy(
    problem: SchedulingProblem,
    orders: np.ndarray,
    procs: np.ndarray,
    dur: np.ndarray,
    makespans: np.ndarray,
    slacks: np.ndarray,
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
        bl = dag.bottom_levels(node_w, edge_w)
        # inf - inf on infeasible individuals is the documented NaN
        # passthrough, not an error worth warning about.
        with np.errstate(invalid="ignore"):
            row = (makespans[i] - bl) - tl
        np.maximum(row, 0.0, out=row)
        slacks[i] = row
