"""The genetic-algorithm evolution loop (paper Sec. 4.2).

:class:`GeneticScheduler` runs a standard generational GA with the paper's
configuration:

* population of ``Np = 20`` chromosomes, seeded with the HEFT solution and
  uniqueness-checked random individuals (Sec. 4.2.2);
* systematic binary tournament selection (Sec. 4.2.4);
* single-point precedence-preserving crossover with probability
  ``pc = 0.9`` (Sec. 4.2.5);
* topological-window mutation with probability ``pm = 0.1`` (Sec. 4.2.6);
* elitism: the worst chromosome of each new generation is replaced by the
  best of the previous one (Sec. 4.2.3);
* stop after 1000 iterations or 100 iterations without improvement
  (Sec. 5).

The fitness policy is pluggable (:mod:`repro.ga.fitness`), which is how the
same engine produces Fig. 2 (makespan), Fig. 3 (slack) and Figs. 4–8
(ε-constraint).  An optional ``duration_matrix`` redirects every static
evaluation to a different timing view (the quantile-fed extension).

For speed the population is not a list of :class:`Chromosome` objects but
two ``(Np, n)`` int64 arrays — scheduling strings and processor maps —
for the whole run, and each generation writes its children in place into
a second pair of buffers.  The initial arrays come from
:meth:`GeneticScheduler._initial_population`: the HEFT and warm-start
rows, written in Python, then
:func:`~repro.ga.chromosome.random_rows` for the uniqueness-checked
random rest — one ``ga_random_rows`` call with the native library
loaded, else the ``random_chromosome`` loop, its reference, with the same
draws.  :meth:`GeneticScheduler.run` keeps the one
generation loop — the ``ga.generation`` spans, the counters, the stop
reason and the result — over a run state with
:class:`~repro.ga.popeval.NativeRun`'s interface: ``advance(g, g_end)``
runs generations ``g .. g_end - 1`` and stops after the one whose
``stagnation`` count (generations without improvement) reaches the
stagnation limit; ``stats`` holds the last generation's counts, ``hist``
the ``(6, G + 1)`` history and ``log`` the incumbent log, one row pair
per improvement.  Untraced, one ``advance`` call runs the whole GA;
traced, each call runs one generation inside its ``ga.generation`` span.
Two implement it:

* **The native step** (:class:`~repro.ga.popeval.NativeRun`): with the
  native library loaded, the paper's operators and exactly one of the
  paper's three policies (:class:`MakespanFitness`, :class:`SlackFitness`,
  :class:`EpsilonConstraintFitness`), any number of generations —
  selection, variation, evaluation of the rows not already in the
  parents, both scorings, elitism, the improvement rule, the stagnation
  stop, the history and the incumbent log — is one C call that draws the
  same numbers from the run's Generator.
* **The Python step** (:class:`_PythonRun`), its drop-in reference and
  the run state of every other policy, operator override and backend.
  It evaluates the distinct rows the run has not seen before in one
  validated call of a :class:`~repro.ga.popeval.PopulationEvaluator`
  bound once per run (a run cache maps row bytes to makespan and average
  slack), and hands the policy a :class:`~repro.ga.fitness.Population`
  view of its buffers.  Selection and variation are one C call
  (:meth:`~repro.ga.popeval.PopulationEvaluator.next_generation`) with
  the paper's operators and the library loaded; otherwise
  :func:`~repro.ga.selection.binary_tournament` and
  :meth:`GeneticScheduler._next_generation` run them — the paper's
  crossover batched over all crossing pairs, mutation row by row, with
  the same random draws in the same order as the chromosome operators.
  Operator overrides (``crossover_fn`` / ``mutation_fn``) receive
  :class:`Chromosome` copies of their rows.

Either way the run builds one :class:`Chromosome` per row of the
incumbent log after its last generation; :class:`GAHistory` repeats
each while it stands, and the returned best is an :class:`Individual`
over the last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import (
    Chromosome,
    heft_chromosome,
    random_rows,
    repair_chromosome,
)
from repro.ga.crossover import crossover_rows, single_point_crossover
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    FitnessPolicy,
    Individual,
    MakespanFitness,
    Population,
    SlackFitness,
)
from repro.ga.mutation import mutate, mutate_row
from repro.ga.popeval import (
    NativeRun,
    PopulationEvaluator,
    check_generations,
    reserve_history,
)
from repro.ga.selection import binary_tournament
from repro.obs import runtime as obs
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["GAParams", "GAHistory", "GAResult", "GeneticScheduler"]

#: Uniqueness check budget: up to this many times ``Np`` redraws while
#: filling the initial population before accepting duplicates (only
#: relevant for tiny search spaces).
INIT_RETRY_FACTOR = 20


@dataclass(frozen=True)
class GAParams:
    """GA hyper-parameters (paper Sec. 5 defaults).

    Attributes
    ----------
    population_size:
        ``Np`` (paper: 20).
    crossover_prob:
        ``pc`` — fraction of the intermediate population entering crossover
        (paper: 0.9).
    mutation_prob:
        ``pm`` — per-individual mutation probability (paper: 0.1).
    max_iterations:
        Hard generation cap (paper: 1000).
    stagnation_limit:
        Stop when the best fitness has not improved for this many
        iterations (paper: 100).
    seed_heft:
        Include the HEFT chromosome in the initial population (paper: yes;
        switchable for the seeding ablation).
    """

    population_size: int = 20
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    max_iterations: int = 1000
    stagnation_limit: int = 100
    seed_heft: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not (0.0 <= self.crossover_prob <= 1.0):
            raise ValueError("crossover_prob must be in [0, 1]")
        if not (0.0 <= self.mutation_prob <= 1.0):
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")


@dataclass
class GAHistory:
    """Per-generation traces (index 0 is the initial population).

    ``best_chromosomes`` snapshots the incumbent each generation so
    experiments can replay the evolution against Monte-Carlo realizations
    (Figs. 2–3 plot realized makespan / slack / R1 *over GA steps*).
    ``diversity`` is the fraction of distinct chromosomes in the
    population — the quantity the paper's uniqueness check (Sec. 4.2.2)
    protects at initialisation; tracking it over generations makes
    premature convergence visible.
    """

    best_fitness: list[float] = field(default_factory=list)
    best_makespan: list[float] = field(default_factory=list)
    best_slack: list[float] = field(default_factory=list)
    mean_fitness: list[float] = field(default_factory=list)
    diversity: list[float] = field(default_factory=list)
    best_chromosomes: list[Chromosome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.best_fitness)


@dataclass(frozen=True)
class GAResult:
    """Outcome of one GA run."""

    best: Individual
    best_fitness: float
    history: GAHistory
    generations: int
    stop_reason: str

    @property
    def schedule(self):
        """The best schedule found."""
        return self.best.schedule


class GeneticScheduler:
    """Configurable GA scheduler (see module docstring).

    Parameters
    ----------
    fitness:
        The fitness policy (larger = fitter).
    params:
        Hyper-parameters; defaults to the paper's configuration.
    rng:
        Seed or generator for all stochastic decisions of the run.
    duration_matrix:
        Optional ``(n, m)`` matrix replacing the problem's expected times
        in every static evaluation (extension hook).
    crossover_fn / mutation_fn:
        Optional operator overrides (see :mod:`repro.ga.variants`);
        defaults are the paper's single-point crossover and
        topological-window mutation.  Signatures:
        ``crossover_fn(parent_a, parent_b, rng) -> (child_a, child_b)`` and
        ``mutation_fn(problem, chromosome, rng) -> chromosome``.
    warm_start:
        Optional chromosomes injected into the initial population (after
        the HEFT seed, before the random fill) — typically the best
        solutions of previously solved, structurally similar problems
        (see :mod:`repro.service.warmstart`).  Each seed is repaired
        against the problem's precedence constraints
        (:func:`~repro.ga.chromosome.repair_chromosome`), deduplicated,
        and capped at the population size.  Seeding changes only the
        starting point; evaluation consumes no randomness, so a run
        remains fully determined by ``(problem, params, rng, warm_start)``.
    """

    name = "ga"

    def __init__(
        self,
        fitness: FitnessPolicy,
        params: GAParams | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        duration_matrix: np.ndarray | None = None,
        crossover_fn=None,
        mutation_fn=None,
        warm_start: list[Chromosome] | None = None,
    ) -> None:
        self.fitness = fitness
        self.params = params or GAParams()
        self._rng = as_generator(rng)
        self.duration_matrix = (
            None
            if duration_matrix is None
            else np.ascontiguousarray(duration_matrix, dtype=np.float64)
        )
        self.crossover_fn = crossover_fn or single_point_crossover
        self.mutation_fn = mutation_fn or mutate
        self.warm_start = list(warm_start) if warm_start else []

    # ------------------------------------------------------------------ #
    # Population initialisation (Sec. 4.2.2)
    # ------------------------------------------------------------------ #

    def _initial_population(
        self, problem: SchedulingProblem, heft_schedule: Schedule | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The run's ``(Np, n)`` scheduling strings and processor maps.

        The HEFT seed (encoded from *heft_schedule* when given) comes
        first, then the warm-start seeds, each repaired against
        *problem*'s precedence constraints, deduplicated and capped at
        ``Np``; :func:`~repro.ga.chromosome.random_rows` fills the rest
        with a uniqueness budget of ``INIT_RETRY_FACTOR * Np`` candidates
        (tiny search spaces then fill with duplicates rather than fail, a
        documented deviation only reachable for ``n <= 2``).
        """
        size = self.params.population_size
        orders = np.empty((size, problem.n), dtype=np.int64)
        procs = np.empty_like(orders)
        heft = (
            [heft_chromosome(problem, heft_schedule)] if self.params.seed_heft else []
        )
        warm = (
            repair_chromosome(problem, c.order, c.proc_of) for c in self.warm_start
        )
        k = 0
        seen: set[bytes] = set()
        for seed in chain(heft, warm):
            if seed.key() in seen:
                continue
            seen.add(seed.key())
            orders[k], procs[k] = seed.order, seed.proc_of
            k += 1
            if k == size:
                break
        random_rows(problem, self._rng, orders, procs, k, INIT_RETRY_FACTOR * size)
        return orders, procs

    # ------------------------------------------------------------------ #
    # Variation
    # ------------------------------------------------------------------ #

    def _vary(
        self,
        evaluator: PopulationEvaluator,
        scores: np.ndarray,
        orders: np.ndarray,
        procs: np.ndarray,
        out_orders: np.ndarray,
        out_procs: np.ndarray,
    ) -> tuple[int, int]:
        """One generation's selection and variation into ``out_*``.

        With the paper's operators and the native library loaded this is
        one C call (:meth:`PopulationEvaluator.next_generation`);
        otherwise :func:`binary_tournament` then :meth:`_next_generation`,
        the reference it reproduces draw for draw.  Returns the crossover
        and mutation counts.
        """
        if (
            evaluator.native
            and self.crossover_fn is single_point_crossover
            and self.mutation_fn is mutate
        ):
            return evaluator.next_generation(
                self._rng,
                scores,
                orders,
                procs,
                out_orders,
                out_procs,
                self.params.crossover_prob,
                self.params.mutation_prob,
            )
        selected = binary_tournament(scores, self._rng)
        return self._next_generation(
            evaluator.problem, orders, procs, selected, out_orders, out_procs
        )

    def _next_generation(
        self,
        problem: SchedulingProblem,
        orders: np.ndarray,
        procs: np.ndarray,
        selected: np.ndarray,
        out_orders: np.ndarray,
        out_procs: np.ndarray,
    ) -> tuple[int, int]:
        """Write the children of the selected rows into ``out_*`` in place.

        The intermediate population is ``selected``'s rows of ``orders`` /
        ``procs``.  Its rows are paired in a random order, each pair
        crosses with ``pc`` (an odd leftover is copied through), then each
        child mutates with ``pm`` — the same Generator calls, in the same
        order, with the same results as applying ``crossover_fn`` and
        ``mutation_fn`` chromosome by chromosome.  The paper's operators
        run on the arrays directly (crossover batched over all crossing
        pairs); other operators get :class:`Chromosome` copies of their
        rows and their results are written back.  Returns the crossover
        and mutation counts.
        """
        params = self.params
        gen = self._rng
        n_pop, n = orders.shape
        rows = selected[gen.permutation(n_pop)]
        np.take(orders, rows, axis=0, out=out_orders)
        np.take(procs, rows, axis=0, out=out_procs)

        # Pair the intermediate population; each pair crosses with pc.  The
        # paper's crossover runs once over all rows: a row that does not
        # cross keeps the cut n, which leaves it a copy of its parent.
        paper_crossover = self.crossover_fn is single_point_crossover
        cut_order = np.full(n_pop, n)
        cut_proc = np.full(n_pop, n)
        n_crossovers = 0
        for i in range(0, n_pop - 1, 2):
            if not gen.random() < params.crossover_prob:
                continue
            n_crossovers += 1
            if not paper_crossover:
                c1, c2 = self.crossover_fn(
                    _row_chromosome(out_orders, out_procs, i),
                    _row_chromosome(out_orders, out_procs, i + 1),
                    gen,
                )
                out_orders[i], out_procs[i] = c1.order, c1.proc_of
                out_orders[i + 1], out_procs[i + 1] = c2.order, c2.proc_of
            elif n >= 2:  # a single task has no legal cut
                cut_order[i] = cut_order[i + 1] = int(gen.integers(1, n))
                cut_proc[i] = cut_proc[i + 1] = int(gen.integers(1, n))
        if paper_crossover and n_crossovers and n >= 2:
            partner = np.arange(n_pop) ^ 1  # rows 2j and 2j + 1 pair up
            if n_pop % 2:
                partner[-1] = n_pop - 1  # the odd leftover, cut n
            crossover_rows(out_orders, out_procs, partner, cut_order, cut_proc)

        # Per-individual mutation with pm.
        paper_mutation = self.mutation_fn is mutate
        n_mutations = 0
        for i in range(n_pop):
            if not gen.random() < params.mutation_prob:
                continue
            n_mutations += 1
            if paper_mutation:
                mutate_row(problem, out_orders[i], out_procs[i], gen)
            else:
                c = self.mutation_fn(
                    problem, _row_chromosome(out_orders, out_procs, i), gen
                )
                out_orders[i], out_procs[i] = c.order, c.proc_of
        return n_crossovers, n_mutations

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def _run_state(
        self,
        evaluator: PopulationEvaluator,
        orders: np.ndarray,
        procs: np.ndarray,
    ) -> "NativeRun | _PythonRun":
        """The run's generation step over the initial population.

        The native step runs when the library is loaded, the operators are
        the paper's and the policy is exactly one of the paper's three;
        every other configuration runs the Python step, and so does a
        population of the wrong width, which then raises the Python
        step's error.
        """
        fitness = self.fitness
        policy = _NATIVE_POLICIES.get(type(fitness))
        if (
            policy is None
            or not evaluator.native
            or self.crossover_fn is not single_point_crossover
            or self.mutation_fn is not mutate
            or orders.shape[1] != evaluator.n
        ):
            return _PythonRun(self, evaluator, orders, procs)
        params = self.params
        return NativeRun(
            evaluator,
            self._rng,
            policy,
            getattr(fitness, "bound", 0.0),
            getattr(fitness, "limit", 0.0),
            orders,
            procs,
            params.crossover_prob,
            params.mutation_prob,
            params.max_iterations,
            params.stagnation_limit,
        )

    def run(
        self,
        problem: SchedulingProblem,
        *,
        heft_schedule: Schedule | None = None,
    ) -> GAResult:
        """Evolve schedules for *problem* and return the best found.

        One generation loop over the run state :meth:`_run_state` picks
        (see the module docstring).  ``heft_schedule`` is *problem*'s HEFT
        schedule when the caller already has it; the HEFT seed is then
        encoded from it instead of running HEFT again; a schedule of
        another problem raises ``ValueError`` before anything is drawn.
        """
        if heft_schedule is not None and heft_schedule.problem is not problem:
            raise ValueError("heft_schedule must schedule the problem being solved")
        params = self.params

        run_span = obs.trace(
            "ga.run",
            fitness=getattr(self.fitness, "name", "?"),
            n_tasks=problem.n,
            population=params.population_size,
        )
        with run_span:
            evaluator = PopulationEvaluator(problem, self.duration_matrix)
            orders, procs = self._initial_population(problem, heft_schedule)
            run = self._run_state(evaluator, orders, procs)
            # Untraced, one call runs the whole GA; traced, generation 0,
            # then one call and one span per generation.
            generations = run.advance(
                0, 1 if obs.enabled() else params.max_iterations + 1
            )
            while (
                generations < params.max_iterations
                and run.stagnation < params.stagnation_limit
            ):
                with obs.trace("ga.generation", gen=generations + 1) as gen_span:
                    generations = run.advance(generations + 1, generations + 2)
                    _annotate(gen_span, run, generations, len(orders))
            stop_reason = (
                "stagnation"
                if run.stagnation >= params.stagnation_limit
                else "max_iterations"
            )

            best, makespan, slack, mean, diversity, index = run.hist[
                :, : generations + 1
            ].tolist()
            log = run.log.copy()
            incumbents = [Chromosome(*rows) for rows in zip(log[0], log[1])]
            chromosomes = [incumbents[int(k)] for k in index]
            history = GAHistory(best, makespan, slack, mean, diversity, chromosomes)
            best_ind = Individual(
                incumbents[-1], None, makespan[-1], slack[-1], problem=problem
            )
            if obs.enabled():
                obs.add("ga.generations", generations)
                run_span.set(
                    generations=generations,
                    stop_reason=stop_reason,
                    best_fitness=best[-1],
                    best_makespan=best_ind.makespan,
                )

        return GAResult(
            best=best_ind,
            best_fitness=best[-1],
            history=history,
            generations=generations,
            stop_reason=stop_reason,
        )

    def schedule(self, problem: SchedulingProblem):
        """Scheduler-protocol facade: run the GA, return the best schedule."""
        return self.run(problem).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeneticScheduler(fitness={getattr(self.fitness, 'name', '?')!r}, "
            f"Np={self.params.population_size})"
        )


def _row_chromosome(orders: np.ndarray, procs: np.ndarray, i: int) -> Chromosome:
    """A :class:`Chromosome` over copies of population row *i*, for the
    operator overrides (which may keep what they are given)."""
    return Chromosome(order=orders[i].copy(), proc_of=procs[i].copy())


def _annotate(span, run, g: int, pop: int) -> None:
    """Generation *g*'s counters and convergence telemetry, read from the
    run state's ``stats`` and ``hist``."""
    improved, n_crossovers, n_mutations, n_feasible = run.stats
    obs.add("ga.crossovers", n_crossovers)
    obs.add("ga.mutations", n_mutations)
    best, makespan, _, mean, diversity, _ = run.hist[:, g].tolist()
    span.set(
        best_fitness=best,
        mean_fitness=mean,
        best_makespan=makespan,
        diversity=diversity,
        improved=bool(improved),
    )
    # The share of rows meeting the policy's constraint, if it has one.
    if n_feasible >= 0:
        span.set(feasible_fraction=n_feasible / pop)


class _PythonRun:
    """The Python generation step: :class:`~repro.ga.popeval.NativeRun`'s
    drop-in reference, and the run state of every other policy, operator
    and backend.

    It has the same interface — :meth:`advance`, ``stats``, ``hist``,
    ``log`` and ``stagnation`` — and writes the same history and
    incumbent log, one generation at a time.  Each generation varies the
    parents into the child buffers, scores the children (evaluating the
    rows the run has not seen in one population-kernel call), replaces
    the worst child by the incumbent (elitism, Sec. 4.2.3), scores again
    and applies the improvement rule.  ``stats`` counts the feasible rows
    when the policy has an ``is_feasible`` method, else holds -1 there.
    """

    def __init__(
        self,
        engine: GeneticScheduler,
        evaluator: PopulationEvaluator,
        orders: np.ndarray,
        procs: np.ndarray,
    ) -> None:
        self.engine = engine
        self.evaluator = evaluator
        self.max_generations = engine.params.max_iterations
        self.stagnation_limit = engine.params.stagnation_limit
        P, n = orders.shape
        problem = evaluator.problem
        self.parents = Population(problem, orders, procs, np.empty(P), np.empty(P))
        kids = np.empty_like(orders), np.empty_like(procs)
        self.children = Population(problem, *kids, np.empty(P), np.empty(P))
        # Row bytes (Chromosome.key()) -> (makespan, average slack).
        self.cache: dict[bytes, tuple[float, float]] = {}
        self.is_feasible = getattr(engine.fitness, "is_feasible", None)
        self.hist = np.empty((6, 0))
        self._log = np.empty((2, 0, n), dtype=np.int64)
        self.gen = self.n_improved = -1
        self.stagnation = 0
        self.stats = (False, 0, 0, -1)

    @property
    def log(self) -> np.ndarray:
        """The incumbent log, read-only, as :attr:`NativeRun.log`."""
        view = self._log[:, : self.n_improved + 1]
        view.flags.writeable = False
        return view

    def _evaluate(self, pop: Population) -> list[bytes]:
        """Fill *pop*'s metrics and return its rows' keys.

        Rows the run has seen take their cached metrics; the distinct
        others reach the kernel in one validated call.
        """
        orders, procs = pop.orders, pop.procs
        # Each row's order bytes then proc bytes, as one void scalar per row.
        genes = np.concatenate([orders, procs], axis=1)
        keys = genes.view(np.dtype((np.void, genes.itemsize * genes.shape[1])))
        keys = keys.ravel().tolist()
        cache = self.cache
        misses: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in cache and key not in misses:
                misses[key] = i
        if misses:
            rows = list(misses.values())
            pe = self.evaluator.evaluate(orders[rows], procs[rows])
            cache.update(
                zip(misses, zip(pe.makespans.tolist(), pe.avg_slacks.tolist()))
            )
        pop.makespans[:], pop.avg_slacks[:] = zip(*map(cache.__getitem__, keys))
        return keys

    def _take(
        self, pop: Population, keys: list[bytes], scores: np.ndarray, i: int
    ) -> None:
        """Make row *i* of *pop* the incumbent: log row ``n_improved``."""
        self._log[:, self.n_improved] = pop.orders[i], pop.procs[i]
        self.best_metrics = (float(pop.makespans[i]), float(pop.avg_slacks[i]))
        self.best_key = keys[i]
        self.best_score = float(scores[i])

    def advance(self, g: int, g_end: int) -> int:
        """Run generations ``g .. g_end - 1`` as :meth:`NativeRun.advance`
        does; raises what the evaluation and the policy raise, and the
        same ``IndexError`` and ``ValueError`` for the generations."""
        check_generations(g, g_end, self.max_generations, self.gen)
        for g in range(g, g_end):
            self.hist, self._log = reserve_history(
                self.hist, self._log, g, self.max_generations
            )
            self._step(g)
            self.gen = g
            if self.stagnation >= self.stagnation_limit:
                break
        return self.gen

    def _step(self, g: int) -> None:
        """Run generation *g* (0 evaluates and scores the initial
        population)."""
        engine = self.engine
        fitness = engine.fitness
        improved = False
        if g == 0:
            self.gen = self.n_improved = -1
            pop = self.parents
            keys = self._evaluate(pop)
            scores = fitness.scores(pop)
            self.n_improved = self.stagnation = 0
            self._take(pop, keys, scores, int(np.argmax(scores)))
            counts = (0, 0)
        else:
            parents, pop = self.parents, self.children
            counts = engine._vary(
                self.evaluator,
                self.scores,
                parents.orders,
                parents.procs,
                pop.orders,
                pop.procs,
            )
            keys = self._evaluate(pop)
            scores = fitness.scores(pop)

            # Elitism: worst of the new generation is replaced by the
            # incumbent best (Sec. 4.2.3), then population-based fitness
            # is refreshed because the replacement may shift the feasible
            # set.
            worst = int(np.argmin(scores))
            pop.orders[worst], pop.procs[worst] = self._log[:, self.n_improved]
            pop.makespans[worst], pop.avg_slacks[worst] = self.best_metrics
            keys[worst] = self.best_key
            scores = fitness.scores(pop)
            self.parents, self.children = pop, parents

            best = int(np.argmax(scores))
            score, incumbent = float(scores[best]), self.best_score
            # A relative margin above the incumbent: scaling a negative
            # score by (1 + 1e-12) would lower the bar.
            margin = 1.0 + 1e-12 if incumbent >= 0.0 else 1.0 - 1e-12
            improved = score > incumbent * margin or (
                incumbent <= 0.0 and score > incumbent + 1e-15
            )
            if improved:
                self.n_improved += 1
                self._take(pop, keys, scores, best)
                self.stagnation = 0
            else:
                self.stagnation += 1
        self.scores = scores
        n_feasible = -1
        if self.is_feasible is not None:
            n_feasible = sum(map(self.is_feasible, pop.makespans.tolist()))
        self.stats = (improved, *counts, n_feasible)
        self.hist[:, g] = (
            self.best_score,
            *self.best_metrics,
            scores.mean(),
            len(set(keys)) / len(keys),
            self.n_improved,
        )


#: ``GeneticScheduler`` policies the native step computes, by exact type.
_NATIVE_POLICIES = {
    MakespanFitness: "makespan",
    SlackFitness: "slack",
    EpsilonConstraintFitness: "epsilon",
}
