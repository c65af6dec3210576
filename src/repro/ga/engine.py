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
a second pair of buffers.  :meth:`GeneticScheduler.run` keeps the loop —
the ``ga.generation`` spans, the counters and the stop rule — and
delegates each generation to one of two steps:

* **The native step** (:class:`~repro.ga.popeval.NativeRun`): with the
  native library loaded, the paper's operators and exactly one of the
  paper's three policies (:class:`MakespanFitness`, :class:`SlackFitness`,
  :class:`EpsilonConstraintFitness`), a whole generation — selection,
  variation, evaluation of the rows not already in the parents, both
  scorings, elitism, the improvement rule and the history — is one C
  call that draws the same numbers from the run's Generator.  The
  history stays in arrays until the run ends; only an improvement builds
  a :class:`Chromosome`.
* **The Python step**, the reference the native step is tested against
  and the path for every other policy, operator override and backend.
  It evaluates the distinct rows the run has not seen before in one
  validated call of a :class:`~repro.ga.popeval.PopulationEvaluator`
  bound once per run, and scores :class:`Individual` lists through the
  policy.  Selection and variation are one C call
  (:meth:`~repro.ga.popeval.PopulationEvaluator.next_generation`) with
  the paper's operators and the library loaded; otherwise
  :func:`~repro.ga.selection.binary_tournament` and
  :meth:`GeneticScheduler._next_generation` run them — the paper's
  crossover batched over all crossing pairs, mutation row by row, with
  the same random draws in the same order as the chromosome operators.
  :class:`Chromosome` objects are built only where something reads one:
  the incumbent recorded in :class:`GAHistory`, the returned best,
  fitness policies that inspect ``Individual.chromosome``, and operator
  overrides (``crossover_fn`` / ``mutation_fn``), which receive copies of
  their rows.  Whatever outlives a generation — cache entries, the
  history, the result — owns its rows, because the buffers are reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import (
    Chromosome,
    heft_chromosome,
    random_chromosome,
    repair_chromosome,
)
from repro.ga.crossover import crossover_rows, single_point_crossover
from repro.ga.fitness import (
    EpsilonConstraintFitness,
    FitnessPolicy,
    Individual,
    MakespanFitness,
    SlackFitness,
)
from repro.ga.mutation import mutate, mutate_row
from repro.ga.popeval import NativeRun, PopulationEvaluator
from repro.ga.selection import binary_tournament
from repro.obs import runtime as obs
from repro.schedule.schedule import Schedule
from repro.utils.rng import as_generator

__all__ = ["GAParams", "GAHistory", "GAResult", "GeneticScheduler"]


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
    init_retry_factor:
        Uniqueness check budget: up to ``factor * Np`` redraws while
        filling the initial population before accepting duplicates (only
        relevant for tiny search spaces).
    """

    population_size: int = 20
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    max_iterations: int = 1000
    stagnation_limit: int = 100
    seed_heft: bool = True
    init_retry_factor: int = 20

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
    """

    best_fitness: list[float] = field(default_factory=list)
    best_makespan: list[float] = field(default_factory=list)
    best_slack: list[float] = field(default_factory=list)
    mean_fitness: list[float] = field(default_factory=list)
    diversity: list[float] = field(default_factory=list)
    best_chromosomes: list[Chromosome] = field(default_factory=list)

    def record(
        self,
        best: Individual,
        best_score: float,
        scores: np.ndarray,
        keys: list[bytes],
    ) -> None:
        """Append one generation's snapshot.

        *keys* are the population's :meth:`Chromosome.key` values.
        ``diversity`` is the fraction of distinct chromosomes in the
        population — the quantity the paper's uniqueness check (Sec. 4.2.2)
        protects at initialisation; tracking it over generations makes
        premature convergence visible.
        """
        self.best_fitness.append(float(best_score))
        self.best_makespan.append(best.makespan)
        self.best_slack.append(best.avg_slack)
        self.mean_fitness.append(float(scores.mean()))
        self.diversity.append(len(set(keys)) / max(len(keys), 1))
        self.best_chromosomes.append(best.chromosome)

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
        # The current run's HEFT schedule, when its caller passed one; read
        # by _initial_population, whose signature subclasses override.
        self._heft_schedule: Schedule | None = None

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def _evaluate_batch(
        self,
        evaluator: PopulationEvaluator,
        orders: np.ndarray,
        procs: np.ndarray,
        cache: dict[bytes, Individual],
    ) -> tuple[list[Individual], list[bytes]]:
        """Evaluate a population in one validated population-kernel call.

        Cache hits (and within-batch duplicates) reuse their Individual;
        only the distinct uncached rows reach the kernel.  New cache
        entries own copies of their rows, because the engine overwrites
        the population arrays every generation.  Returns every row's
        Individual and its :meth:`Chromosome.key`.
        """
        # Each row's order bytes then proc bytes, as one void scalar per row.
        genes = np.concatenate([orders, procs], axis=1)
        keys = genes.view(np.dtype((np.void, genes.itemsize * genes.shape[1])))
        keys = keys.ravel().tolist()
        misses: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in cache and key not in misses:
                misses[key] = i
        if misses:
            rows = list(misses.values())
            miss_orders = orders[rows]
            miss_procs = procs[rows]
            pe = evaluator.evaluate(miss_orders, miss_procs)
            makespans = pe.makespans.tolist()
            avg_slacks = pe.avg_slacks.tolist()
            for j, key in enumerate(misses):
                cache[key] = Individual.from_rows(
                    miss_orders[j],
                    miss_procs[j],
                    makespans[j],
                    avg_slacks[j],
                    evaluator.problem,
                )
        return [cache[key] for key in keys], keys

    # ------------------------------------------------------------------ #
    # Population initialisation (Sec. 4.2.2)
    # ------------------------------------------------------------------ #

    def _initial_population(self, problem: SchedulingProblem) -> list[Chromosome]:
        params = self.params
        population: list[Chromosome] = []
        seen: set[bytes] = set()

        if params.seed_heft:
            seed = heft_chromosome(problem, self._heft_schedule)
            population.append(seed)
            seen.add(seed.key())

        # Warm-start seeds: repaired against this problem's precedence
        # constraints, deduplicated, capped at Np.
        for cand in self.warm_start:
            if len(population) >= params.population_size:
                break
            repaired = repair_chromosome(problem, cand.order, cand.proc_of)
            if repaired.key() in seen:
                continue
            seen.add(repaired.key())
            population.append(repaired)

        budget = params.init_retry_factor * params.population_size
        while len(population) < params.population_size and budget > 0:
            cand = random_chromosome(problem, self._rng)
            budget -= 1
            if cand.key() in seen:
                continue
            seen.add(cand.key())
            population.append(cand)
        # Tiny search spaces can exhaust uniqueness; fill with duplicates
        # rather than fail (documented deviation, only reachable for n <= 2).
        while len(population) < params.population_size:
            population.append(random_chromosome(problem, self._rng))
        return population

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

    def _generations(
        self,
        evaluator: PopulationEvaluator,
        orders: np.ndarray,
        procs: np.ndarray,
    ) -> "_ReferenceGenerations | _NativeGenerations":
        """The run's generation step, with the initial population scored.

        The native step runs when the library is loaded, the operators are
        the paper's and the policy is exactly one of the paper's three;
        every other configuration runs the Python reference, and so does
        a population of the wrong width, which then raises the
        reference's error.
        """
        policy = _NATIVE_POLICIES.get(type(self.fitness))
        if (
            policy is None
            or not evaluator.native
            or self.crossover_fn is not single_point_crossover
            or self.mutation_fn is not mutate
            or orders.shape[1] != evaluator.n
        ):
            return _ReferenceGenerations(self, evaluator, orders, procs)
        return _NativeGenerations(self, evaluator, policy, orders, procs)

    def run(
        self,
        problem: SchedulingProblem,
        *,
        heft_schedule: Schedule | None = None,
    ) -> GAResult:
        """Evolve schedules for *problem* and return the best found.

        The population lives in two ``(Np, n)`` arrays — scheduling
        strings and processor maps — for the whole run; each generation
        writes its children into a second pair of buffers.  With the
        native library, the paper's operators and one of the paper's
        policies a generation is one C call; otherwise the Python loop
        evaluates the children in one population-kernel call and scores
        them.  ``heft_schedule`` is *problem*'s HEFT schedule when the
        caller already has it; the HEFT seed is then encoded from it
        instead of running HEFT again.
        """
        params = self.params
        self._heft_schedule = heft_schedule

        run_span = obs.trace(
            "ga.run",
            fitness=getattr(self.fitness, "name", "?"),
            n_tasks=problem.n,
            population=params.population_size,
        )
        with run_span:
            evaluator = PopulationEvaluator(problem, self.duration_matrix)
            population = self._initial_population(problem)
            orders = np.stack([c.order for c in population])
            procs = np.stack([c.proc_of for c in population])
            step = self._generations(evaluator, orders, procs)

            stagnation = 0
            generations = 0
            stop_reason = "max_iterations"
            for _ in range(params.max_iterations):
                generations += 1
                with obs.trace("ga.generation", gen=generations) as gen_span:
                    if step.step(generations):
                        stagnation = 0
                    else:
                        stagnation += 1
                    if obs.enabled():
                        step.annotate(gen_span)
                if stagnation >= params.stagnation_limit:
                    stop_reason = "stagnation"
                    break

            best_ind, best_score, history = step.finish(generations)
            if obs.enabled():
                obs.add("ga.generations", generations)
                run_span.set(
                    generations=generations,
                    stop_reason=stop_reason,
                    best_fitness=best_score,
                    best_makespan=best_ind.makespan,
                )

        return GAResult(
            best=best_ind,
            best_fitness=best_score,
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


class _ReferenceGenerations:
    """The Python generation step: the reference for the native step, and
    the path for every other policy, operator and backend.

    Each generation varies the population into the child buffers, scores
    the children (evaluating the rows the run has not seen in one
    population-kernel call), replaces the worst child by the incumbent
    (elitism, Sec. 4.2.3), scores again and applies the improvement rule.
    """

    def __init__(self, engine, evaluator, orders, procs) -> None:
        self.engine = engine
        self.evaluator = evaluator
        self.cache: dict[bytes, Individual] = {}
        self.orders, self.procs = orders, procs
        self.child_orders = np.empty_like(orders)
        self.child_procs = np.empty_like(procs)
        individuals, keys = engine._evaluate_batch(
            evaluator, orders, procs, self.cache
        )
        scores = engine.fitness.scores(individuals)
        best_idx = int(np.argmax(scores))
        self.best_ind = individuals[best_idx]
        self.best_key = keys[best_idx]
        self.best_score = float(scores[best_idx])
        self.individuals, self.keys, self.scores = individuals, keys, scores
        self.history = GAHistory()
        self.history.record(self.best_ind, self.best_score, scores, keys)
        self.counts = (0, 0)
        self.improved = False

    def step(self, generation: int) -> bool:
        """One generation; True when the incumbent improved."""
        engine = self.engine
        child_orders, child_procs = self.child_orders, self.child_procs
        self.counts = engine._vary(
            self.evaluator,
            self.scores,
            self.orders,
            self.procs,
            child_orders,
            child_procs,
        )
        individuals, keys = engine._evaluate_batch(
            self.evaluator, child_orders, child_procs, self.cache
        )
        scores = engine.fitness.scores(individuals)

        # Elitism: worst of the new generation is replaced by the incumbent
        # best (Sec. 4.2.3), then population-based fitness is refreshed
        # because the replacement may shift the feasible set.
        worst = int(np.argmin(scores))
        elite = self.best_ind.chromosome
        child_orders[worst] = elite.order
        child_procs[worst] = elite.proc_of
        individuals[worst] = self.best_ind
        keys[worst] = self.best_key
        scores = engine.fitness.scores(individuals)

        self.orders, self.child_orders = child_orders, self.orders
        self.procs, self.child_procs = child_procs, self.procs

        gen_best = int(np.argmax(scores))
        gen_best_score = float(scores[gen_best])
        best_score = self.best_score
        # A relative margin above the incumbent: scaling a negative score
        # by (1 + 1e-12) would lower the bar.
        margin = 1.0 + 1e-12 if best_score >= 0.0 else 1.0 - 1e-12
        self.improved = gen_best_score > best_score * margin or (
            best_score <= 0.0 and gen_best_score > best_score + 1e-15
        )
        if self.improved:
            self.best_ind = individuals[gen_best]
            self.best_key = keys[gen_best]
            self.best_score = gen_best_score
        self.individuals, self.keys, self.scores = individuals, keys, scores
        self.history.record(self.best_ind, self.best_score, scores, keys)
        return self.improved

    def annotate(self, span) -> None:
        """The last generation's counters and convergence telemetry."""
        obs.add("ga.crossovers", self.counts[0])
        obs.add("ga.mutations", self.counts[1])
        span.set(
            best_fitness=self.best_score,
            mean_fitness=float(self.scores.mean()),
            best_makespan=self.best_ind.makespan,
            diversity=self.history.diversity[-1],
            improved=self.improved,
        )
        # The share of rows meeting the policy's constraint, if it has one.
        is_feasible = getattr(self.engine.fitness, "is_feasible", None)
        if is_feasible is not None:
            n_ok = sum(1 for ind in self.individuals if is_feasible(ind.makespan))
            span.set(feasible_fraction=n_ok / len(self.individuals))

    def finish(self, generations: int) -> tuple[Individual, float, GAHistory]:
        """The incumbent, its score and the history."""
        return self.best_ind, self.best_score, self.history


class _NativeGenerations:
    """The paper's configuration as one ``ga_run_step`` call per
    generation (:class:`~repro.ga.popeval.NativeRun`).

    The history stays in the run's arrays until :meth:`finish`; only an
    improvement builds a :class:`Chromosome` here, which the history then
    repeats while that incumbent stands.
    """

    def __init__(self, engine, evaluator, policy, orders, procs) -> None:
        params = engine.params
        fitness = engine.fitness
        self.problem = evaluator.problem
        self.run = NativeRun(
            evaluator,
            engine._rng,
            policy,
            getattr(fitness, "bound", 0.0),
            getattr(fitness, "limit", 0.0),
            orders,
            procs,
            params.crossover_prob,
            params.mutation_prob,
            params.max_iterations,
        )
        self.pop = orders.shape[0]
        self.generation = 0
        self.run.step(0)
        self.incumbents = [self._incumbent()]

    def _incumbent(self) -> Chromosome:
        return Chromosome(self.run.best_order.copy(), self.run.best_proc.copy())

    def step(self, generation: int) -> bool:
        """One generation; True when the incumbent improved."""
        self.generation = generation
        improved = self.run.step(generation)
        if improved:
            self.incumbents.append(self._incumbent())
        return improved

    def annotate(self, span) -> None:
        """The last generation's counters and convergence telemetry."""
        improved, n_crossovers, n_mutations, n_feasible = self.run.stats
        obs.add("ga.crossovers", n_crossovers)
        obs.add("ga.mutations", n_mutations)
        best, makespan, _, mean, diversity, _ = self.run.hist[
            :, self.generation
        ].tolist()
        span.set(
            best_fitness=best,
            mean_fitness=mean,
            best_makespan=makespan,
            diversity=diversity,
            improved=bool(improved),
        )
        if n_feasible >= 0:
            span.set(feasible_fraction=n_feasible / self.pop)

    def finish(self, generations: int) -> tuple[Individual, float, GAHistory]:
        """The incumbent, its score and the history."""
        best, makespan, slack, mean, diversity, index = self.run.hist[
            :, : generations + 1
        ].tolist()
        history = GAHistory(
            best_fitness=best,
            best_makespan=makespan,
            best_slack=slack,
            mean_fitness=mean,
            diversity=diversity,
            best_chromosomes=[self.incumbents[int(k)] for k in index],
        )
        best_ind = Individual(
            self.incumbents[-1], None, makespan[-1], slack[-1], problem=self.problem
        )
        return best_ind, best[-1], history


#: ``GeneticScheduler`` policies the native step computes, by exact type.
_NATIVE_POLICIES = {
    MakespanFitness: "makespan",
    SlackFitness: "slack",
    EpsilonConstraintFitness: "epsilon",
}
