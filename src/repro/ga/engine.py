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
for the whole run.  Each generation writes its children in place into a
second pair of buffers, then evaluates the distinct rows it has not seen
before in one validated call of a
:class:`~repro.ga.popeval.PopulationEvaluator` bound once per run.  With
the paper's operators and the native library loaded (the same choice as
for the evaluation kernel), selection and variation are one C call
(:meth:`~repro.ga.popeval.PopulationEvaluator.next_generation`) that
draws the same numbers from the run's Generator.  Otherwise
:func:`~repro.ga.selection.binary_tournament` and
:meth:`GeneticScheduler._next_generation` run them — the paper's
crossover batched over all crossing pairs, mutation row by row, with the
same random draws in the same order as the chromosome operators — and
they stay the reference the C step is tested against.
:class:`Chromosome` objects are built only where something reads one:
the incumbent recorded in :class:`GAHistory`, the returned best, fitness
policies that inspect ``Individual.chromosome``, and operator overrides
(``crossover_fn`` / ``mutation_fn``), which receive copies of their rows.
Whatever outlives a generation — cache entries, the history, the result
— owns its rows, because the buffers are reused.
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
from repro.ga.fitness import FitnessPolicy, Individual
from repro.ga.mutation import mutate, mutate_row
from repro.ga.popeval import PopulationEvaluator
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

    def _feasible_fraction(self, individuals: list[Individual]) -> float | None:
        """Fraction of the population satisfying the fitness policy's
        constraint, when it has one (``is_feasible``); ``None`` otherwise."""
        is_feasible = getattr(self.fitness, "is_feasible", None)
        if is_feasible is None or not individuals:
            return None
        n_ok = sum(1 for ind in individuals if is_feasible(ind.makespan))
        return n_ok / len(individuals)

    def run(
        self,
        problem: SchedulingProblem,
        *,
        heft_schedule: Schedule | None = None,
    ) -> GAResult:
        """Evolve schedules for *problem* and return the best found.

        The population lives in two ``(Np, n)`` arrays — scheduling
        strings and processor maps — for the whole run; each generation
        writes its children into a second pair of buffers and evaluates
        them in one population-kernel call.  ``heft_schedule`` is
        *problem*'s HEFT schedule when the caller already has it; the
        HEFT seed is then encoded from it instead of running HEFT again.
        """
        params = self.params
        cache: dict[bytes, Individual] = {}
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
            individuals, keys = self._evaluate_batch(
                evaluator, orders, procs, cache
            )
            scores = self.fitness.scores(individuals)

            best_idx = int(np.argmax(scores))
            best_ind = individuals[best_idx]
            best_key = keys[best_idx]
            best_score = float(scores[best_idx])

            history = GAHistory()
            history.record(best_ind, best_score, scores, keys)

            child_orders = np.empty_like(orders)
            child_procs = np.empty_like(procs)
            stagnation = 0
            generations = 0
            stop_reason = "max_iterations"
            for _ in range(params.max_iterations):
                generations += 1

                with obs.trace("ga.generation", gen=generations) as gen_span:
                    n_crossovers, n_mutations = self._vary(
                        evaluator, scores, orders, procs, child_orders, child_procs
                    )
                    individuals, keys = self._evaluate_batch(
                        evaluator, child_orders, child_procs, cache
                    )
                    scores = self.fitness.scores(individuals)

                    # Elitism: worst of the new generation is replaced by the
                    # incumbent best (Sec. 4.2.3), then population-based
                    # fitness is refreshed because the replacement may shift
                    # the feasible set.
                    worst = int(np.argmin(scores))
                    elite = best_ind.chromosome
                    child_orders[worst] = elite.order
                    child_procs[worst] = elite.proc_of
                    individuals[worst] = best_ind
                    keys[worst] = best_key
                    scores = self.fitness.scores(individuals)

                    orders, child_orders = child_orders, orders
                    procs, child_procs = child_procs, procs

                    gen_best = int(np.argmax(scores))
                    gen_best_score = float(scores[gen_best])
                    # A relative margin above the incumbent: scaling a
                    # negative score by (1 + 1e-12) would lower the bar.
                    margin = 1.0 + 1e-12 if best_score >= 0.0 else 1.0 - 1e-12
                    improved = gen_best_score > best_score * margin or (
                        best_score <= 0.0 and gen_best_score > best_score + 1e-15
                    )
                    if improved:
                        best_ind = individuals[gen_best]
                        best_key = keys[gen_best]
                        best_score = gen_best_score
                        stagnation = 0
                    else:
                        stagnation += 1

                    history.record(best_ind, best_score, scores, keys)

                    if obs.enabled():
                        obs.add("ga.crossovers", n_crossovers)
                        obs.add("ga.mutations", n_mutations)
                        # Convergence telemetry rides on the generation span.
                        gen_span.set(
                            best_fitness=best_score,
                            mean_fitness=float(scores.mean()),
                            best_makespan=best_ind.makespan,
                            diversity=history.diversity[-1],
                            improved=improved,
                        )
                        frac = self._feasible_fraction(individuals)
                        if frac is not None:
                            gen_span.set(feasible_fraction=frac)

                if stagnation >= params.stagnation_limit:
                    stop_reason = "stagnation"
                    break

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
