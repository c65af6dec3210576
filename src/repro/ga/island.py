"""Island-model GA (extension): multiple populations with migration.

The paper guards against premature convergence with an initial-population
uniqueness check (Sec. 4.2.2); the island model is the standard stronger
remedy — several sub-populations evolve independently and periodically
exchange their best individuals, preserving diversity far longer.  This
wrapper runs ``k`` :class:`~repro.ga.engine.GeneticScheduler` instances
in *epochs*: each epoch every island evolves for a fixed number of
generations from its current population, then the islands' elites migrate
ring-wise (island i's best replaces island i+1's worst).

Implemented on top of the engine without modifying it: between epochs the
islands are restarted with their previous final populations injected via
the ``seed_population`` hook.

The islands run as :mod:`repro.cluster` tasks: each (epoch, island)
evolution is one task whose dependencies carry the migrants — island
*i*'s epoch-*e* task depends on the epoch-*(e-1)* tasks of islands *i*
(its own population) and *i-1* (the ring migrant), so elites travel
through the scheduler, in-process (``run(problem)``, the default) or
between worker processes (``run(problem, n_jobs=k)``).  Each task owns a
stream pre-spawned from the root seed, so results are bit-identical for
any ``n_jobs``; a traced run shows the ``cluster.*`` spans either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome, random_rows
from repro.ga.engine import GAParams, GAResult, GeneticScheduler
from repro.ga.fitness import FitnessPolicy
from repro.obs import runtime as obs
from repro.utils.rng import as_generator

__all__ = ["IslandParams", "IslandResult", "IslandGeneticScheduler"]


@dataclass(frozen=True)
class IslandParams:
    """Island-model knobs.

    Attributes
    ----------
    n_islands:
        Number of sub-populations.
    epoch_generations:
        Generations each island evolves per epoch.
    epochs:
        Number of evolve-migrate rounds.
    """

    n_islands: int = 4
    epoch_generations: int = 50
    epochs: int = 5

    def __post_init__(self) -> None:
        if self.n_islands < 2:
            raise ValueError("n_islands must be >= 2")
        if self.epoch_generations < 1:
            raise ValueError("epoch_generations must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class IslandResult:
    """Outcome of an island-model run."""

    best: GAResult
    island_bests: tuple[float, ...]  # final best fitness per island
    epochs: int

    @property
    def schedule(self):
        """The overall best schedule."""
        return self.best.schedule


class _SeededEngine(GeneticScheduler):
    """Engine whose initial population is (partly) supplied by the caller."""

    def __init__(self, *args, seed_population=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seed_population: list[Chromosome] = list(seed_population or [])

    def _initial_population(self, problem: SchedulingProblem, heft_schedule):
        """The seed population, capped at ``Np``, then random rows with no
        uniqueness check (a zero budget); the engine's own population
        when there is no seed."""
        if not self._seed_population:
            return super()._initial_population(problem, heft_schedule)
        seeds = self._seed_population[: self.params.population_size]
        orders = np.empty((self.params.population_size, problem.n), dtype=np.int64)
        procs = np.empty_like(orders)
        for i, c in enumerate(seeds):
            orders[i], procs[i] = c.order, c.proc_of
        random_rows(problem, self._rng, orders, procs, len(seeds), 0)
        return orders, procs


def _elites_of(result: GAResult, pop_size: int) -> list[Chromosome]:
    """An epoch's carry-over population: per-generation bests, unique,
    most recent first, truncated to the population size."""
    seen: set[bytes] = set()
    elites: list[Chromosome] = []
    for c in reversed(result.history.best_chromosomes):
        if c.key() not in seen:
            seen.add(c.key())
            elites.append(c)
    return elites[:pop_size]


def _epoch_key(epoch: int, island: int) -> str:
    """Cluster task key of one island's epoch."""
    return f"epoch={epoch}/island={island}"


def _island_epoch_task(
    dep_results,
    fitness,
    epoch_params: GAParams,
    stream,
    problem: SchedulingProblem,
    island: int,
    n_islands: int,
    pop_size: int,
    epoch: int,
) -> dict:
    """One (epoch, island) evolution as a cluster task.

    ``dep_results`` holds the previous epoch's payloads for this island
    (its population) and its ring predecessor (the migrant); migration
    happens here, on the receiving side: the migrant, unless already
    present, goes first and the pool is truncated to the population size.
    """
    if epoch == 0:
        seed_population = None
    else:
        own = dep_results[_epoch_key(epoch - 1, island)]
        neighbor = dep_results[_epoch_key(epoch - 1, (island - 1) % n_islands)]
        pool: list[Chromosome] = list(own["elites"])
        migrant: Chromosome = neighbor["best"]
        if migrant.key() not in {c.key() for c in pool}:
            pool.insert(0, migrant)
            del pool[pop_size:]
            obs.add("ga.island.migrations")
        seed_population = pool
    # Only island 0 receives the HEFT seed, keeping the others diverse.
    params = (
        epoch_params
        if (island == 0 or seed_population is not None)
        else replace(epoch_params, seed_heft=False)
    )
    engine = _SeededEngine(
        fitness,
        params,
        stream,
        duration_matrix=None,
        seed_population=seed_population,
    )
    with obs.trace("ga.island_epoch", epoch=epoch, island=island):
        result = engine.run(problem)
    return {
        "result": result,
        "elites": _elites_of(result, pop_size),
        "best": result.best.chromosome,
    }


class IslandGeneticScheduler:
    """Multi-population GA with ring migration.

    Parameters
    ----------
    fitness:
        Shared fitness policy (each island evaluates with it).
    ga_params:
        Per-island GA hyper-parameters; ``max_iterations`` is overridden
        by the epoch length and stagnation is disabled within epochs.
    island_params:
        Island-model knobs.
    rng:
        Seed or generator; islands draw independent child streams.
    """

    name = "island-ga"

    def __init__(
        self,
        fitness: FitnessPolicy,
        ga_params: GAParams | None = None,
        island_params: IslandParams | None = None,
        rng=None,
    ) -> None:
        self.fitness = fitness
        self.ga_params = ga_params or GAParams()
        self.island_params = island_params or IslandParams()
        self._rng = as_generator(rng)

    def run(
        self,
        problem: SchedulingProblem,
        *,
        n_jobs: int = 1,
        progress=None,
    ) -> IslandResult:
        """Evolve all islands with periodic elite migration.

        One :mod:`repro.cluster` task per (epoch, island), migrants via
        its dependencies (see the module docstring).  Task
        ``epoch * n_islands + island`` draws from the stream of that
        index, pre-spawned from the root seed, so results are
        bit-identical for any ``n_jobs`` — a worker crash included,
        because the re-dispatched task is sent the same unconsumed stream.

        Parameters
        ----------
        n_jobs:
            Worker processes; ``1`` (default) runs the tasks in-process.
        progress:
            Optional ``progress(line: str)`` status callback, called as
            tasks finish.
        """
        from repro.cluster import run_tasks, TaskSpec

        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        ip = self.island_params
        pop_size = self.ga_params.population_size
        epoch_params = replace(
            self.ga_params,
            max_iterations=ip.epoch_generations,
            stagnation_limit=max(ip.epoch_generations, 1),
        )
        streams = self._rng.spawn(ip.n_islands * ip.epochs)
        specs = []
        for epoch in range(ip.epochs):
            for i in range(ip.n_islands):
                deps = (
                    ()
                    if epoch == 0
                    else (
                        _epoch_key(epoch - 1, i),
                        _epoch_key(epoch - 1, (i - 1) % ip.n_islands),
                    )
                )
                specs.append(
                    TaskSpec(
                        key=_epoch_key(epoch, i),
                        fn=_island_epoch_task,
                        args=(
                            self.fitness,
                            epoch_params,
                            streams[epoch * ip.n_islands + i],
                            problem,
                            i,
                            ip.n_islands,
                            pop_size,
                            epoch,
                        ),
                        deps=deps,
                        pass_dep_results=True,
                        max_retries=2,
                    )
                )
        outcomes = run_tasks(specs, n_workers=n_jobs, progress=progress)
        final = [
            outcomes[_epoch_key(ip.epochs - 1, i)].result["result"]
            for i in range(ip.n_islands)
        ]
        best = max(final, key=lambda r: r.best_fitness)
        return IslandResult(
            best=best,
            island_bests=tuple(r.best_fitness for r in final),
            epochs=ip.epochs,
        )

    def schedule(self, problem: SchedulingProblem):
        """Scheduler-protocol facade."""
        return self.run(problem).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IslandGeneticScheduler(islands={self.island_params.n_islands}, "
            f"epochs={self.island_params.epochs})"
        )
