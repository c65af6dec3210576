"""Alternative GA operators (operator-ablation material).

All variants preserve the chromosome invariants (scheduling string is a
topological order; processor map in range), provably:

* :func:`uniform_processor_crossover` never touches the order strings;
* :func:`adjacent_swap_mutation` swaps two *adjacent* tasks only when no
  edge joins them — the only local exchange that can violate a topological
  order is across an edge;
* :func:`rebalance_mutation` is the window mutation with the target
  processor chosen by load instead of uniformly.

Plug into :class:`~repro.ga.engine.GeneticScheduler` via its
``crossover_fn`` / ``mutation_fn`` parameters.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.ga.crossover import order_crossover
from repro.ga.mutation import move_task
from repro.utils.rng import as_generator

__all__ = [
    "uniform_processor_crossover",
    "order_only_crossover",
    "adjacent_swap_mutation",
    "rebalance_mutation",
]


def uniform_processor_crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    rng: np.random.Generator | int | None = None,
) -> tuple[Chromosome, Chromosome]:
    """Per-task uniform exchange of processor assignments; orders kept.

    Child 1 takes each task's processor from a uniformly chosen parent,
    child 2 takes the complementary choice.
    """
    gen = as_generator(rng)
    n = parent_a.n
    if parent_b.n != n:
        raise ValueError("parents must encode the same number of tasks")
    take_a = gen.random(n) < 0.5
    proc_1 = np.where(take_a, parent_a.proc_of, parent_b.proc_of)
    proc_2 = np.where(take_a, parent_b.proc_of, parent_a.proc_of)
    return (
        Chromosome(order=parent_a.order, proc_of=proc_1),
        Chromosome(order=parent_b.order, proc_of=proc_2),
    )


def order_only_crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    rng: np.random.Generator | int | None = None,
) -> tuple[Chromosome, Chromosome]:
    """The paper's scheduling-string crossover with processor maps inherited
    unchanged — isolates the effect of execution-order mixing."""
    gen = as_generator(rng)
    n = parent_a.n
    if parent_b.n != n:
        raise ValueError("parents must encode the same number of tasks")
    if n < 2:
        return parent_a, parent_b
    cut = int(gen.integers(1, n))
    order_1, order_2 = order_crossover(parent_a.order, parent_b.order, cut)
    return (
        Chromosome(order=order_1, proc_of=parent_a.proc_of),
        Chromosome(order=order_2, proc_of=parent_b.proc_of),
    )


def adjacent_swap_mutation(
    problem: SchedulingProblem,
    chromosome: Chromosome,
    rng: np.random.Generator | int | None = None,
) -> Chromosome:
    """Swap a random adjacent, non-dependent pair in the scheduling string.

    Falls back to returning the chromosome unchanged when every adjacent
    pair is joined by an edge (e.g. a pure chain).  The processor map is
    untouched, so this is the finest-grained order move available.
    """
    gen = as_generator(rng)
    n = chromosome.n
    if n < 2:
        return chromosome
    graph = problem.graph
    start = int(gen.integers(n - 1))
    for offset in range(n - 1):
        i = (start + offset) % (n - 1)
        u, v = int(chromosome.order[i]), int(chromosome.order[i + 1])
        if not graph.has_edge(u, v):
            new_order = chromosome.order.copy()
            new_order[i], new_order[i + 1] = v, u
            return Chromosome(order=new_order, proc_of=chromosome.proc_of)
    return chromosome


def rebalance_mutation(
    problem: SchedulingProblem,
    chromosome: Chromosome,
    rng: np.random.Generator | int | None = None,
) -> Chromosome:
    """Window mutation that moves a task to the least-loaded processor.

    Load = total expected execution time currently assigned.  The moved
    task's position is re-drawn inside its legal window like the paper's
    operator; only the processor choice is greedy.
    """
    new_order = chromosome.order.copy()
    task = move_task(problem, new_order, as_generator(rng))

    times = problem.expected_times
    idx = np.arange(chromosome.n)
    load = np.zeros(problem.m, dtype=np.float64)
    np.add.at(load, chromosome.proc_of, times[idx, chromosome.proc_of])
    # Remove the task's own contribution before choosing its new home.
    load[chromosome.proc_of[task]] -= times[task, chromosome.proc_of[task]]
    target = int(np.argmin(load + times[task]))

    new_proc = chromosome.proc_of.copy()
    new_proc[task] = target
    return Chromosome(order=new_order, proc_of=new_proc)
