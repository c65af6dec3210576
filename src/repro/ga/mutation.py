"""Topological-window mutation (paper Sec. 4.2.6).

The operator picks a task ``v`` uniformly, computes the legal window of
positions it may occupy in the scheduling string — strictly after the last
of its immediate predecessors and strictly before the first of its
immediate successors — moves it to a uniformly drawn position inside that
window, and finally assigns ``v`` a uniformly drawn (possibly new)
processor.  The result is always a valid topological order, because only
*immediate* neighbours can bound ``v``'s legal positions: any transitive
predecessor precedes some immediate predecessor, hence the window.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.ga.chromosome import Chromosome
from repro.utils.rng import as_generator

__all__ = ["legal_window", "move_task", "mutate", "mutate_row"]


def legal_window(
    problem: SchedulingProblem, order: np.ndarray, task: int
) -> tuple[int, int]:
    """Legal insertion window ``[lo, hi]`` for *task* in the string *order*.

    Positions refer to the string *with the task removed*: inserting the
    task at any index in ``[lo, hi]`` of that reduced string yields a valid
    topological order.  ``lo`` is (last predecessor position in the reduced
    string) + 1; ``hi`` is the first successor position (insertion at index
    ``hi`` lands just before the successor).
    """
    return _window(problem, _positions(order), task)


def _positions(order: np.ndarray) -> np.ndarray:
    """Inverse permutation: the position of every task in *order*."""
    position = np.empty(order.shape[0], dtype=np.int64)
    position[order] = np.arange(order.shape[0])
    return position


def _window(
    problem: SchedulingProblem, position: np.ndarray, task: int
) -> tuple[int, int]:
    """:func:`legal_window` from the string's task positions."""
    graph = problem.graph
    n = graph.n
    pos_v = int(position[task])

    def reduced(p: int) -> int:
        """Position in the string with *task* removed."""
        return p - 1 if p > pos_v else p

    lo = 0
    for u in graph.predecessors(task):
        lo = max(lo, reduced(int(position[u])) + 1)
    hi = n - 1  # reduced string has n-1 entries; valid insertion index range is [0, n-1]
    for w in graph.successors(task):
        hi = min(hi, reduced(int(position[w])))
    assert lo <= hi, "topological input guarantees a non-empty window"
    return lo, hi


def move_task(
    problem: SchedulingProblem, order: np.ndarray, rng: np.random.Generator
) -> int:
    """Move a uniformly drawn task to a uniformly drawn position of its
    legal window, in place; return the task.

    The tasks between its old and new positions shift by one, which is
    the string with the task removed and re-inserted at the drawn index.
    """
    task = int(rng.integers(order.shape[0]))
    position = _positions(order)
    lo, hi = _window(problem, position, task)
    insert_at = int(rng.integers(lo, hi + 1))
    at = int(position[task])
    if insert_at > at:
        order[at:insert_at] = order[at + 1 : insert_at + 1]
    elif insert_at < at:
        order[insert_at + 1 : at + 1] = order[insert_at:at]
    order[insert_at] = task
    return task


def mutate_row(
    problem: SchedulingProblem,
    order: np.ndarray,
    proc_of: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """:func:`mutate` applied in place to one population row."""
    task = move_task(problem, order, rng)
    proc_of[task] = int(rng.integers(problem.m))


def mutate(
    problem: SchedulingProblem,
    chromosome: Chromosome,
    rng: np.random.Generator | int | None = None,
) -> Chromosome:
    """Apply one mutation, returning a new chromosome.

    The input chromosome's scheduling string must be a valid topological
    order (operators preserve this invariant end-to-end).
    """
    order = chromosome.order.copy()
    proc_of = chromosome.proc_of.copy()
    mutate_row(problem, order, proc_of, as_generator(rng))
    return Chromosome(order=order, proc_of=proc_of)
