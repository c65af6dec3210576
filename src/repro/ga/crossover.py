"""Single-point precedence-preserving crossover (paper Sec. 4.2.5).

Scheduling strings: a cut position splits both parents' strings into left
and right parts.  Each offspring keeps its own left part and *reorders its
own right-part tasks by their relative positions in the other parent's
string*.  Since both parents are topological sorts, so are the offspring
(classic result: the left prefix is order-consistent with parent 1, the
right suffix with parent 2, and no right-part task can precede a left-part
task it depends on because parent 1 already ordered them).

Processor strings: an independent cut over *task ids* swaps the tails of
the two parents' processor maps (the paper converts assignment strings to
per-task processor strings, exchanges right parts, and converts back —
identical effect).
"""

from __future__ import annotations

import numpy as np

from repro.ga.chromosome import Chromosome
from repro.utils.rng import as_generator

__all__ = [
    "single_point_crossover",
    "order_crossover",
    "processor_crossover",
    "crossover_rows",
]


def order_crossover(
    order_a: np.ndarray, order_b: np.ndarray, cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cross two scheduling strings at position *cut* (1 <= cut <= n-1).

    Returns the two offspring orders.
    """
    n = order_a.shape[0]
    if not (1 <= cut <= n - 1):
        raise ValueError(f"cut must be in [1, {n - 1}], got {cut}")
    children = np.stack([order_a, order_b])
    _cross_orders(children, np.stack([order_b, order_a]), np.full(2, cut))
    return children[0], children[1]


def _cross_orders(keep: np.ndarray, donor: np.ndarray, cut: np.ndarray) -> None:
    """In place: row ``k`` of *keep* keeps its tasks before ``cut[k]``;
    the rest follow in the order ``donor[k]`` gives them."""
    k, n = keep.shape
    cols = np.arange(n)
    cut = cut[:, None]
    # A task belongs to the right part when the kept string places it at
    # or after the cut.  ``pos`` holds every kept string's inverse
    # permutation, rows flattened.
    row_base = (np.arange(k) * n)[:, None]
    pos = np.empty(k * n, dtype=np.int64)
    pos[row_base + keep] = cols
    keep[cols >= cut] = donor[pos[row_base + donor] >= cut]


def processor_crossover(
    proc_a: np.ndarray, proc_b: np.ndarray, cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """Swap the task-id tails of two processor maps at position *cut*."""
    n = proc_a.shape[0]
    if not (1 <= cut <= n - 1):
        raise ValueError(f"cut must be in [1, {n - 1}], got {cut}")
    child_a = np.concatenate([proc_a[:cut], proc_b[cut:]])
    child_b = np.concatenate([proc_b[:cut], proc_a[cut:]])
    return child_a, child_b


def single_point_crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    rng: np.random.Generator | int | None = None,
) -> tuple[Chromosome, Chromosome]:
    """Produce two offspring from two parents.

    Independent uniform cut points are drawn for the scheduling strings and
    the processor strings.  For single-task graphs the parents are returned
    unchanged (no legal cut exists).
    """
    gen = as_generator(rng)
    n = parent_a.n
    if parent_b.n != n:
        raise ValueError("parents must encode the same number of tasks")
    if n < 2:
        return parent_a, parent_b

    cut_order = int(gen.integers(1, n))
    cut_proc = int(gen.integers(1, n))
    order_a, order_b = order_crossover(parent_a.order, parent_b.order, cut_order)
    proc_a, proc_b = processor_crossover(parent_a.proc_of, parent_b.proc_of, cut_proc)
    return (
        Chromosome(order=order_a, proc_of=proc_a),
        Chromosome(order=order_b, proc_of=proc_b),
    )


def crossover_rows(
    orders: np.ndarray,
    procs: np.ndarray,
    partner: np.ndarray,
    cut_order: np.ndarray,
    cut_proc: np.ndarray,
) -> None:
    """:func:`single_point_crossover` over a whole population, in place.

    Row ``k`` becomes the child that keeps row ``k`` up to the cuts
    ``cut_order[k]`` / ``cut_proc[k]`` and takes the rest from row
    ``partner[k]`` — exactly what :func:`order_crossover` and
    :func:`processor_crossover` build for one parent pair.  Two rows that
    are each other's partner with equal cuts become that pair's two
    children; a cut equal to the row length leaves a row unchanged.
    """
    donor_order = orders[partner]
    donor_proc = procs[partner]
    _cross_orders(orders, donor_order, cut_order)
    right = np.arange(procs.shape[1]) >= cut_proc[:, None]
    procs[right] = donor_proc[right]
