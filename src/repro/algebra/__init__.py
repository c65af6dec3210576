"""repro.algebra — the composable list-scheduling algebra.

Factors list scheduling into four independently pluggable axes —
priority **ranking** × processor **selection** × **insertion** policy ×
placement **order** (tie-breaking / lookahead) — per the decomposition
of "Parameterized Task Graph Scheduling Algorithm for Comparing
Algorithmic Components" (arXiv 2403.07112).  A :class:`Components`
tuple names one point of the grid; :class:`ComponentScheduler`, the
library's one list scheduler, runs it; :data:`CATALOGUE` names the
served combinations.  :func:`~repro.heuristics.HeftScheduler`,
:func:`~repro.heuristics.CpopScheduler`,
:func:`~repro.heuristics.PeftScheduler` and
:func:`~repro.heuristics.MinMinScheduler` build its first four entries,
and :func:`~repro.heuristics.QuantileHeftScheduler` a ``padded`` point
(outputs pinned by ``tests/property/heuristics_golden.json``).

>>> from repro.algebra import Components, ComponentScheduler
>>> ComponentScheduler(Components("upward", "eft", "append", "static"))
ComponentScheduler(...)

See ``docs/algorithms.md`` for the executable component catalogue and
``repro algo-grid`` for the cross-product sweep.
"""

from repro.algebra.components import (
    INSERTIONS,
    MONOTONE_RANKINGS,
    ORDERS,
    RANKINGS,
    SELECTIONS,
    Components,
    RankContext,
    rank_context,
)
from repro.algebra.catalogue import (
    ALGEBRA_SOLVERS,
    CATALOGUE,
    LEGACY_EQUIVALENTS,
    catalogue,
    component_scheduler,
)
from repro.algebra.scheduler import ComponentScheduler

__all__ = [
    "RANKINGS",
    "SELECTIONS",
    "INSERTIONS",
    "ORDERS",
    "MONOTONE_RANKINGS",
    "Components",
    "RankContext",
    "rank_context",
    "ComponentScheduler",
    "CATALOGUE",
    "LEGACY_EQUIVALENTS",
    "ALGEBRA_SOLVERS",
    "catalogue",
    "component_scheduler",
]
