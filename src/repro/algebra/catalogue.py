"""The named scheduler catalogue: every combination served and swept.

``CATALOGUE`` maps a stable name to the :class:`Components` tuple it
runs.  The first four entries are HEFT, CPOP, PEFT and min-min, which
:mod:`repro.heuristics` builds under its class-style names (outputs
pinned by ``tests/property/heuristics_golden.json``); the rest recombine
the axes into new schedulers that cost zero additional implementation.
Every entry is

* runnable via ``repro algo-grid`` (:mod:`repro.experiments.algo_grid`),
* servable as a fast-tier solver in :mod:`repro.service` (the extras are
  exported as :data:`ALGEBRA_SOLVERS` and appended to the protocol's
  solver table), and
* constructible with :func:`component_scheduler`.
"""

from __future__ import annotations

from repro.algebra.components import Components
from repro.algebra.scheduler import ComponentScheduler

__all__ = [
    "CATALOGUE",
    "LEGACY_EQUIVALENTS",
    "ALGEBRA_SOLVERS",
    "catalogue",
    "component_scheduler",
]

#: name -> component tuple.  Insertion order is the canonical sweep order.
CATALOGUE: dict[str, Components] = {
    # -- the four classic schedulers ----------------------------------- #
    "heft": Components("upward", "eft", "insertion", "static"),
    "cpop": Components("cp", "pinned", "insertion", "ready"),
    "peft": Components("oct", "oct", "insertion", "ready"),
    # The greedy orders ignore the ranking; "upward" is just a valid
    # placeholder for min-min's ranking slot.
    "minmin": Components("upward", "eft", "insertion", "greedy-eft"),
    # -- recombinations ------------------------------------------------ #
    "heft-append": Components("upward", "eft", "append", "static"),
    "heft-greedy": Components("upward", "greedy", "insertion", "static"),
    "heft-lookahead": Components("upward", "lookahead", "insertion", "static"),
    "heft-q90": Components("upward", "padded", "insertion", "static", q=0.9),
    "heft-ready": Components("upward", "eft", "insertion", "ready"),
    "blevel-eft": Components("blevel", "eft", "insertion", "static"),
    "blevel-append": Components("blevel", "eft", "append", "static"),
    "cpop-append": Components("cp", "pinned", "append", "ready"),
    "cpop-unpinned": Components("cp", "eft", "insertion", "ready"),
    "peft-append": Components("oct", "oct", "append", "ready"),
    "peft-eft": Components("oct", "eft", "insertion", "ready"),
    "peft-lookahead": Components("oct", "lookahead", "insertion", "ready"),
    "minmin-append": Components("upward", "eft", "append", "greedy-eft"),
    "maxmin": Components("upward", "eft", "insertion", "greedy-maxeft"),
    "random-eft": Components("random", "eft", "insertion", "ready"),
    "random-append": Components("random", "eft", "append", "ready"),
}

#: The classic schedulers' entries, also built by names in repro.heuristics.
LEGACY_EQUIVALENTS = ("heft", "cpop", "peft", "minmin")

#: New solver names contributed to ``repro.service``'s fast tier — the
#: catalogue minus the classic names the protocol already lists.
ALGEBRA_SOLVERS: tuple[str, ...] = tuple(
    name for name in CATALOGUE if name not in LEGACY_EQUIVALENTS
)


def catalogue() -> dict[str, Components]:
    """A copy of the named catalogue (mutation-safe)."""
    return dict(CATALOGUE)


def component_scheduler(name: str) -> ComponentScheduler:
    """Build the catalogue scheduler registered under *name*."""
    try:
        comps = CATALOGUE[name]
    except KeyError:
        raise KeyError(
            f"unknown catalogue scheduler {name!r}; "
            f"choose from {tuple(CATALOGUE)}"
        ) from None
    return ComponentScheduler(comps, name=name)
