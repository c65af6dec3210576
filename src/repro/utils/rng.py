"""Deterministic random-number management.

Every stochastic component in :mod:`repro` accepts either a seed-like value
or a ready-made :class:`numpy.random.Generator`.  Experiment drivers spawn
independent child generators through :class:`numpy.random.SeedSequence` so
that (a) whole experiments are reproducible from a single seed and (b) the
per-instance streams are statistically independent, which keeps results
stable when instances are later evaluated in parallel or out of order.

Every experiment stream is named in :data:`STREAM_ROLES` and built by
:func:`role_stream`, so no two experiments can draw the same numbers by
picking the same spawn key by hand.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "STREAM_ROLES",
    "as_generator",
    "role_stream",
    "spawn_generators",
    "spawn_seeds",
]

SeedLike = "int | Sequence[int] | np.random.SeedSequence | np.random.Generator | None"

#: Every experiment random stream: name -> (spawn-key role, key length).
#: A stream's spawn key is ``(role, *key)`` with ``len(key)`` fixed here,
#: so two streams can only coincide if they share a (role, length) pair,
#: which the check below forbids.  Roles 0-2 build the instances every
#: grid shares through :func:`repro.experiments.workloads.make_problem`.
STREAM_ROLES: dict[str, tuple[int, int]] = {
    "instance.graph": (0, 1),  # (index,)
    "instance.etc": (1, 1),  # (index,)
    "instance.ul": (2, 2),  # (index, ul_key)
    "eps_grid.heft_mc": (3, 2),  # (index, ul_key)
    "eps_grid.ga": (4, 3),  # (index, ul_key, eps_idx)
    "eps_grid.ga_mc": (5, 3),  # (index, ul_key, eps_idx)
    "slack_effect.ga": (6, 2),  # (index, ul_key)
    "slack_effect.mc": (7, 3),  # (index, ul_key, step_idx)
    "fault_grid.mc": (7, 4),  # (index, ul_key, scenario_idx, strategy_idx)
    "sensitivity.heft_mc": (8, 1),  # (index,)
    "sensitivity.ga": (9, 1),  # (index,)
    "sensitivity.ga_mc": (10, 1),  # (index,)
    "energy_grid.ga": (9, 4),  # (index, ul_key, eps_key, strategy_idx)
    "energy_grid.mc": (10, 4),  # (index, ul_key, eps_idx | 1000, idx)
    "algo_grid.instance": (11, 3),  # (family_idx, index, part)
    "algo_grid.mc": (12, 3),  # (family_idx, index, combo_idx)
    "fault_grid.ga": (13, 2),  # (index, ul_key)
    "zoo.annealing": (14, 2),  # (index, ul_key)
    "zoo.ga": (15, 2),  # (index, ul_key)
    "zoo.mc": (16, 2),  # (index, ul_key)
    "zoo.online_mc": (17, 2),  # (index, ul_key)
}


def _check_roles(roles: dict[str, tuple[int, int]]) -> None:
    """Raise if two streams of *roles* share a (role, key length) pair."""
    claimed: dict[tuple[int, int], str] = {}
    for name, pair in roles.items():
        if pair in claimed:
            raise RuntimeError(
                f"streams {claimed[pair]!r} and {name!r} share spawn-key "
                f"role {pair[0]} at key length {pair[1]}"
            )
        claimed[pair] = name


_check_roles(STREAM_ROLES)


def role_stream(seed: int, name: str, *key: int) -> np.random.Generator:
    """The generator of experiment stream *name* at *key*, rooted at *seed*.

    *name* must be a :data:`STREAM_ROLES` entry and *key* must have the
    length the table gives it.
    """
    role, length = STREAM_ROLES[name]
    if len(key) != length:
        raise ValueError(
            f"stream {name!r} takes a {length}-part key, got {key!r}"
        )
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(role, *key))
    )


def as_generator(
    seed: int | Sequence[int] | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an integer / sequence of integers,
        a :class:`~numpy.random.SeedSequence`, or an existing generator
        (returned unchanged so callers can share a stream).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(
    seed: int | Sequence[int] | np.random.SeedSequence | None, n: int
) -> list[np.random.SeedSequence]:
    """Spawn *n* independent child :class:`~numpy.random.SeedSequence` objects.

    Parameters
    ----------
    seed:
        Root entropy.  Passing the same value always yields the same children.
    n:
        Number of children; must be non-negative.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(n)


def spawn_generators(
    seed: int | Sequence[int] | np.random.SeedSequence | np.random.Generator | None,
    n: int,
) -> list[np.random.Generator]:
    """Spawn *n* independent generators rooted at *seed*.

    If *seed* is already a :class:`~numpy.random.Generator` the children are
    spawned from it via :meth:`numpy.random.Generator.spawn`, which keeps the
    parent usable afterwards.
    """
    if isinstance(seed, np.random.Generator):
        return seed.spawn(n)
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]
