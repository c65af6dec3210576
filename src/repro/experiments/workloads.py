"""Workload factory: reproducible pools of random problem instances.

Every experiment draws its instance pool through :func:`make_problems` so
that (a) the same ``(config, mean_ul)`` always yields the same instances
and (b) different uncertainty levels share the *same* graphs and BCET
matrices, isolating the effect of UL — the graph/BCET streams are derived
from the config seed only, while the UL stream additionally folds in the
level.
"""

from __future__ import annotations

from repro.core.problem import SchedulingProblem
from repro.experiments.config import ExperimentConfig
from repro.graph.generator import random_dag
from repro.platform.etc import generate_etc
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel, generate_ul
from repro.utils.rng import role_stream

__all__ = ["make_problem", "make_problems"]


def make_problem(
    config: ExperimentConfig, mean_ul: float, index: int
) -> SchedulingProblem:
    """Build instance *index* of the pool for one uncertainty level.

    Graph ``index`` and its BCET matrix are identical across different
    *mean_ul* values; only the UL matrix differs.  Each random stream is
    derived from the config seed (the ``instance.*`` streams of
    :data:`repro.utils.rng.STREAM_ROLES`), so single instances can be
    rebuilt independently (e.g. inside worker processes).
    """
    if mean_ul < 1.0:
        raise ValueError(f"mean_ul must be >= 1, got {mean_ul}")
    if not (0 <= index < config.scale.n_graphs):
        raise ValueError(
            f"index must be in [0, {config.scale.n_graphs}), got {index}"
        )
    graph_rng = role_stream(config.seed, "instance.graph", index)
    etc_rng = role_stream(config.seed, "instance.etc", index)
    # UL stream folds the level into the key (scaled to dodge float
    # collisions between e.g. 2.0 and 20.0 at different spawn depths).
    ul_key = int(round(mean_ul * 1000))
    ul_rng = role_stream(config.seed, "instance.ul", index, ul_key)

    graph = random_dag(config.dag, graph_rng, name=f"inst{index}")
    bcet = generate_etc(graph.n, config.m, config.etc, etc_rng)
    ul = generate_ul(graph.n, config.m, config.uncertainty(mean_ul), ul_rng)
    return SchedulingProblem(
        graph=graph,
        platform=Platform(config.m),
        uncertainty=UncertaintyModel(bcet, ul),
        name=f"{config.scale.name}-UL{mean_ul:g}-inst{index}",
    )


def make_problems(
    config: ExperimentConfig, mean_ul: float
) -> list[SchedulingProblem]:
    """Build the full instance pool (``config.scale.n_graphs`` problems)."""
    return [
        make_problem(config, mean_ul, i) for i in range(config.scale.n_graphs)
    ]
