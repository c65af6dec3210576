"""Algo-grid experiment: the scheduler catalogue × graph families.

Sweeps every named combination of the component algebra
(:data:`repro.algebra.CATALOGUE`) over instances drawn from several
graph families — the paper's random layered DAGs plus the structured
HEFT-literature workloads (Gaussian elimination, FFT, fork-join) — and
ranks the combinations two ways:

* **makespan** — mean ratio of a combination's expected makespan to the
  best combination's on the same instance (1.0 = always best);
* **robustness** — instance-mean R1 / R2 from the paper's Monte-Carlo
  assessor (:func:`repro.robustness.assess_robustness`), so the cheap
  recombined heuristics are directly comparable to the robust GA's
  numbers.

Each (family, instance) is one cell of
:func:`~repro.experiments.grid.run_grid`.  Every random stream is
an ``algo_grid.*`` stream of :data:`repro.utils.rng.STREAM_ROLES` rooted
at the seed, so the sweep never collides with the other experiments'
streams and results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algebra.catalogue import CATALOGUE, component_scheduler
from repro.cluster import TaskSpec
from repro.experiments.config import R1_CAP
from repro.experiments.grid import run_grid
from repro.experiments.runner import capped
from repro.graph.generator import DagParams, random_dag
from repro.graph.taskgraph import TaskGraph
from repro.graph.workflows import fft, fork_join, gaussian_elimination
from repro.core.problem import SchedulingProblem
from repro.platform.etc import EtcParams, generate_etc
from repro.platform.platform import Platform
from repro.platform.uncertainty import (
    UncertaintyModel,
    UncertaintyParams,
    generate_ul,
)
from repro.robustness.montecarlo import assess_robustness
from repro.utils.rng import role_stream
from repro.utils.tables import format_table

__all__ = [
    "FAMILIES",
    "AlgoOutcome",
    "AlgoGridResults",
    "run_algo_grid",
    "family_graph",
]

#: Graph families the grid sweeps by default.
FAMILIES = ("layered", "gauss", "fft", "forkjoin")


def family_graph(
    family: str, n_tasks: int, rng: np.random.Generator
) -> TaskGraph:
    """An approximately *n_tasks*-task graph of the requested family.

    The structured families are deterministic given the size target (the
    rng only drives the ``layered`` family); sizes are rounded down to
    the family's nearest valid shape.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if family == "layered":
        return random_dag(DagParams(n=n_tasks), rng)
    if family == "gauss":
        # (s^2 + s - 2) / 2 tasks; largest s fitting the target.
        s = 2
        while (s + 1) ** 2 + (s + 1) - 2 <= 2 * n_tasks:
            s += 1
        return gaussian_elimination(s)
    if family == "fft":
        # (p - 1) + p * (log2(p) + 1) tasks; largest power of two fitting.
        p = 2
        while True:
            nxt = p * 2
            if (nxt - 1) + nxt * (int(math.log2(nxt)) + 1) > n_tasks:
                break
            p = nxt
        return fft(p)
    if family == "forkjoin":
        # Each stage is fork + width workers + join = width + 2 tasks.
        width = max(1, int(round(math.sqrt(n_tasks / 2.0))))
        stages = max(1, n_tasks // (width + 2))
        return fork_join(stages, width)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def _make_instance(
    family: str,
    fam_idx: int,
    index: int,
    seed: int,
    n_tasks: int,
    m: int,
    mean_ul: float,
) -> SchedulingProblem:
    """Instance *index* of one family pool (the ``algo_grid.instance`` streams)."""

    def stream(part: int) -> np.random.Generator:
        return role_stream(seed, "algo_grid.instance", fam_idx, index, part)

    graph = family_graph(family, n_tasks, stream(0))
    bcet = generate_etc(graph.n, m, EtcParams(), stream(1))
    ul = generate_ul(
        graph.n, m, UncertaintyParams(mean_ul=mean_ul), stream(2)
    )
    return SchedulingProblem(
        graph=graph,
        platform=Platform(m),
        uncertainty=UncertaintyModel(bcet, ul),
        name=f"algo-{family}-UL{mean_ul:g}-inst{index}",
    )


@dataclass(frozen=True)
class AlgoOutcome:
    """One grid cell: (family, instance, combination) assessed."""

    family: str
    instance: int
    combo: str
    n_tasks: int
    expected_makespan: float
    mean_makespan: float
    avg_slack: float
    miss_rate: float
    r1: float
    r2: float


def _instance_cells(
    family: str,
    fam_idx: int,
    index: int,
    seed: int,
    n_tasks: int,
    m: int,
    mean_ul: float,
    combos: tuple[str, ...],
    n_realizations: int,
) -> list[AlgoOutcome]:
    """All combination cells of one (family, instance).

    Each combination's Monte-Carlo stream folds in its position in the
    *combos* tuple (``algo_grid.mc``), so cells are independent of evaluation
    order and of which other combinations are requested before it.
    """
    problem = _make_instance(
        family, fam_idx, index, seed, n_tasks, m, mean_ul
    )
    outcomes: list[AlgoOutcome] = []
    for combo_idx, combo in enumerate(combos):
        schedule = component_scheduler(combo).schedule(problem)
        mc_rng = role_stream(seed, "algo_grid.mc", fam_idx, index, combo_idx)
        report = assess_robustness(schedule, n_realizations, mc_rng)
        outcomes.append(
            AlgoOutcome(
                family=family,
                instance=index,
                combo=combo,
                n_tasks=problem.n,
                expected_makespan=float(report.expected_makespan),
                mean_makespan=float(report.mean_makespan),
                avg_slack=float(report.avg_slack),
                miss_rate=float(report.miss_rate),
                r1=float(report.r1),
                r2=float(report.r2),
            )
        )
    return outcomes


@dataclass(frozen=True)
class AlgoGridResults:
    """All raw cells of one algo-grid run."""

    seed: int
    families: tuple[str, ...]
    combos: tuple[str, ...]
    n_instances: int
    n_tasks: int
    m: int
    mean_ul: float
    n_realizations: int
    outcomes: list[AlgoOutcome]

    def cells(self, combo: str) -> list[AlgoOutcome]:
        """Every (family, instance) outcome of one combination."""
        return [o for o in self.outcomes if o.combo == combo]

    def ranking(self, by: str = "makespan") -> list[tuple[str, float]]:
        """Combinations ranked best-first by one criterion.

        ``makespan`` scores each combination by the mean, over grid
        cells, of its expected makespan divided by the best
        combination's on the same cell (1.0 = always best; lower is
        better).  ``r1`` / ``r2`` score by the instance-mean robustness
        with infinite values capped at ``R1_CAP`` (higher is better).
        """
        if by == "makespan":
            best: dict[tuple[str, int], float] = {}
            for o in self.outcomes:
                key = (o.family, o.instance)
                if key not in best or o.expected_makespan < best[key]:
                    best[key] = o.expected_makespan
            scores = [
                (
                    combo,
                    float(
                        np.mean([
                            o.expected_makespan / best[(o.family, o.instance)]
                            for o in self.cells(combo)
                        ])
                    ),
                )
                for combo in self.combos
            ]
            scores.sort(key=lambda kv: (kv[1], kv[0]))
            return scores
        if by in ("r1", "r2"):
            scores = [
                (
                    combo,
                    float(
                        np.mean([
                            capped(getattr(o, by), R1_CAP)
                            for o in self.cells(combo)
                        ])
                    ),
                )
                for combo in self.combos
            ]
            scores.sort(key=lambda kv: (-kv[1], kv[0]))
            return scores
        raise ValueError(
            f"unknown ranking criterion {by!r}; choose makespan, r1 or r2"
        )

    def to_table(self, by: str = "makespan") -> str:
        """Ranked summary, one row per combination."""
        rows = []
        for position, (combo, score) in enumerate(self.ranking(by), 1):
            cells = self.cells(combo)
            rows.append([
                position,
                combo,
                score if by == "makespan"
                else float(np.mean([o.expected_makespan for o in cells])),
                float(np.mean([o.mean_makespan for o in cells])),
                float(np.mean([o.avg_slack for o in cells])),
                float(np.mean([o.miss_rate for o in cells])),
                float(np.mean([capped(o.r1, R1_CAP) for o in cells])),
                float(np.mean([capped(o.r2, R1_CAP) for o in cells])),
            ])
        head = "M ratio" if by == "makespan" else "mean M0"
        return format_table(
            ["#", "combo", head, "mean M", "slack", "miss", "R1", "R2"],
            rows,
            title=(
                f"algo grid by {by}  ({len(self.families)} families x "
                f"{self.n_instances} instances, ~{self.n_tasks} tasks, "
                f"m={self.m}, UL={self.mean_ul:g}, "
                f"N={self.n_realizations})"
            ),
        )


def run_algo_grid(
    *,
    seed: int = 42,
    combos: tuple[str, ...] | None = None,
    families: tuple[str, ...] = FAMILIES,
    n_instances: int = 3,
    n_tasks: int = 50,
    m: int = 4,
    mean_ul: float = 2.0,
    n_realizations: int = 200,
    n_jobs: int = 1,
    progress=None,
) -> AlgoGridResults:
    """Assess every (family, instance, combination) cell of the grid.

    Parameters
    ----------
    seed:
        Root entropy of every ``algo_grid.*`` stream.
    combos:
        Catalogue names to sweep (default: the whole catalogue, in
        catalogue order).
    families:
        Graph families (see :data:`FAMILIES`).
    n_instances:
        Instances per family.
    n_tasks:
        Approximate tasks per instance (families round to valid shapes).
    m:
        Processors.
    mean_ul:
        Scenario-average uncertainty level.
    n_realizations:
        Monte-Carlo realizations per cell.
    n_jobs:
        Worker processes (1 = in-process); results are bit-identical
        for any value.
    progress:
        Optional ``progress(msg)`` callable.
    """
    combos = tuple(combos) if combos is not None else tuple(CATALOGUE)
    if not combos:
        raise ValueError("need at least one combination")
    for combo in combos:
        if combo not in CATALOGUE:
            raise ValueError(
                f"unknown combination {combo!r}; "
                f"choose from {tuple(CATALOGUE)}"
            )
    families = tuple(families)
    if not families:
        raise ValueError("need at least one family")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; choose from {FAMILIES}"
            )
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")

    specs = [
        TaskSpec(
            key=f"algo/{family}/instance={i}",
            fn=_instance_cells,
            args=(
                family,
                fam_idx,
                i,
                seed,
                n_tasks,
                m,
                mean_ul,
                combos,
                n_realizations,
            ),
        )
        for fam_idx, family in enumerate(families)
        for i in range(n_instances)
    ]
    outcomes = [
        o
        for cell in run_grid(specs, n_jobs=n_jobs, progress=progress)
        for o in cell
    ]
    outcomes.sort(key=lambda o: (o.family, o.instance, o.combo))
    return AlgoGridResults(
        seed=seed,
        families=families,
        combos=combos,
        n_instances=n_instances,
        n_tasks=n_tasks,
        m=m,
        mean_ul=float(mean_ul),
        n_realizations=n_realizations,
        outcomes=outcomes,
    )
