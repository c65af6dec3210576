"""Hypothesis strategies for graphs, problems and schedules."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.problem import SchedulingProblem
from repro.graph.taskgraph import TaskGraph
from repro.graph.topology import random_topological_order
from repro.platform.platform import Platform
from repro.platform.trgen import generate_transfer_rates
from repro.platform.uncertainty import UncertaintyModel
from repro.schedule.schedule import Schedule


@st.composite
def task_graphs(draw, min_n: int = 1, max_n: int = 10) -> TaskGraph:
    """Arbitrary DAGs: edges drawn from the upper-triangular pair set.

    Node ids are ordered, so any subset of ``u < v`` pairs is acyclic —
    shrinkage stays within valid inputs.
    """
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 25))
        )
    else:
        edges = []
    data_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(data_seed)
    data = rng.uniform(0.0, 10.0, size=len(edges))
    return TaskGraph(n, edges, data)


@st.composite
def problems(draw, min_n: int = 1, max_n: int = 10, max_m: int = 3) -> SchedulingProblem:
    """Scheduling problems over arbitrary DAGs with random times and ULs.

    Transfer rates are unit or gamma-distributed: non-unit rates make the
    communication costs inexact products, which is where a fused
    multiply-add in a kernel would part from the numpy reference.
    """
    graph = draw(task_graphs(min_n=min_n, max_n=max_n))
    m = draw(st.integers(1, max_m))
    seed = draw(st.integers(0, 2**31 - 1))
    rate_seed = draw(st.none() | st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    bcet = rng.uniform(0.5, 20.0, size=(graph.n, m))
    ul = rng.uniform(1.0, 5.0, size=(graph.n, m))
    rates = None if rate_seed is None else generate_transfer_rates(m, rng=rate_seed)
    return SchedulingProblem(
        graph=graph,
        platform=Platform(m, rates),
        uncertainty=UncertaintyModel(bcet, ul),
        name="hypothesis",
    )


@st.composite
def scheduled_problems(draw, **kwargs) -> tuple[SchedulingProblem, Schedule]:
    """A problem together with one random valid schedule for it."""
    problem = draw(problems(**kwargs))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = random_topological_order(problem.graph, rng)
    proc_of = rng.integers(problem.m, size=problem.n)
    return problem, Schedule.from_assignment(problem, order, proc_of)
