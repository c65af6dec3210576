"""Unit tests for :mod:`repro.graph.topology`."""

import numpy as np
import pytest

from repro.graph import _native
from repro.graph.generator import DagParams, random_dag
from repro.graph.taskgraph import TaskGraph
from repro.graph.topology import (
    ancestors_mask,
    descendants_mask,
    is_topological_order,
    random_topological_order,
    topological_order,
)


class TestIsTopologicalOrder:
    def test_valid_order(self, diamond_graph):
        assert is_topological_order(diamond_graph, np.array([0, 1, 2, 3]))
        assert is_topological_order(diamond_graph, np.array([0, 2, 1, 3]))

    def test_violating_order(self, diamond_graph):
        assert not is_topological_order(diamond_graph, np.array([1, 0, 2, 3]))
        assert not is_topological_order(diamond_graph, np.array([3, 2, 1, 0]))

    def test_not_a_permutation(self, diamond_graph):
        assert not is_topological_order(diamond_graph, np.array([0, 0, 2, 3]))
        assert not is_topological_order(diamond_graph, np.array([0, 1, 2]))
        assert not is_topological_order(diamond_graph, np.array([0, 1, 2, 4]))


#: Shapes the walk must handle: one task, a chain, no edges, random DAGs.
WALK_GRAPHS = {
    "single": lambda: TaskGraph(1),
    "chain": lambda: TaskGraph(6, [(i, i + 1) for i in range(5)]),
    "no-edges": lambda: TaskGraph(7),
    "diamond": lambda: TaskGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    **{
        f"random-{s}": (lambda s=s: random_dag(DagParams(n=3 + 9 * s), rng=s))
        for s in range(7)
    },
}


@pytest.fixture(params=["native", "numpy"])
def backend(request, monkeypatch):
    if request.param == "native":
        if _native.get_lib() is None:
            pytest.skip("native kernel unavailable")
    else:
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", True)
    return request.param


class TestRandomTopologicalOrder:
    def test_always_valid(self, diamond_graph):
        rng = np.random.default_rng(0)
        for _ in range(50):
            order = random_topological_order(diamond_graph, rng)
            assert is_topological_order(diamond_graph, order)

    def test_reaches_multiple_extensions(self, diamond_graph):
        rng = np.random.default_rng(1)
        seen = {tuple(random_topological_order(diamond_graph, rng)) for _ in range(100)}
        # The diamond has exactly two linear extensions.
        assert seen == {(0, 1, 2, 3), (0, 2, 1, 3)}

    def test_deterministic_given_seed(self, diamond_graph):
        a = random_topological_order(diamond_graph, 42)
        b = random_topological_order(diamond_graph, 42)
        assert np.array_equal(a, b)

    def test_single_node(self):
        g = TaskGraph(1)
        assert random_topological_order(g, 0).tolist() == [0]

    def test_independent_tasks(self):
        g = TaskGraph(5)
        order = random_topological_order(g, 3)
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]

    def test_cycle_raises(self, backend, monkeypatch):
        """A graph that slipped past construction's cycle check fails the
        walk once no task is ready."""
        monkeypatch.setattr(
            TaskGraph, "_kahn_topological_order", lambda self: np.arange(self.n)
        )
        cyclic = TaskGraph(4, [(3, 0), (0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="cycle"):
            random_topological_order(cyclic, 0)


@pytest.mark.parametrize("name", sorted(WALK_GRAPHS))
def test_native_walk_matches_python_walk(name, monkeypatch):
    """Same order and same Generator state from both walks, also from a
    half-used 32-bit buffer."""
    if _native.get_lib() is None:
        pytest.skip("native kernel unavailable")
    graph = WALK_GRAPHS[name]()
    for seed in range(20):
        native_gen = np.random.default_rng(seed)
        python_gen = np.random.default_rng(seed)
        if seed % 2:
            native_gen.integers(0, 3)
            python_gen.integers(0, 3)
        native = random_topological_order(graph, native_gen)
        with monkeypatch.context() as m:
            m.setattr(_native, "_lib", None)
            m.setattr(_native, "_tried", True)
            python = random_topological_order(graph, python_gen)
        assert np.array_equal(native, python)
        assert native_gen.bit_generator.state == python_gen.bit_generator.state
        assert is_topological_order(graph, native)


class TestClosures:
    def test_descendants_diamond(self, diamond_graph):
        assert descendants_mask(diamond_graph, 0).tolist() == [False, True, True, True]
        assert descendants_mask(diamond_graph, 1).tolist() == [False, False, False, True]
        assert descendants_mask(diamond_graph, 3).tolist() == [False] * 4

    def test_ancestors_diamond(self, diamond_graph):
        assert ancestors_mask(diamond_graph, 3).tolist() == [True, True, True, False]
        assert ancestors_mask(diamond_graph, 0).tolist() == [False] * 4

    def test_deep_chain(self):
        g = TaskGraph(5, [(i, i + 1) for i in range(4)])
        assert descendants_mask(g, 0).sum() == 4
        assert ancestors_mask(g, 4).sum() == 4
        assert descendants_mask(g, 2).tolist() == [False, False, False, True, True]

    def test_out_of_range_raises(self, diamond_graph):
        with pytest.raises(ValueError):
            descendants_mask(diamond_graph, 4)
        with pytest.raises(ValueError):
            ancestors_mask(diamond_graph, -1)

    def test_closure_excludes_self(self, diamond_graph):
        for v in range(4):
            assert not descendants_mask(diamond_graph, v)[v]
            assert not ancestors_mask(diamond_graph, v)[v]


def test_topological_order_matches_graph(diamond_graph):
    assert np.array_equal(topological_order(diamond_graph), diamond_graph.topological)
