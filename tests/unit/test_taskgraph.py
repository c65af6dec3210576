"""Unit tests for :mod:`repro.graph.taskgraph`."""

import numpy as np
import pytest

from repro.graph.taskgraph import TaskGraph


class TestConstruction:
    def test_minimal_single_node(self):
        g = TaskGraph(1)
        assert g.n == 1
        assert g.num_edges == 0
        assert list(g.entry_nodes) == [0]
        assert list(g.exit_nodes) == [0]

    def test_basic_edges(self, diamond_graph):
        assert diamond_graph.n == 4
        assert diamond_graph.num_edges == 4
        assert diamond_graph.has_edge(0, 1)
        assert diamond_graph.has_edge(2, 3)
        assert not diamond_graph.has_edge(1, 2)
        assert not diamond_graph.has_edge(1, 0)

    def test_data_sizes_aligned(self, diamond_graph):
        assert diamond_graph.data_size(0, 1) == 10.0
        assert diamond_graph.data_size(0, 2) == 20.0

    def test_data_size_missing_edge_raises(self, diamond_graph):
        with pytest.raises(KeyError):
            diamond_graph.data_size(1, 2)

    def test_default_data_sizes_zero(self):
        g = TaskGraph(3, [(0, 1), (1, 2)])
        assert g.data_size(0, 1) == 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="at least one task"):
            TaskGraph(0)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            TaskGraph(2, [(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            TaskGraph(2, [(-1, 0)])

    def test_rejects_endpoint_beyond_int64(self):
        with pytest.raises(ValueError, match="out of range"):
            TaskGraph(2, [(0, 10**30)])

    @pytest.mark.parametrize(
        "edges", [[(0, 1, 2)], [(0,)], np.zeros((2, 3), dtype=np.int64)]
    )
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError):
            TaskGraph(3, edges)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            TaskGraph(2, [(1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskGraph(3, [(0, 1), (0, 1)])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph(2, [(0, 1), (1, 0)])

    def test_rejects_negative_data(self):
        with pytest.raises(ValueError, match="non-negative"):
            TaskGraph(2, [(0, 1)], [-1.0])

    def test_rejects_misaligned_data(self):
        with pytest.raises(ValueError, match="one entry per edge"):
            TaskGraph(2, [(0, 1)], [1.0, 2.0])

    def test_arrays_immutable(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.edge_data[0] = 99.0


class TestTopologyQueries:
    def test_entry_exit_nodes(self, diamond_graph):
        assert list(diamond_graph.entry_nodes) == [0]
        assert list(diamond_graph.exit_nodes) == [3]

    def test_multiple_entries_exits(self):
        g = TaskGraph(4, [(0, 2), (1, 2)])
        assert list(g.entry_nodes) == [0, 1, 3]
        assert list(g.exit_nodes) == [2, 3]

    def test_successors_predecessors(self, diamond_graph):
        assert sorted(diamond_graph.successors(0).tolist()) == [1, 2]
        assert sorted(diamond_graph.predecessors(3).tolist()) == [1, 2]
        assert diamond_graph.predecessors(0).size == 0
        assert diamond_graph.successors(3).size == 0

    def test_degrees(self, diamond_graph):
        assert diamond_graph.in_degree().tolist() == [0, 1, 1, 2]
        assert diamond_graph.out_degree().tolist() == [2, 1, 1, 0]

    def test_canonical_topological_order(self, diamond_graph):
        topo = diamond_graph.topological
        pos = {int(v): i for i, v in enumerate(topo)}
        for u, v, _ in diamond_graph.edges():
            assert pos[u] < pos[v]

    def test_topological_is_deterministic(self):
        g1 = TaskGraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        g2 = TaskGraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        assert np.array_equal(g1.topological, g2.topological)

    def test_edges_iteration_canonical_order(self):
        g = TaskGraph(4, [(2, 3), (0, 1), (0, 2)], [3.0, 1.0, 2.0])
        assert list(g.edges()) == [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 3.0)]


class TestConversions:
    def test_from_dict(self):
        g = TaskGraph.from_dict({0: [1, 2], 1: [3], 2: [3]}, {(0, 1): 5.0})
        assert g.n == 4
        assert g.num_edges == 4
        assert g.data_size(0, 1) == 5.0
        assert g.data_size(1, 3) == 0.0

    def test_from_dict_explicit_n(self):
        g = TaskGraph.from_dict({0: [1]}, n=5)
        assert g.n == 5
        assert list(g.exit_nodes) == [1, 2, 3, 4]

    def test_networkx_roundtrip(self, diamond_graph):
        nx_graph = diamond_graph.to_networkx()
        back = TaskGraph.from_networkx(nx_graph)
        assert back == diamond_graph

    def test_from_networkx_rejects_bad_labels(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError, match="0..n-1"):
            TaskGraph.from_networkx(g)

    def test_networkx_preserves_data(self, diamond_graph):
        nxg = diamond_graph.to_networkx()
        assert nxg.edges[0, 2]["data"] == 20.0


class TestEqualityHash:
    def test_equal_graphs(self):
        a = TaskGraph(3, [(0, 1), (1, 2)], [1.0, 2.0])
        b = TaskGraph(3, [(1, 2), (0, 1)], [2.0, 1.0])  # same canonical form
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_data(self):
        a = TaskGraph(3, [(0, 1)], [1.0])
        b = TaskGraph(3, [(0, 1)], [2.0])
        assert a != b

    def test_not_equal_other_type(self):
        assert TaskGraph(1) != 42
