"""Unit tests for :mod:`repro.graph.analysis` (ArrayDag and helpers)."""

import numpy as np
import pytest

from repro.graph.analysis import (
    ArrayDag,
    critical_path,
    critical_path_length,
    dag_levels,
)
from repro.graph.taskgraph import TaskGraph


@pytest.fixture
def diamond_dag(diamond_graph):
    return ArrayDag.from_taskgraph(diamond_graph)


class TestArrayDagBuild:
    def test_topo_order_valid(self, diamond_dag):
        pos = {int(v): i for i, v in enumerate(diamond_dag.topo)}
        for u, v in zip(diamond_dag.edge_src, diamond_dag.edge_dst):
            assert pos[int(u)] < pos[int(v)]

    def test_cycle_detection(self):
        with pytest.raises(ValueError, match="cycle"):
            ArrayDag.build(3, np.array([0, 1, 2]), np.array([1, 2, 0]))

    def test_mismatched_edge_arrays(self):
        with pytest.raises(ValueError, match="same length"):
            ArrayDag.build(3, np.array([0, 1]), np.array([1]))

    def test_pred_succ_edges(self, diamond_dag):
        # Edges in canonical order: (0,1), (0,2), (1,3), (2,3).
        assert sorted(diamond_dag.succ_edges(0).tolist()) == [0, 1]
        assert sorted(diamond_dag.pred_edges(3).tolist()) == [2, 3]
        assert diamond_dag.pred_edges(0).size == 0
        assert diamond_dag.succ_edges(3).size == 0

    def test_from_taskgraph_adopts_the_graphs_csr(self, small_random_problem):
        graph = small_random_problem.graph
        adopted = ArrayDag.from_taskgraph(graph)
        built = ArrayDag(graph.n, graph.edge_src, graph.edge_dst)
        for name in ("pred_indptr", "pred_eidx", "succ_indptr", "succ_eidx"):
            ours, theirs = getattr(adopted, name), getattr(built, name)
            assert ours.dtype == theirs.dtype == np.int64
            np.testing.assert_array_equal(ours, theirs)

    def test_each_csr_direction_is_built_on_its_first_read(self, diamond_graph):
        g = diamond_graph
        dag = ArrayDag(g.n, g.edge_src, g.edge_dst)
        assert dag.pred_eidx.tolist() == [0, 1, 2, 3]
        assert dag._succ is None
        assert dag.succ_indptr.tolist() == [0, 2, 3, 4, 4]


class TestLevels:
    def test_top_levels_hand_computed(self, diamond_dag):
        # Node weights w, edge weights c: Tl excludes the node itself.
        w = np.array([2.0, 4.0, 4.0, 3.0])
        c = np.array([0.0, 20.0, 10.0, 0.0])  # edges (0,1),(0,2),(1,3),(2,3)
        tl = diamond_dag.top_levels(w, c)
        assert tl.tolist() == [0.0, 2.0, 22.0, 26.0]

    def test_bottom_levels_hand_computed(self, diamond_dag):
        w = np.array([2.0, 4.0, 4.0, 3.0])
        c = np.array([0.0, 20.0, 10.0, 0.0])
        bl = diamond_dag.bottom_levels(w, c)
        assert bl.tolist() == [29.0, 17.0, 7.0, 3.0]

    def test_makespan_scalar(self, diamond_dag):
        w = np.array([2.0, 4.0, 4.0, 3.0])
        c = np.array([0.0, 20.0, 10.0, 0.0])
        assert diamond_dag.makespan(w, c) == 29.0

    def test_makespan_no_edge_weights(self, diamond_dag):
        w = np.array([1.0, 1.0, 1.0, 1.0])
        assert diamond_dag.makespan(w) == 3.0

    def test_batched_matches_sequential(self, diamond_dag):
        rng = np.random.default_rng(7)
        batch = rng.uniform(1.0, 5.0, size=(16, 4))
        c = np.array([0.0, 20.0, 10.0, 0.0])
        batched = diamond_dag.makespan(batch, c)
        singles = np.array([diamond_dag.makespan(batch[i], c) for i in range(16)])
        assert np.allclose(batched, singles)

    def test_batched_levels_rejected(self, diamond_dag):
        # The level passes take one (n,) vector; batches go through
        # finish_times / makespan.
        batch = np.ones((5, 4))
        with pytest.raises(ValueError, match="top_levels requires 1-D"):
            diamond_dag.top_levels(batch)
        with pytest.raises(ValueError, match="bottom_levels requires 1-D"):
            diamond_dag.bottom_levels(batch)
        assert diamond_dag.finish_times(batch).shape == (5, 4)

    def test_wrong_node_weight_shape_raises(self, diamond_dag):
        with pytest.raises(ValueError, match="last axis"):
            diamond_dag.top_levels(np.ones(3))

    def test_wrong_edge_weight_shape_raises(self, diamond_dag):
        with pytest.raises(ValueError, match="edge weights"):
            diamond_dag.top_levels(np.ones(4), np.ones(2))

    def test_tl_plus_bl_bounded_by_makespan(self, diamond_dag):
        rng = np.random.default_rng(3)
        w = rng.uniform(1, 10, 4)
        c = rng.uniform(0, 5, 4)
        tl = diamond_dag.top_levels(w, c)
        bl = diamond_dag.bottom_levels(w, c)
        m = diamond_dag.makespan(w, c)
        assert np.all(tl + bl <= m + 1e-9)
        # Some node is critical.
        assert np.isclose((tl + bl).max(), m)


class TestCriticalPath:
    def test_path_hand_computed(self, diamond_graph):
        w = np.array([2.0, 4.0, 4.0, 3.0])
        c = np.array([0.0, 20.0, 10.0, 0.0])
        assert critical_path(diamond_graph, w, c) == [0, 2, 3]
        assert critical_path_length(diamond_graph, w, c) == 29.0

    def test_path_is_connected(self, diamond_graph):
        path = critical_path(diamond_graph, np.ones(4))
        for a, b in zip(path[:-1], path[1:]):
            assert diamond_graph.has_edge(a, b)

    def test_single_node(self):
        g = TaskGraph(1)
        assert critical_path(g, np.array([5.0])) == [0]
        assert critical_path_length(g, np.array([5.0])) == 5.0

    def test_batched_weights_rejected(self, diamond_dag):
        with pytest.raises(ValueError, match="1-D"):
            diamond_dag.critical_path(np.ones((2, 4)))

    def test_path_length_equals_sum_along_path(self, diamond_graph):
        rng = np.random.default_rng(11)
        w = rng.uniform(1, 10, 4)
        c = rng.uniform(0, 5, 4)
        path = critical_path(diamond_graph, w, c)
        length = sum(w[v] for v in path)
        edges = list(diamond_graph.edges())
        srcs = diamond_graph.edge_src.tolist()
        dsts = diamond_graph.edge_dst.tolist()
        for a, b in zip(path[:-1], path[1:]):
            e = next(i for i in range(len(edges)) if srcs[i] == a and dsts[i] == b)
            length += c[e]
        assert np.isclose(length, critical_path_length(diamond_graph, w, c))


class TestDagLevels:
    def test_diamond(self, diamond_graph):
        assert dag_levels(diamond_graph).tolist() == [0, 1, 1, 2]

    def test_chain(self):
        g = TaskGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert dag_levels(g).tolist() == [0, 1, 2, 3]

    def test_independent(self):
        g = TaskGraph(3)
        assert dag_levels(g).tolist() == [0, 0, 0]

    def test_skip_edge_takes_longest(self):
        g = TaskGraph(4, [(0, 1), (1, 3), (0, 3), (0, 2)])
        assert dag_levels(g).tolist() == [0, 1, 1, 2]
