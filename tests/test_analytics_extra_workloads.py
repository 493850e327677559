"""Tests for the extra analytic workloads: BFS, k-core, label propagation."""

import numpy as np
import pytest

from repro.analytics import (
    BreadthFirstSearch,
    KCore,
    LabelPropagation,
    run_workload,
)
from repro.errors import ConfigurationError
from repro.graph import Graph
from repro.graph.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.partitioning import HashVertexPartitioner


def _drain(workload, graph):
    return list(workload.iterations(graph))


class TestBfs:
    def test_levels_on_path(self):
        bfs = BreadthFirstSearch(source=0)
        _drain(bfs, path_graph(6))
        assert bfs.result().tolist() == [0, 1, 2, 3, 4, 5]

    def test_unreachable_minus_one(self):
        bfs = BreadthFirstSearch(source=3)
        _drain(bfs, path_graph(6))
        assert bfs.result()[0] == -1
        assert bfs.result()[5] == 2

    def test_matches_networkx(self, small_twitter):
        networkx = pytest.importorskip("networkx")
        bfs = BreadthFirstSearch(source=int(np.argmax(small_twitter.out_degree)))
        _drain(bfs, small_twitter)
        g = networkx.DiGraph()
        g.add_nodes_from(range(small_twitter.num_vertices))
        g.add_edges_from(small_twitter.edges())
        reference = networkx.single_source_shortest_path_length(g, bfs.source)
        ours = bfs.result()
        for vertex in range(small_twitter.num_vertices):
            expected = reference.get(vertex, -1)
            assert ours[vertex] == expected

    def test_iteration_count_equals_depth(self):
        bfs = BreadthFirstSearch(source=0)
        steps = _drain(bfs, path_graph(10))
        # 9 productive levels + 1 empty-discovery round.
        assert len(steps) in (9, 10)

    def test_invalid_source(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            BreadthFirstSearch(source=-1)
        bfs = BreadthFirstSearch(source=100)
        with pytest.raises(ConfigurationError):
            _drain(bfs, tiny_graph)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_below_one_rejected(self, max_iterations):
        with pytest.raises(ConfigurationError,
                           match=f"max_iterations must be >= 1, got "
                                 f"{max_iterations}"):
            BreadthFirstSearch(max_iterations=max_iterations)

    def test_runs_on_engine(self, small_road):
        vp = HashVertexPartitioner().partition(small_road, 4)
        bfs = BreadthFirstSearch(source=0)
        run = run_workload(small_road, vp, bfs)
        assert run.workload == "bfs"
        assert run.num_iterations > 3


class TestKCore:
    def test_cycle_is_its_own_2core(self):
        kcore = KCore(k=2)
        _drain(kcore, cycle_graph(8))
        assert kcore.result().all()

    def test_path_has_no_2core(self):
        # Undirected path: endpoints peel, then everything cascades.
        kcore = KCore(k=2)
        _drain(kcore, path_graph(8))
        assert not kcore.result().any()

    def test_star_core(self):
        kcore = KCore(k=2)
        _drain(kcore, star_graph(10))
        assert not kcore.result().any()   # leaves have degree 1, hub peels

    def test_complete_graph_survives(self):
        kcore = KCore(k=3)
        _drain(kcore, complete_graph(5))
        assert kcore.result().all()       # undirected degree 8 everywhere

    def test_matches_networkx(self, small_social):
        networkx = pytest.importorskip("networkx")
        k = 6
        kcore = KCore(k=k)
        _drain(kcore, small_social)
        g = networkx.Graph()
        g.add_nodes_from(range(small_social.num_vertices))
        g.add_edges_from(small_social.edges())
        g.remove_edges_from(networkx.selfloop_edges(g))
        core_numbers = networkx.core_number(g)
        ours = kcore.result()
        # networkx counts simple-graph degrees while we keep parallel
        # edges, so our core can only be a superset.
        for vertex, core in core_numbers.items():
            if core >= k:
                assert ours[vertex], vertex

    def test_cascading_removal(self):
        # A chain hanging off a triangle: the chain peels in sequence.
        src = np.array([0, 1, 2, 2, 3, 4])
        dst = np.array([1, 2, 0, 3, 4, 5])
        g = Graph(6, src, dst)
        kcore = KCore(k=2)
        steps = _drain(kcore, g)
        assert len(steps) >= 2               # peeling cascades
        assert kcore.result().tolist() == [True, True, True, False, False,
                                           False]

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            KCore(k=0)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_below_one_rejected(self, max_iterations):
        """Zero peeling rounds used to report every vertex of a path as
        its 2-core; the 2-core of a path is empty."""
        with pytest.raises(ConfigurationError,
                           match=f"max_iterations must be >= 1, got "
                                 f"{max_iterations}"):
            KCore(k=2, max_iterations=max_iterations)

    def test_runs_on_engine(self, small_twitter):
        vp = HashVertexPartitioner().partition(small_twitter, 4)
        run = run_workload(small_twitter, vp, KCore(k=4))
        assert run.workload == "kcore"


class TestLabelPropagation:
    def test_two_cliques_two_communities(self):
        # Two complete K4s joined by one edge.
        edges = []
        for block in (0, 4):
            for i in range(4):
                for j in range(4):
                    if i != j:
                        edges.append((block + i, block + j))
        edges.append((0, 4))
        src, dst = np.array(edges).T
        g = Graph(8, src, dst)
        lp = LabelPropagation(max_iterations=30)
        _drain(lp, g)
        labels = lp.result()
        assert len(set(labels[:4].tolist())) == 1
        assert len(set(labels[4:].tolist())) == 1

    def test_converges_and_stops(self, small_social):
        lp = LabelPropagation(max_iterations=50)
        steps = _drain(lp, small_social)
        assert len(steps) < 50

    def test_activity_eventually_shrinks(self, small_social):
        lp = LabelPropagation(max_iterations=50)
        changed = [int(a.changed.sum()) for a in lp.iterations(small_social)]
        assert changed[-1] <= changed[0]

    def test_isolated_vertex_keeps_label(self):
        g = Graph(3, np.array([0]), np.array([1]))
        lp = LabelPropagation()
        _drain(lp, g)
        assert lp.result()[2] == 2

    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            LabelPropagation(max_iterations=0)

    def test_runs_on_engine(self, small_social):
        vp = HashVertexPartitioner().partition(small_social, 4)
        run = run_workload(small_social, vp, LabelPropagation(max_iterations=10))
        assert run.workload == "label-propagation"
        assert run.total_messages > 0
