"""Tests for the offline workloads: correctness of PR / WCC / SSSP."""

import numpy as np
import pytest

from repro.analytics import (
    PageRank,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.errors import ConfigurationError
from repro.graph.analysis import bfs_distances, weakly_connected_components
from repro.graph.generators import cycle_graph, path_graph, star_graph


def _drain(workload, graph):
    return list(workload.iterations(graph))


class TestPageRank:
    def test_ranks_sum_to_one(self, small_twitter):
        pr = PageRank(num_iterations=10)
        _drain(pr, small_twitter)
        assert pr.result().sum() == pytest.approx(1.0, abs=1e-6)

    def test_fixed_iteration_count(self, small_twitter):
        pr = PageRank(num_iterations=7)
        assert len(_drain(pr, small_twitter)) == 7

    def test_all_active_every_iteration(self, tiny_graph):
        pr = PageRank(num_iterations=3)
        for activity in pr.iterations(tiny_graph):
            assert activity.sends_forward.all()
            assert activity.changed.all()
            assert activity.sends_reverse is None

    def test_cycle_uniform_ranks(self):
        g = cycle_graph(10)
        pr = PageRank(num_iterations=20)
        _drain(pr, g)
        assert np.allclose(pr.result(), 0.1)

    def test_hub_gets_no_rank_on_out_star(self):
        """In a star with edges hub->leaves, leaves share the rank."""
        g = star_graph(4)
        pr = PageRank(num_iterations=30)
        _drain(pr, g)
        ranks = pr.result()
        assert np.allclose(ranks[1:], ranks[1])
        assert ranks[0] < ranks[1]

    def test_matches_power_iteration(self, tiny_graph):
        pr = PageRank(num_iterations=50)
        _drain(pr, tiny_graph)
        # Independent dense power iteration.
        n = tiny_graph.num_vertices
        matrix = np.zeros((n, n))
        out_deg = np.maximum(tiny_graph.out_degree, 1)
        for u, v in tiny_graph.edges():
            matrix[v, u] += 1.0 / out_deg[u]
        ranks = np.full(n, 1.0 / n)
        for _ in range(50):
            ranks = 0.15 / n + 0.85 * matrix @ ranks
        assert np.allclose(pr.result(), ranks, atol=1e-9)

    def test_direction_uni(self):
        assert PageRank().direction == "uni"

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PageRank(num_iterations=0)
        with pytest.raises(ConfigurationError):
            PageRank(damping=1.0)

    def test_empty_graph(self):
        from repro.graph.generators import empty_graph
        assert _drain(PageRank(3), empty_graph(0)) == []


class TestWcc:
    def test_labels_match_union_find(self, small_road):
        wcc = WeaklyConnectedComponents()
        _drain(wcc, small_road)
        ours = wcc.result()
        reference = weakly_connected_components(small_road)
        # Same partition of vertices into components.
        mapping = {}
        for label_ours, label_ref in zip(ours.tolist(), reference.tolist()):
            assert mapping.setdefault(label_ours, label_ref) == label_ref

    def test_terminates_before_max(self, small_twitter):
        wcc = WeaklyConnectedComponents(max_iterations=500)
        steps = _drain(wcc, small_twitter)
        assert len(steps) < 500

    def test_activity_shrinks(self, small_road):
        wcc = WeaklyConnectedComponents()
        changed_counts = [int(a.changed.sum())
                          for a in wcc.iterations(small_road)]
        # Last iteration converges: nothing changes.
        assert changed_counts[-1] == 0
        assert max(changed_counts) > 0

    def test_direction_bi(self):
        assert WeaklyConnectedComponents().direction == "bi"

    def test_path_single_component(self):
        wcc = WeaklyConnectedComponents()
        _drain(wcc, path_graph(20))
        assert len(set(wcc.result().tolist())) == 1

    def test_iteration_count_tracks_diameter(self):
        """Label propagation on a path needs ~length iterations."""
        wcc = WeaklyConnectedComponents()
        steps = _drain(wcc, path_graph(30))
        assert len(steps) >= 15

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_below_one_rejected(self, max_iterations):
        with pytest.raises(ConfigurationError,
                           match=f"max_iterations must be >= 1, got "
                                 f"{max_iterations}"):
            WeaklyConnectedComponents(max_iterations=max_iterations)


class TestSssp:
    def test_matches_bfs_on_symmetric_graph(self, small_road):
        # The road graph stores both directions, so directed SSSP from any
        # vertex equals undirected BFS.
        sssp = SingleSourceShortestPath(source=0)
        _drain(sssp, small_road)
        dist = sssp.result()
        reference = bfs_distances(small_road, 0)
        reachable = reference >= 0
        assert np.array_equal(dist[reachable], reference[reachable])
        assert np.all(np.isinf(dist[~reachable]))

    def test_unreachable_inf(self):
        g = path_graph(5)
        sssp = SingleSourceShortestPath(source=2)
        _drain(sssp, g)
        assert np.isinf(sssp.result()[0])  # directed: cannot go backwards
        assert sssp.result()[4] == 2.0

    def test_frontier_grows_then_shrinks(self, small_road):
        sssp = SingleSourceShortestPath(source=0)
        sizes = [int(a.sends_forward.sum())
                 for a in sssp.iterations(small_road)]
        assert sizes[0] == 1
        assert max(sizes) > 1

    def test_weighted_paths(self):
        g = path_graph(4)
        sssp = SingleSourceShortestPath(source=0,
                                        edge_weights=[2.0, 3.0, 4.0])
        _drain(sssp, g)
        assert sssp.result().tolist() == [0.0, 2.0, 5.0, 9.0]

    def test_invalid_parameters(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            SingleSourceShortestPath(source=-1)
        with pytest.raises(ConfigurationError):
            SingleSourceShortestPath(source=0, edge_weights=[-1.0])
        sssp = SingleSourceShortestPath(source=99)
        with pytest.raises(ConfigurationError):
            _drain(sssp, tiny_graph)
        bad_weights = SingleSourceShortestPath(source=0, edge_weights=[1.0])
        with pytest.raises(ConfigurationError):
            _drain(bad_weights, tiny_graph)

    def test_nan_weight_names_the_edge(self):
        """A NaN weight used to leave vertices 2 and 3 of this path at
        NaN and inf: reachable vertices reported unreachable."""
        with pytest.raises(ConfigurationError, match="edge 1 is NaN"):
            SingleSourceShortestPath(source=0,
                                     edge_weights=[1.0, np.nan, 1.0, 1.0])

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_below_one_rejected(self, max_iterations):
        with pytest.raises(ConfigurationError,
                           match=f"max_iterations must be >= 1, got "
                                 f"{max_iterations}"):
            SingleSourceShortestPath(max_iterations=max_iterations)

    def test_direction_uni(self):
        assert SingleSourceShortestPath().direction == "uni"
