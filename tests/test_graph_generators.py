"""Tests for repro.graph.generators: structure of the synthetic datasets."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.analysis import classify_graph, degree_stats
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    ldbc_like,
    path_graph,
    preferential_attachment,
    rmat,
    road_grid,
    road_like,
    social_network,
    star_graph,
    twitter_like,
)


class TestBasicGenerators:
    def test_empty(self):
        g = empty_graph(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.out_degree[4] == 0

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert np.all(g.out_degree == 1)
        assert np.all(g.in_degree == 1)

    def test_star(self):
        g = star_graph(7)
        assert g.num_vertices == 8
        assert g.out_degree[0] == 7
        assert np.all(g.in_degree[1:] == 1)

    def test_complete(self):
        g = complete_graph(4)
        assert g.num_edges == 12  # n(n-1)
        assert np.all(g.degree == 6)

    def test_erdos_renyi_exact_edges_no_loops(self):
        g = erdos_renyi(50, 500, seed=1)
        assert g.num_edges == 500
        assert np.all(g.src != g.dst)

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(20, 100, seed=9)
        b = erdos_renyi(20, 100, seed=9)
        assert np.array_equal(a.src, b.src)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            path_graph(-1)
        with pytest.raises(ConfigurationError):
            cycle_graph(0)
        with pytest.raises(ConfigurationError):
            erdos_renyi(1, 10)


class TestPreferentialAttachment:
    def test_size_and_loops(self):
        g = preferential_attachment(2000, avg_out_degree=6, seed=3)
        assert g.num_vertices == 2000
        assert np.all(g.src != g.dst)

    def test_heavy_tail(self):
        g = twitter_like(num_vertices=3000, avg_degree=10, seed=4)
        stats = degree_stats(g)
        # Hubs: the max in-degree dwarfs the average.
        assert stats.max_in_degree > 20 * (g.num_edges / g.num_vertices)

    def test_average_degree_close_to_target(self):
        g = twitter_like(num_vertices=5000, avg_degree=12, seed=5)
        assert 0.6 * 12 <= g.num_edges / g.num_vertices <= 1.8 * 12

    def test_deterministic(self):
        a = twitter_like(num_vertices=500, seed=6)
        b = twitter_like(num_vertices=500, seed=6)
        assert np.array_equal(a.src, b.src)

    def test_classified_heavy_tailed(self, small_twitter):
        assert classify_graph(small_twitter) == "heavy-tailed"

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            preferential_attachment(1)
        with pytest.raises(ConfigurationError):
            preferential_attachment(10, uniform_mix=1.5)
        with pytest.raises(ConfigurationError):
            preferential_attachment(10, avg_out_degree=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_average_degree_rejected(self, bad, tmp_path):
        """NaN used to pass the ``<= 0`` check and fail converting to
        int; inf overflowed.  Every entry point names the parameter."""
        from repro.ingest import spill_powerlaw

        with pytest.raises(ConfigurationError, match="avg_out_degree"):
            preferential_attachment(100, avg_out_degree=bad)
        with pytest.raises(ConfigurationError, match="avg_out_degree"):
            twitter_like(num_vertices=100, avg_degree=bad)
        with pytest.raises(ConfigurationError, match="avg_out_degree"):
            spill_powerlaw(tmp_path / "s.redg", 100, bad)


class TestRmat:
    def test_vertex_count_power_of_two(self):
        g = rmat(8, edge_factor=4, seed=1)
        assert g.num_vertices == 256

    def test_no_self_loops(self):
        g = rmat(8, edge_factor=4, seed=2)
        assert np.all(g.src != g.dst)

    def test_skewed_degrees(self, small_web):
        stats = degree_stats(small_web)
        assert stats.skew > 20

    def test_classified_power_law(self, small_web):
        assert classify_graph(small_web) == "power-law"

    def test_deterministic(self):
        a = rmat(8, seed=3)
        b = rmat(8, seed=3)
        assert np.array_equal(a.src, b.src)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            rmat(0)
        with pytest.raises(ConfigurationError):
            rmat(8, a=0.5, b=0.3, c=0.3)  # d <= 0


class TestRoad:
    def test_grid_shape(self):
        g = road_grid(10, 8, seed=1)
        assert g.num_vertices == 80

    def test_two_way_streets(self):
        g = road_grid(6, 6, keep_probability=1.0, diagonal_probability=0.0,
                      seed=1)
        edges = set(g.edges())
        for u, v in list(edges):
            assert (v, u) in edges

    def test_low_degree(self, small_road):
        stats = degree_stats(small_road)
        assert stats.max_degree <= 16
        assert stats.avg_degree < 8

    def test_classified_low_degree(self, small_road):
        assert classify_graph(small_road) == "low-degree"

    def test_long_diameter(self):
        from repro.graph.analysis import estimate_diameter
        g = road_like(num_vertices=900, seed=2)
        assert estimate_diameter(g, probes=2, seed=0) > 20

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            road_grid(1, 5)
        with pytest.raises(ConfigurationError):
            road_grid(5, 5, keep_probability=0.0)


class TestSocialNetwork:
    def test_symmetric_edges(self, small_social):
        edges = set(small_social.edges())
        sample = list(edges)[:200]
        for u, v in sample:
            assert (v, u) in edges

    def test_no_self_loops(self, small_social):
        assert np.all(small_social.src != small_social.dst)

    def test_degree_target(self):
        g = social_network(2000, avg_degree=10, seed=7)
        assert 0.5 * 10 <= g.num_edges / g.num_vertices <= 1.5 * 10

    def test_homophily_creates_community_locality(self):
        clustered = social_network(1500, avg_degree=10, homophily=0.95, seed=8)
        mixed = social_network(1500, avg_degree=10, homophily=0.0, seed=8)
        # A community-aware partitioner separates the clustered graph far
        # better; proxy: the multilevel partitioner's cut ratio.
        from repro.metrics import edge_cut_ratio
        from repro.partitioning import multilevel_partition
        cut_clustered = edge_cut_ratio(
            clustered, multilevel_partition(clustered, 8, seed=1))
        cut_mixed = edge_cut_ratio(mixed, multilevel_partition(mixed, 8, seed=1))
        assert cut_clustered < cut_mixed

    def test_deterministic(self):
        a = ldbc_like(num_vertices=400, seed=9)
        b = ldbc_like(num_vertices=400, seed=9)
        assert np.array_equal(a.src, b.src)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            social_network(1)
        with pytest.raises(ConfigurationError):
            social_network(100, homophily=2.0)
        with pytest.raises(ConfigurationError):
            social_network(100, avg_degree=-1)
