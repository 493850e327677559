"""Tests for the hybrid-cut algorithms (HCR, Ginger)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import Graph
from repro.graph.generators import star_graph
from repro.metrics import partition_balance, replication_factor
from repro.partitioning import (
    GingerPartitioner,
    HashEdgePartitioner,
    HybridHashPartitioner,
)


def _in_star(num_leaves: int) -> Graph:
    """A star with all edges pointing INTO the hub (high in-degree)."""
    src = np.arange(1, num_leaves + 1, dtype=np.int64)
    dst = np.zeros(num_leaves, dtype=np.int64)
    return Graph(num_leaves + 1, src, dst, name="in-star")


class TestHybridHash:
    def test_complete(self, small_twitter):
        p = HybridHashPartitioner().partition(small_twitter, 8)
        assert p.is_complete()

    def test_masters_provided(self, small_twitter):
        p = HybridHashPartitioner().partition(small_twitter, 8)
        assert p.masters is not None
        assert p.masters.shape == (small_twitter.num_vertices,)

    def test_low_degree_in_edges_grouped(self):
        """All in-edges of a low-degree vertex land on hash(dst)."""
        g = Graph(5, np.array([0, 1, 2]), np.array([4, 4, 4]))
        p = HybridHashPartitioner(degree_threshold=10).partition(g, 4)
        assert len(set(p.assignment.tolist())) == 1

    def test_high_degree_in_edges_spread(self):
        """In-edges of a hub above the threshold spread by source hash."""
        g = _in_star(300)
        p = HybridHashPartitioner(degree_threshold=100).partition(g, 8)
        assert len(set(p.assignment.tolist())) == 8

    def test_threshold_controls_behaviour(self):
        g = _in_star(300)
        grouped = HybridHashPartitioner(degree_threshold=10**9).partition(g, 8)
        assert len(set(grouped.assignment.tolist())) == 1

    def test_order_independent(self, small_twitter):
        a = HybridHashPartitioner().partition(small_twitter, 8,
                                              order="random", seed=1)
        b = HybridHashPartitioner().partition(small_twitter, 8, order="bfs")
        assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            HybridHashPartitioner(degree_threshold=0)


class TestGinger:
    def test_complete(self, small_twitter):
        p = GingerPartitioner(seed=0).partition(small_twitter, 8,
                                                order="random", seed=1)
        assert p.is_complete()

    def test_masters_cover_all_vertices(self, small_twitter):
        p = GingerPartitioner(seed=0).partition(small_twitter, 8,
                                                order="random", seed=1)
        assert p.masters is not None
        assert p.masters.min() >= 0
        assert p.masters.max() < 8

    def test_beats_plain_vertex_cut_hash(self, small_social):
        hg = GingerPartitioner(seed=0).partition(small_social, 8,
                                                 order="random", seed=1)
        vcr = HashEdgePartitioner().partition(small_social, 8)
        assert (replication_factor(small_social, hg)
                < replication_factor(small_social, vcr))

    def test_balance_reasonable(self, small_twitter):
        p = GingerPartitioner(seed=0).partition(small_twitter, 8,
                                                order="random", seed=1)
        assert partition_balance(small_twitter, p) < 1.6

    def test_low_degree_locality(self):
        """A low-degree vertex's in-edges stay together (its master)."""
        g = Graph(6, np.array([0, 1, 2, 3]), np.array([5, 5, 5, 5]))
        p = GingerPartitioner(degree_threshold=100, seed=0).partition(
            g, 3, order="natural")
        assert len(set(p.assignment.tolist())) == 1
        assert p.assignment[0] == p.masters[5]

    def test_high_degree_spread(self):
        g = _in_star(400)
        p = GingerPartitioner(degree_threshold=50, seed=0).partition(
            g, 8, order="random", seed=1)
        assert len(set(p.assignment.tolist())) >= 4

    def test_source_only_vertices_get_masters(self):
        g = Graph(3, np.array([0, 1]), np.array([2, 2]))
        p = GingerPartitioner(seed=0).partition(g, 2, order="natural")
        assert p.masters[0] >= 0 and p.masters[1] >= 0

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            GingerPartitioner(degree_threshold=-1)

    def test_nan_threshold_rejected(self):
        """A NaN threshold used to re-hash every in-edge."""
        with pytest.raises(ConfigurationError, match="degree_threshold.*nan"):
            GingerPartitioner(degree_threshold=float("nan"))

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), -0.5))
    def test_bad_balance_coefficient_rejected(self, bad):
        """NaN scores every partition alike (partition 0 wins); a negative
        coefficient rewards the fullest partition."""
        with pytest.raises(ConfigurationError,
                           match=f"balance_coefficient.*{bad!r}"):
            GingerPartitioner(balance_coefficient=bad)

    def test_zero_balance_coefficient_allowed(self, small_twitter):
        p = GingerPartitioner(balance_coefficient=0.0, seed=0).partition(
            small_twitter, 4, order="random", seed=1)
        assert p.is_complete()

    def test_star_hub_case(self):
        p = GingerPartitioner(seed=0).partition(star_graph(50), 4,
                                                order="random", seed=1)
        assert p.is_complete()
