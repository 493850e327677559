"""Tests for the vertex-cut SGP algorithms (VCR, DBH, Grid, Greedy, HDRF)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import EdgeStream
from repro.graph.generators import star_graph
from repro.metrics import (
    partition_balance,
    replication_factor,
    vertex_replica_counts,
)
from repro.partitioning import (
    DbhPartitioner,
    GreedyVertexCutPartitioner,
    GridPartitioner,
    HashEdgePartitioner,
    HdrfPartitioner,
)
from repro.partitioning.vertex_cut.grid import constrained_sets, grid_shape


class TestHashEdgePartitioner:
    def test_complete_and_in_range(self, small_twitter):
        p = HashEdgePartitioner().partition(small_twitter, 8)
        assert p.is_complete()
        assert p.assignment.max() < 8

    def test_order_independent(self, small_twitter):
        a = HashEdgePartitioner().partition(small_twitter, 8, order="random",
                                            seed=1)
        b = HashEdgePartitioner().partition(small_twitter, 8, order="bfs")
        assert np.array_equal(a.assignment, b.assignment)

    def test_parallel_edges_colocate(self):
        from repro.graph import Graph
        g = Graph(3, np.array([0, 0, 0, 1]), np.array([1, 1, 1, 2]))
        p = HashEdgePartitioner().partition(g, 4)
        assert len(set(p.assignment[:3].tolist())) == 1

    def test_balance(self, small_twitter):
        p = HashEdgePartitioner().partition(small_twitter, 8)
        assert partition_balance(small_twitter, p) < 1.2

    def test_highest_replication_of_family(self, small_twitter):
        """VCR ignores topology: it replicates more than degree-aware
        vertex-cut methods."""
        vcr = HashEdgePartitioner().partition(small_twitter, 8)
        hdrf = HdrfPartitioner(seed=0).partition(small_twitter, 8,
                                                 order="random", seed=1)
        assert (replication_factor(small_twitter, vcr)
                > replication_factor(small_twitter, hdrf))


class TestDbh:
    def test_complete(self, small_twitter):
        p = DbhPartitioner().partition(small_twitter, 8)
        assert p.is_complete()

    def test_star_hub_spread_leaves_local(self):
        """On a star, DBH hashes by the leaf (lower degree): the hub is
        replicated while each leaf stays on a single partition."""
        g = star_graph(200)
        p = DbhPartitioner().partition(g, 8)
        counts = vertex_replica_counts(g, p)
        assert counts[0] == 8                 # hub replicated everywhere
        assert np.all(counts[1:] == 1)        # each leaf on one partition

    def test_beats_vcr_on_skewed_graph(self, small_twitter):
        vcr = HashEdgePartitioner().partition(small_twitter, 8)
        dbh = DbhPartitioner().partition(small_twitter, 8)
        assert (replication_factor(small_twitter, dbh)
                < replication_factor(small_twitter, vcr))

    def test_partial_mode_runs_without_graph(self, small_twitter):
        stream = [(i, int(u), int(v)) for i, (u, v) in
                  enumerate(small_twitter.edges())]
        p = DbhPartitioner(degrees="partial").partition_stream(
            stream, 8, num_vertices=small_twitter.num_vertices,
            num_edges=small_twitter.num_edges)
        assert p.is_complete()

    def test_exact_mode_requires_graph(self):
        with pytest.raises(ConfigurationError):
            DbhPartitioner(degrees="exact").partition_stream(
                [(0, 0, 1)], 4, num_vertices=2, num_edges=1)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            DbhPartitioner(degrees="guess")


class TestGrid:
    def test_grid_shape(self):
        assert grid_shape(16) == (4, 4)
        assert grid_shape(12) == (3, 4)
        assert grid_shape(2) == (1, 2)

    def test_constrained_sets_intersect_on_full_grid(self):
        sets = constrained_sets(16)
        for i in range(16):
            for j in range(16):
                assert len(np.intersect1d(sets[i], sets[j])) >= 1

    def test_replication_bound(self, small_twitter):
        """Grid bounds every vertex's replicas by 2*sqrt(k) - 1."""
        k = 16
        p = GridPartitioner(seed=0).partition(small_twitter, k,
                                              order="random", seed=1)
        counts = vertex_replica_counts(small_twitter, p)
        rows, cols = grid_shape(k)
        assert counts.max() <= rows + cols - 1

    def test_complete_and_balanced(self, small_twitter):
        p = GridPartitioner(seed=0).partition(small_twitter, 9,
                                              order="random", seed=1)
        assert p.is_complete()
        assert partition_balance(small_twitter, p) < 1.3

    def test_ragged_k_works(self, small_twitter):
        p = GridPartitioner(seed=0).partition(small_twitter, 7,
                                              order="random", seed=1)
        assert p.is_complete()
        assert p.assignment.max() < 7


class TestGreedy:
    def test_complete(self, small_twitter):
        p = GreedyVertexCutPartitioner(seed=0).partition(
            small_twitter, 8, order="random", seed=1)
        assert p.is_complete()

    def test_low_replication_on_random_order(self, small_twitter):
        greedy = GreedyVertexCutPartitioner(seed=0).partition(
            small_twitter, 8, order="random", seed=1)
        vcr = HashEdgePartitioner().partition(small_twitter, 8)
        assert (replication_factor(small_twitter, greedy)
                < replication_factor(small_twitter, vcr))

    def test_bfs_order_degrades_balance(self, small_social):
        """The paper's Section 4.2.2 failure mode: greedy follows the
        traversal into one partition."""
        random_order = GreedyVertexCutPartitioner(seed=0).partition(
            small_social, 8, order="random", seed=1)
        bfs_order = GreedyVertexCutPartitioner(seed=0).partition(
            small_social, 8, order="bfs", seed=1)
        assert (partition_balance(small_social, bfs_order)
                > partition_balance(small_social, random_order))


class TestHdrf:
    def test_complete_and_balanced(self, small_twitter):
        p = HdrfPartitioner(seed=0).partition(small_twitter, 8,
                                              order="random", seed=1)
        assert p.is_complete()
        assert partition_balance(small_twitter, p) < 1.05

    def test_balanced_even_on_bfs_order(self, small_social):
        """HDRF's lambda term avoids the single-partition collapse of
        PowerGraph greedy on BFS-ordered streams (Section 4.2.2).  Perfect
        balance is not guaranteed — a dense community larger than one
        partition legitimately overflows — but the collapse must not
        happen and greedy must be clearly worse."""
        hdrf = HdrfPartitioner(seed=0).partition(small_social, 8, order="bfs",
                                                 seed=1)
        greedy = GreedyVertexCutPartitioner(seed=0).partition(
            small_social, 8, order="bfs", seed=1)
        hdrf_balance = partition_balance(small_social, hdrf)
        assert hdrf_balance < 2.5
        assert hdrf_balance < partition_balance(small_social, greedy)

    def test_balanced_on_bfs_order_heavy_tailed(self, small_twitter):
        p = HdrfPartitioner(seed=0).partition(small_twitter, 8, order="bfs",
                                              seed=1)
        assert partition_balance(small_twitter, p) < 1.1

    def test_best_replication_on_power_law(self, small_web):
        hdrf = HdrfPartitioner(seed=0).partition(small_web, 8,
                                                 order="random", seed=1)
        for other in (HashEdgePartitioner(), DbhPartitioner(),
                      GridPartitioner(seed=0)):
            baseline = other.partition(small_web, 8, order="random", seed=1)
            assert (replication_factor(small_web, hdrf)
                    <= replication_factor(small_web, baseline) + 0.01)

    def test_star_hub_replicated_leaves_local(self):
        g = star_graph(400)
        p = HdrfPartitioner(seed=0).partition(g, 8, order="random", seed=1)
        counts = vertex_replica_counts(g, p)
        assert counts[0] >= 7          # hub replicated nearly everywhere
        assert counts[1:].mean() < 1.05

    def test_capacity_respected(self, small_twitter):
        p = HdrfPartitioner(balance_slack=1.0, seed=0).partition(
            small_twitter, 8, order="random", seed=1)
        capacity = math.ceil(small_twitter.num_edges / 8)
        # The balance term is soft, but with lambda > 1 the overshoot is
        # bounded to a few per cent.
        assert p.sizes().max() <= capacity * 1.05

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HdrfPartitioner(balance_weight=0)
        with pytest.raises(ConfigurationError):
            HdrfPartitioner(balance_slack=0.8)

    def test_non_finite_parameters_rejected(self):
        """A NaN λ used to send every edge to partition 0."""
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ConfigurationError, match="balance_weight.*nan"):
            HdrfPartitioner(balance_weight=nan)
        with pytest.raises(ConfigurationError, match="balance_weight.*inf"):
            HdrfPartitioner(balance_weight=inf)
        with pytest.raises(ConfigurationError, match="balance_slack.*nan"):
            HdrfPartitioner(balance_slack=nan)

    def test_stream_interface_matches_convenience(self, small_social):
        stream = EdgeStream(small_social, "random", seed=4)
        direct = HdrfPartitioner(seed=3).partition_stream(
            stream, 4, num_vertices=small_social.num_vertices,
            num_edges=small_social.num_edges)
        convenience = HdrfPartitioner(seed=3).partition(
            small_social, 4, order="random", seed=4)
        assert np.array_equal(direct.assignment, convenience.assignment)
