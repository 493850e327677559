"""Tests for the multilevel offline partitioner (the MTS baseline)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import Graph
from repro.graph.generators import path_graph
from repro.metrics import edge_cut_ratio, partition_balance
from repro.partitioning import (
    FennelPartitioner,
    MultilevelPartitioner,
    multilevel_partition,
)


class TestMultilevelBasics:
    def test_complete_and_in_range(self, small_social):
        p = multilevel_partition(small_social, 8, seed=1)
        assert p.is_complete()
        assert p.assignment.max() < 8

    def test_balance_constraint(self, small_social):
        p = multilevel_partition(small_social, 8, balance_slack=1.05, seed=1)
        assert partition_balance(small_social, p) <= 1.06

    def test_balance_on_heavy_tailed(self, small_twitter):
        p = multilevel_partition(small_twitter, 16, balance_slack=1.05, seed=1)
        assert partition_balance(small_twitter, p) <= 1.1

    def test_beats_streaming_on_road(self, small_road):
        mts = multilevel_partition(small_road, 8, seed=1)
        fennel = FennelPartitioner(seed=0).partition(small_road, 8,
                                                     order="random", seed=1)
        assert (edge_cut_ratio(small_road, mts)
                < edge_cut_ratio(small_road, fennel))

    def test_near_optimal_on_path(self):
        g = path_graph(256)
        p = multilevel_partition(g, 4, seed=1)
        # Optimal cut for a path into 4 chunks is 3 edges.
        assert edge_cut_ratio(g, p) <= 12 / 255

    def test_empty_graph(self):
        from repro.graph.generators import empty_graph
        p = multilevel_partition(empty_graph(0), 4, seed=1)
        assert p.num_vertices == 0

    def test_k1(self, small_road):
        p = multilevel_partition(small_road, 1, seed=1)
        assert np.all(p.assignment == 0)

    def test_disconnected_components_handled(self):
        src = np.array([0, 1, 4, 5])
        dst = np.array([1, 2, 5, 6])
        g = Graph(8, src, dst)
        p = multilevel_partition(g, 2, seed=1)
        assert p.is_complete()

    def test_deterministic(self, small_road):
        a = multilevel_partition(small_road, 8, seed=42)
        b = multilevel_partition(small_road, 8, seed=42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_slack(self, small_road):
        with pytest.raises(ConfigurationError):
            multilevel_partition(small_road, 4, balance_slack=0.9)

    def test_nan_slack_rejected(self, small_road):
        with pytest.raises(ConfigurationError, match="balance_slack.*nan"):
            multilevel_partition(small_road, 4, balance_slack=float("nan"))
        with pytest.raises(ConfigurationError, match="balance_slack.*nan"):
            MultilevelPartitioner(balance_slack=float("nan"))

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_non_finite_vertex_weight_rejected(self, small_road, bad):
        """One NaN or inf weight used to put every vertex in one
        partition."""
        weights = np.ones(small_road.num_vertices)
        weights[7] = bad
        with pytest.raises(ConfigurationError,
                           match=f"vertex_weights.*{bad!r}.*vertex 7"):
            multilevel_partition(small_road, 4, vertex_weights=weights)


class TestVertexWeights:
    def test_weighted_balance(self, small_social):
        rng = np.random.default_rng(0)
        weights = rng.pareto(1.5, small_social.num_vertices) + 0.1
        p = multilevel_partition(small_social, 8, vertex_weights=weights,
                                 balance_slack=1.1, seed=1)
        loads = np.bincount(p.assignment, weights=weights, minlength=8)
        assert loads.max() <= 1.15 * weights.sum() / 8

    def test_zero_weights_accepted(self, small_road):
        weights = np.zeros(small_road.num_vertices)
        weights[:10] = 5.0
        p = multilevel_partition(small_road, 4, vertex_weights=weights, seed=1)
        assert p.is_complete()

    def test_wrong_shape_rejected(self, small_road):
        with pytest.raises(ConfigurationError):
            multilevel_partition(small_road, 4, vertex_weights=[1.0, 2.0])

    def test_negative_weights_rejected(self, small_road):
        weights = np.full(small_road.num_vertices, -1.0)
        with pytest.raises(ConfigurationError):
            multilevel_partition(small_road, 4, vertex_weights=weights)


class TestWrapperClass:
    def test_registry_compatible_interface(self, small_road):
        p = MultilevelPartitioner().partition(small_road, 4, order="random",
                                              seed=7)
        assert p.algorithm == "mts"
        assert p.is_complete()

    def test_order_ignored(self, small_road):
        a = MultilevelPartitioner().partition(small_road, 4, order="bfs",
                                              seed=7)
        b = MultilevelPartitioner().partition(small_road, 4, order="random",
                                              seed=7)
        assert np.array_equal(a.assignment, b.assignment)
