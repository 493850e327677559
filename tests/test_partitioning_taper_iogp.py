"""Tests for TAPER-style query-aware refinement and IOGP."""

import numpy as np
import pytest

from repro.database import WorkloadGenerator, plan_query
from repro.errors import ConfigurationError, PartitioningError
from repro.metrics import edge_cut_ratio, load_imbalance, partition_balance
from repro.partitioning import (
    IogpPartitioner,
    inter_partition_traversals,
    make_partitioner,
    taper_refine,
    traversal_weights_from_plans,
)
from repro.partitioning.base import UNASSIGNED, VertexPartition


@pytest.fixture(scope="module")
def query_setup(request):
    from repro.graph.generators import ldbc_like
    graph = ldbc_like(num_vertices=1200, avg_degree=12, seed=31)
    generator = WorkloadGenerator(graph, skew=0.6, seed=7)
    bindings = generator.bindings("one_hop", 150)
    plans = [plan_query(graph, b.kind, b.start_vertex) for b in bindings]
    return graph, plans


class TestTraversalWeights:
    def test_one_hop_weights_start_edges(self, tiny_graph):
        plan = plan_query(tiny_graph, "one_hop", 2)
        weights = traversal_weights_from_plans(tiny_graph, [plan])
        # Edges incident to vertex 2 that reach its neighbours {0, 1, 3}.
        for eid, (u, v) in enumerate(tiny_graph.edges()):
            if 2 in (u, v):
                assert weights[eid] == 1.0
            else:
                assert weights[eid] == 0.0

    def test_repeated_queries_accumulate(self, tiny_graph):
        plan = plan_query(tiny_graph, "one_hop", 2)
        weights = traversal_weights_from_plans(tiny_graph, [plan, plan, plan])
        assert weights.max() == 3.0

    def test_weight_array_shape(self, query_setup):
        graph, plans = query_setup
        weights = traversal_weights_from_plans(graph, plans)
        assert weights.shape == (graph.num_edges,)
        assert weights.sum() > 0


class TestTaperObjective:
    def test_zero_when_colocated(self, tiny_graph):
        partition = VertexPartition(2, [0] * 6)
        weights = np.ones(tiny_graph.num_edges)
        assert inter_partition_traversals(tiny_graph, partition, weights) == 0.0

    def test_counts_weighted_cut(self, tiny_graph):
        partition = VertexPartition(2, [0, 0, 1, 1, 1, 1])
        weights = np.arange(tiny_graph.num_edges, dtype=float)
        # Cut edges: (0,2)=eid1 and (1,2)=eid2.
        assert inter_partition_traversals(tiny_graph, partition, weights) == 3.0

    def test_shape_checked(self, tiny_graph):
        partition = VertexPartition(2, [0] * 6)
        with pytest.raises(ConfigurationError):
            inter_partition_traversals(tiny_graph, partition, [1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_bad_cut_weight_rejected(self, tiny_graph, bad):
        # Edge 1 is cut: a NaN there read as a NaN objective and -5 as a
        # smaller one.
        partition = VertexPartition(2, [0, 0, 1, 1, 1, 1])
        weights = np.ones(tiny_graph.num_edges)
        weights[1] = bad
        with pytest.raises(ConfigurationError, match="edge weight 1"):
            inter_partition_traversals(tiny_graph, partition, weights)


class TestTaperRefine:
    def test_objective_never_worse(self, query_setup):
        graph, plans = query_setup
        weights = traversal_weights_from_plans(graph, plans)
        base = make_partitioner("ecr").partition(graph, 8)
        refined = taper_refine(graph, base, weights, seed=1)
        assert (inter_partition_traversals(graph, refined, weights)
                <= inter_partition_traversals(graph, base, weights))

    def test_substantial_improvement_over_hash(self, query_setup):
        graph, plans = query_setup
        weights = traversal_weights_from_plans(graph, plans)
        base = make_partitioner("ecr").partition(graph, 8)
        refined = taper_refine(graph, base, weights, seed=1)
        before = inter_partition_traversals(graph, base, weights)
        after = inter_partition_traversals(graph, refined, weights)
        assert after < 0.8 * before

    def test_balance_respected(self, query_setup):
        graph, plans = query_setup
        weights = traversal_weights_from_plans(graph, plans)
        base = make_partitioner("ecr").partition(graph, 8)
        refined = taper_refine(graph, base, weights, balance_slack=1.1, seed=1)
        assert load_imbalance(refined.sizes()) <= 1.12

    def test_only_traversed_edges_matter(self, query_setup):
        """With zero weights nothing moves."""
        graph, _plans = query_setup
        base = make_partitioner("ecr").partition(graph, 8)
        refined = taper_refine(graph, base, np.zeros(graph.num_edges), seed=1)
        assert np.array_equal(refined.assignment, base.assignment)

    def test_algorithm_label(self, query_setup):
        graph, plans = query_setup
        weights = traversal_weights_from_plans(graph, plans)
        base = make_partitioner("ecr").partition(graph, 4)
        refined = taper_refine(graph, base, weights, seed=1)
        assert refined.algorithm == "ecr+taper"

    def test_validation(self, query_setup):
        graph, _plans = query_setup
        base = make_partitioner("ecr").partition(graph, 4)
        with pytest.raises(ConfigurationError):
            taper_refine(graph, base, np.full(graph.num_edges, -1.0))
        with pytest.raises(ConfigurationError):
            taper_refine(graph, base, np.zeros(graph.num_edges),
                         balance_slack=0.5)
        incomplete = VertexPartition(
            2, [UNASSIGNED] * graph.num_vertices)
        with pytest.raises(PartitioningError):
            taper_refine(graph, incomplete, np.zeros(graph.num_edges))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, query_setup, bad):
        """A NaN weight used to move vertices and leave a NaN objective;
        an inf one raised an inf - inf RuntimeWarning."""
        graph, plans = query_setup
        weights = traversal_weights_from_plans(graph, plans)
        weights[7] = bad
        base = make_partitioner("ecr").partition(graph, 4)
        with pytest.raises(ConfigurationError, match="edge weight 7"):
            taper_refine(graph, base, weights)


class TestIogp:
    def test_complete_assignment(self, small_twitter):
        partition = IogpPartitioner().partition(small_twitter, 8,
                                                order="random", seed=1)
        assert partition.is_complete()

    def test_beats_pure_hash_on_clustered_graph(self, small_social):
        iogp = IogpPartitioner().partition(small_social, 8, order="random",
                                           seed=1)
        hashed = make_partitioner("ecr").partition(small_social, 8)
        assert (edge_cut_ratio(small_social, iogp)
                < edge_cut_ratio(small_social, hashed))

    def test_worse_than_vertex_stream_counterparts(self, small_social):
        """Section 4.1.2: edge-stream edge-cut methods 'produce
        partitionings of lower quality than their vertex stream
        counterparts'."""
        iogp = IogpPartitioner().partition(small_social, 8, order="random",
                                           seed=1)
        ldg = make_partitioner("ldg", seed=0).partition(small_social, 8,
                                                        order="random", seed=1)
        assert (edge_cut_ratio(small_social, iogp)
                >= edge_cut_ratio(small_social, ldg) - 0.02)

    def test_reassignments_happen(self, small_social):
        partitioner = IogpPartitioner()
        partitioner.partition(small_social, 8, order="random", seed=1)
        assert partitioner.last_reassignments > 0

    def test_balance_constraint_after_migrations(self, small_social):
        partitioner = IogpPartitioner(balance_slack=1.1)
        partition = partitioner.partition(small_social, 8, order="random",
                                          seed=1)
        # Migrations respect the capacity cap, but first-sight hash
        # placements are unconditional (as in the original system), so the
        # final imbalance can slightly exceed beta.
        assert partition_balance(small_social, partition) < 1.3

    def test_isolated_vertices_hashed(self):
        from repro.graph import Graph
        g = Graph(10, np.array([0, 1]), np.array([1, 2]))
        partition = IogpPartitioner().partition(g, 4)
        assert partition.is_complete()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IogpPartitioner(balance_slack=0.9)
        with pytest.raises(ConfigurationError):
            IogpPartitioner(reassignment_threshold=1.5)
