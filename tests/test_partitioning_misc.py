"""Tests for conversion (Appendix B), registry, decision tree and the
workload-aware partitioners."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitioningError
from repro.graph.generators import erdos_renyi
from repro.metrics import load_imbalance, replication_factor
from repro.partitioning import (
    CUT_MODELS,
    OFFLINE_ALGORITHMS,
    ONLINE_ALGORITHMS,
    HashVertexPartitioner,
    LdgPartitioner,
    Recommendation,
    WeightedLdgPartitioner,
    available_algorithms,
    canonical_name,
    cut_model,
    edge_cut_to_edge_partition,
    expected_replication_factor,
    make_partitioner,
    recommend,
    recommend_for_graph,
    workload_aware_partition,
)
from repro.partitioning.base import UNASSIGNED, VertexPartition


class TestConversion:
    def test_edges_follow_source(self, tiny_graph):
        vp = VertexPartition(2, [0, 0, 1, 1, 0, 0])
        ep = edge_cut_to_edge_partition(tiny_graph, vp)
        for eid, (u, _v) in enumerate(tiny_graph.edges()):
            assert ep.assignment[eid] == vp.assignment[u]

    def test_masters_are_vertex_partition(self, tiny_graph):
        vp = VertexPartition(2, [0, 1, 0, 1, 0, 1])
        ep = edge_cut_to_edge_partition(tiny_graph, vp)
        assert np.array_equal(ep.masters, vp.assignment)

    def test_incomplete_rejected(self, tiny_graph):
        vp = VertexPartition(2, [0, 1, 0, 1, 0, UNASSIGNED])
        with pytest.raises(PartitioningError):
            edge_cut_to_edge_partition(tiny_graph, vp)

    def test_size_mismatch_rejected(self, tiny_graph):
        vp = VertexPartition(2, [0, 1])
        with pytest.raises(PartitioningError):
            edge_cut_to_edge_partition(tiny_graph, vp)

    def test_expected_rf_closed_form_matches_simulation(self):
        """Appendix B's formula vs measured hash partitioning."""
        graph = erdos_renyi(2000, 30_000, seed=3)
        k = 8
        measured = []
        for seed in range(5):
            vp = HashVertexPartitioner(hash_seed=seed).partition(graph, k)
            ep = edge_cut_to_edge_partition(graph, vp)
            measured.append(replication_factor(graph, ep))
        expected = expected_replication_factor(graph.in_degree, k)
        assert abs(np.mean(measured) - expected) < 0.05

    def test_expected_rf_edge_cases(self):
        assert expected_replication_factor(np.array([]), 4) == 0.0
        assert expected_replication_factor(np.array([5, 5]), 1) == 1.0

    def test_expected_rf_monotone_in_k(self):
        degrees = np.full(100, 10)
        values = [expected_replication_factor(degrees, k) for k in (2, 4, 8, 16)]
        assert values == sorted(values)


class TestRegistry:
    def test_all_algorithms_constructible(self):
        for name in available_algorithms():
            partitioner = make_partitioner(name)
            assert partitioner is not None

    def test_paper_acronyms_resolve(self):
        assert canonical_name("FNL") == "fennel"
        assert canonical_name("metis") == "mts"
        assert canonical_name("Ginger") == "hg"
        assert canonical_name("hash") == "ecr"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_name("quantum")

    def test_cut_models_cover_everything(self):
        assert set(CUT_MODELS) == set(available_algorithms())

    def test_cut_model_lookup(self):
        assert cut_model("hdrf") == "vertex-cut"
        assert cut_model("LDG") == "edge-cut"
        assert cut_model("hg") == "hybrid-cut"

    def test_experiment_sets_are_known(self):
        for name in OFFLINE_ALGORITHMS + ONLINE_ALGORITHMS:
            assert name in available_algorithms()

    def test_kwargs_forwarded(self):
        p = make_partitioner("hdrf", balance_weight=2.5)
        assert p.balance_weight == 2.5

    def test_every_streaming_partitioner_is_registered(self):
        """Each public partitioner class under edge_cut/, vertex_cut/ and
        hybrid/ has a registry entry, so "all algorithms" sweeps reach it.
        Every module there is imported first, so a class in a file that
        nothing imports yet is found too."""
        import importlib
        import pkgutil

        from repro.partitioning import edge_cut, hybrid, registry, vertex_cut
        from repro.partitioning.base import EdgePartitioner, VertexPartitioner

        packages = (edge_cut, vertex_cut, hybrid)
        for package in packages:
            for info in pkgutil.iter_modules(package.__path__,
                                             package.__name__ + "."):
                importlib.import_module(info.name)
        scopes = tuple(package.__name__ + "." for package in packages)
        found, stack = set(), [VertexPartitioner, EdgePartitioner]
        while stack:
            for cls in stack.pop().__subclasses__():
                if cls not in found:
                    found.add(cls)
                    stack.append(cls)
        public = {cls for cls in found if cls.__module__.startswith(scopes)
                  and not cls.__name__.startswith("_")}
        registered = set(registry._FACTORIES.values())
        unregistered = public - registered
        assert not unregistered, sorted(
            f"{cls.__module__}.{cls.__name__}" for cls in unregistered)
        # The walk sees every registered class in scope (not vacuous).
        assert {cls for cls in registered
                if cls.__module__.startswith(scopes)} == public

    def test_all_offline_algorithms_partition(self, small_twitter):
        for name in OFFLINE_ALGORITHMS:
            partitioner = make_partitioner(name)
            partition = partitioner.partition(small_twitter, 4,
                                              order="random", seed=1)
            assert partition.is_complete(), name


class TestDecisionTree:
    def test_online_tail_latency(self):
        rec = recommend("online", tail_latency_critical=True)
        assert rec.algorithm == "ecr"

    def test_online_high_load(self):
        rec = recommend("online", load="high")
        assert rec.algorithm == "ecr"

    def test_online_medium_throughput(self):
        rec = recommend("online", load="medium", objective="throughput")
        assert rec.algorithm == "fennel"

    def test_online_medium_latency(self):
        rec = recommend("online", load="medium", objective="latency")
        assert rec.algorithm == "ecr"

    def test_analytics_by_graph_type(self):
        assert recommend("analytics", graph_type="low-degree").algorithm == "fennel"
        assert recommend("analytics", graph_type="power-law").algorithm == "hdrf"
        assert recommend("analytics", graph_type="heavy-tailed").algorithm == "hg"

    def test_analytics_requires_graph_type(self):
        with pytest.raises(ConfigurationError):
            recommend("analytics")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            recommend("batch")

    def test_unknown_graph_type_rejected(self):
        with pytest.raises(ConfigurationError):
            recommend("analytics", graph_type="bipartite")

    def test_bogus_load_rejected(self):
        """Regression: load="HIGH" used to fall through to the medium branch."""
        with pytest.raises(ConfigurationError, match="load"):
            recommend("online", load="HIGH")

    def test_bogus_objective_rejected(self):
        """Regression: objective typos used to silently pick the latency leaf."""
        with pytest.raises(ConfigurationError, match="objective"):
            recommend("online", objective="latencyy")

    def test_recommend_for_graph_classifies(self, small_road):
        rec = recommend_for_graph(small_road, "analytics")
        assert rec.algorithm == "fennel"
        assert "low-degree" in " ".join(rec.path)

    def test_recommendation_renders(self):
        rec = Recommendation("ecr", ("a", "b"))
        assert "ecr" in str(rec)


class TestWorkloadAware:
    def test_weighted_partition_balances_access(self, small_social):
        rng = np.random.default_rng(1)
        # Skewed but feasible: no single vertex may exceed the partition
        # capacity, or no vertex-disjoint partitioning can balance it.
        counts = np.clip(rng.pareto(1.2, small_social.num_vertices) * 10,
                         0, 200).astype(int)
        p = workload_aware_partition(small_social, 8, counts,
                                     balance_slack=1.1, seed=1)
        loads = np.bincount(p.assignment, weights=counts + 1.0, minlength=8)
        assert load_imbalance(loads) < 1.2

    def test_unweighted_ignores_access_balance(self, small_social):
        """The contrast behind Figure 8: balancing on vertex count leaves
        access load skewed."""
        rng = np.random.default_rng(1)
        counts = (rng.pareto(1.2, small_social.num_vertices) * 10).astype(int)
        from repro.partitioning import multilevel_partition
        unweighted = multilevel_partition(small_social, 8, seed=1)
        weighted = workload_aware_partition(small_social, 8, counts, seed=1)
        loads_u = np.bincount(unweighted.assignment, weights=counts + 1.0,
                              minlength=8)
        loads_w = np.bincount(weighted.assignment, weights=counts + 1.0,
                              minlength=8)
        assert load_imbalance(loads_w) < load_imbalance(loads_u)

    def test_algorithm_label(self, small_social):
        counts = np.ones(small_social.num_vertices)
        p = workload_aware_partition(small_social, 4, counts, seed=1)
        assert p.algorithm == "mts-w"

    def test_invalid_counts_rejected(self, small_social):
        with pytest.raises(ConfigurationError):
            workload_aware_partition(small_social, 4, [1, 2, 3])
        with pytest.raises(ConfigurationError):
            workload_aware_partition(
                small_social, 4, -np.ones(small_social.num_vertices))

    def test_weighted_ldg_balances_attribute(self, small_social):
        rng = np.random.default_rng(2)
        weights = rng.pareto(1.5, small_social.num_vertices) + 0.1
        p = WeightedLdgPartitioner(weights, seed=0).partition(
            small_social, 4, order="random", seed=1)
        loads = np.bincount(p.assignment, weights=weights, minlength=4)
        plain = LdgPartitioner(seed=0).partition(small_social, 4,
                                                 order="random", seed=1)
        loads_plain = np.bincount(plain.assignment, weights=weights,
                                  minlength=4)
        assert load_imbalance(loads) <= load_imbalance(loads_plain)

    def test_weighted_ldg_validates_weights(self, small_social):
        with pytest.raises(ConfigurationError):
            WeightedLdgPartitioner([-1.0])
        partitioner = WeightedLdgPartitioner(np.ones(3))
        from repro.graph import VertexStream
        with pytest.raises(ConfigurationError):
            partitioner.partition_stream(
                VertexStream(small_social), 4,
                num_vertices=small_social.num_vertices)
