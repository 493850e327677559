"""Tests for the Appendix-A extensions: heterogeneous capacities,
weighted loads, incremental placement and Hermes-style refinement."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitioningError
from repro.metrics import edge_cut_ratio, load_imbalance
from repro.partitioning import (
    FennelPartitioner,
    HeterogeneousFennelPartitioner,
    HeterogeneousLdgPartitioner,
    IncrementalEdgeCutPartitioner,
    LdgPartitioner,
    RestreamingFennelPartitioner,
    RestreamingLdgPartitioner,
    WeightedLdgPartitioner,
    hermes_refine,
    make_partitioner,
)
from repro.partitioning.base import UNASSIGNED, VertexPartition
from repro.partitioning.heterogeneous import normalize_shares


class TestNormalizeShares:
    def test_normalises(self):
        shares = normalize_shares([1, 1, 2], 3)
        assert shares.tolist() == [0.25, 0.25, 0.5]

    def test_shape_checked(self):
        with pytest.raises(ConfigurationError):
            normalize_shares([1, 2], 3)

    def test_positive_checked(self):
        with pytest.raises(ConfigurationError):
            normalize_shares([1, 0, 1], 3)


def _digest(partition) -> str:
    data = np.ascontiguousarray(partition.assignment, dtype=np.int32)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _integer_weights(graph) -> np.ndarray:
    """Seeded weights in {0, 1, 2, 3}: partition loads tie often."""
    rng = np.random.default_rng(17)
    return rng.integers(0, 4, size=graph.num_vertices).astype(np.float64)


def _float_weights(graph) -> np.ndarray:
    rng = np.random.default_rng(2)
    return rng.pareto(1.5, graph.num_vertices) + 0.1


#: Builders of the Appendix-A variants at k=8, none of which has a golden
#: in data_golden_digests.json: non-uniform capacity shares, and vertex
#: weights drawn as small integers and as floats.
VARIANTS = {
    "ldg-het": lambda graph: HeterogeneousLdgPartitioner(
        [1, 2, 3, 4, 1, 2, 3, 5], seed=5),
    "fennel-het": lambda graph: HeterogeneousFennelPartitioner(
        [1, 2, 3, 4, 1, 2, 3, 5], seed=5),
    "ldg-w-int": lambda graph: WeightedLdgPartitioner(
        _integer_weights(graph), seed=5),
    "ldg-w-float": lambda graph: WeightedLdgPartitioner(
        _float_weights(graph), seed=5),
}

#: Assignment digests of VARIANTS at seed 3 per stream order.
VARIANT_PINS = {
    ("small_social", "ldg-het", "natural"): "118293f167fd25b7",
    ("small_social", "ldg-het", "random"): "cf4ef640d02ebb70",
    ("small_social", "ldg-het", "bfs"): "cc738c5d90877a82",
    ("small_social", "fennel-het", "natural"): "95aecd18276972e1",
    ("small_social", "fennel-het", "random"): "82e7d0d9378d9407",
    ("small_social", "fennel-het", "bfs"): "b233f7d7d5e07b45",
    ("small_social", "ldg-w-int", "natural"): "407faef5e91f738d",
    ("small_social", "ldg-w-int", "random"): "3457c99732e2340e",
    ("small_social", "ldg-w-int", "bfs"): "a75330c04120812f",
    ("small_social", "ldg-w-float", "natural"): "229a6e1bc1529f15",
    ("small_social", "ldg-w-float", "random"): "31819b7f6eff2318",
    ("small_social", "ldg-w-float", "bfs"): "40995c9c522a7197",
    ("small_twitter", "ldg-het", "natural"): "2ff6251ceeb85373",
    ("small_twitter", "ldg-het", "random"): "8143e120541f36db",
    ("small_twitter", "ldg-het", "bfs"): "6d88610f373ec55e",
    ("small_twitter", "fennel-het", "natural"): "faf02ceb70722d53",
    ("small_twitter", "fennel-het", "random"): "aba76759b3016bb3",
    ("small_twitter", "fennel-het", "bfs"): "ae834f6d964faaeb",
    ("small_twitter", "ldg-w-int", "natural"): "8b8c97ea3cca76b9",
    ("small_twitter", "ldg-w-int", "random"): "4244096c8c1810a2",
    ("small_twitter", "ldg-w-int", "bfs"): "a71bde31f1f3e958",
    ("small_twitter", "ldg-w-float", "natural"): "6f30c188b55f0119",
    ("small_twitter", "ldg-w-float", "random"): "ccc89c37eda456aa",
    ("small_twitter", "ldg-w-float", "bfs"): "13ec2cf12ce07ba5",
}


@pytest.mark.parametrize("case", sorted(VARIANT_PINS),
                         ids=lambda case: "-".join(case))
def test_variant_assignments_are_pinned(case, request):
    fixture, variant, order = case
    graph = request.getfixturevalue(fixture)
    partition = VARIANTS[variant](graph).partition(graph, 8, order=order,
                                                   seed=3)
    assert _digest(partition) == VARIANT_PINS[case]


class TestHeterogeneousLdg:
    def test_uniform_shares_behave_like_ldg(self, small_social,
                                            small_twitter, small_road):
        """Uniform shares are plain LDG, and one restreaming pass is the
        one-pass algorithm: 1/k is exact for these k, so the capacities
        agree and every run places every vertex alike."""
        for graph in (small_social, small_twitter, small_road):
            for order in ("natural", "random", "bfs"):
                for k in (4, 8, 16):
                    def run(partitioner):
                        return partitioner.partition(
                            graph, k, order=order, seed=4).assignment

                    case = (graph.name, order, k)
                    ldg = run(LdgPartitioner(seed=9))
                    assert np.array_equal(ldg, run(RestreamingLdgPartitioner(
                        num_passes=1, seed=9))), case
                    assert np.array_equal(ldg, run(
                        HeterogeneousLdgPartitioner([1] * k, seed=9))), case
                    fennel = run(FennelPartitioner(seed=9))
                    assert np.array_equal(fennel, run(
                        RestreamingFennelPartitioner(num_passes=1,
                                                     seed=9))), case
        uniform = HeterogeneousLdgPartitioner([1, 1, 1, 1], seed=0).partition(
            small_social, 4, order="random", seed=1)
        assert load_imbalance(uniform.sizes()) < 1.1

    def test_sizes_track_shares(self, small_social):
        shares = [1, 1, 2, 4]
        p = HeterogeneousLdgPartitioner(shares, seed=0).partition(
            small_social, 4, order="random", seed=1)
        sizes = p.sizes().astype(float)
        fractions = sizes / sizes.sum()
        expected = np.array(shares) / sum(shares)
        assert np.all(np.abs(fractions - expected) < 0.10)

    def test_capacity_never_exceeded(self, small_social):
        shares = np.array([1.0, 3.0])
        p = HeterogeneousLdgPartitioner(shares, balance_slack=1.0,
                                        seed=0).partition(
            small_social, 2, order="random", seed=1)
        capacities = np.ceil(shares / shares.sum()
                             * small_social.num_vertices)
        assert np.all(p.sizes() <= capacities + 1)

    def test_invalid_slack(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousLdgPartitioner([1, 1], balance_slack=0.5)


class TestHeterogeneousFennel:
    def test_complete_and_tracks_shares(self, small_social):
        shares = [1, 2, 2, 3]
        p = HeterogeneousFennelPartitioner(shares, seed=0).partition(
            small_social, 4, order="random", seed=1)
        assert p.is_complete()
        fractions = p.sizes() / small_social.num_vertices
        expected = np.array(shares) / sum(shares)
        assert np.all(np.abs(fractions - expected) < 0.15)

    def test_cut_quality_retained(self, small_social):
        het = HeterogeneousFennelPartitioner([1, 1, 1, 1], seed=0).partition(
            small_social, 4, order="random", seed=1)
        hashed = make_partitioner("ecr").partition(small_social, 4)
        assert (edge_cut_ratio(small_social, het)
                < edge_cut_ratio(small_social, hashed))

    def test_requires_alpha_or_edges(self, small_social):
        from repro.graph import VertexStream
        stream = VertexStream(small_social)

        class Opaque:
            def __iter__(self):
                return iter(stream)

        with pytest.raises(ConfigurationError):
            HeterogeneousFennelPartitioner([1, 1]).partition_stream(
                Opaque(), 2, num_vertices=small_social.num_vertices)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousFennelPartitioner([1, 1], gamma=1.0)
        with pytest.raises(ConfigurationError):
            HeterogeneousFennelPartitioner([1, 1], load_cap=0.5)


class TestIncrementalPlacement:
    def test_new_vertex_joins_neighbour_majority(self, small_social):
        base = LdgPartitioner(seed=0).partition(small_social, 4,
                                                order="random", seed=1)
        incremental = IncrementalEdgeCutPartitioner(base, seed=0)
        # A new vertex whose neighbours all live in one partition.
        members = np.flatnonzero(base.assignment == 2)[:5]
        chosen = incremental.add_vertex(members)
        assert chosen == 2

    def test_assignment_grows(self, small_social):
        base = LdgPartitioner(seed=0).partition(small_social, 4,
                                                order="random", seed=1)
        incremental = IncrementalEdgeCutPartitioner(base, seed=0)
        incremental.add_vertex([0, 1])
        snapshot = incremental.to_partition()
        assert snapshot.num_vertices == small_social.num_vertices + 1
        assert snapshot.is_complete()

    def test_balance_pressure_with_no_neighbours(self, small_social):
        base = LdgPartitioner(seed=0).partition(small_social, 4,
                                                order="random", seed=1)
        incremental = IncrementalEdgeCutPartitioner(base, seed=0)
        sizes_before = base.sizes()
        chosen = incremental.add_vertex([])
        # With no neighbour signal, the vertex lands on one of the
        # least-loaded partitions (ties break randomly).
        assert sizes_before[chosen] == sizes_before.min()

    def test_incomplete_base_rejected(self):
        base = VertexPartition(2, [0, UNASSIGNED])
        with pytest.raises(PartitioningError):
            IncrementalEdgeCutPartitioner(base)

    def test_unknown_neighbours_ignored(self, small_social):
        base = LdgPartitioner(seed=0).partition(small_social, 4,
                                                order="random", seed=1)
        incremental = IncrementalEdgeCutPartitioner(base, seed=0)
        chosen = incremental.add_vertex([10**7])
        assert 0 <= chosen < 4

    def test_arrivals_below_capacity_reuse_the_buffer(self, small_social):
        # The assignment grows by doubling, not by copying on each call:
        # the second arrival fits in the room the first one made.
        base = LdgPartitioner(seed=0).partition(small_social, 4,
                                                order="random", seed=1)
        incremental = IncrementalEdgeCutPartitioner(base, seed=0)
        incremental.add_vertex([0, 1])
        first = incremental.assignment
        incremental.add_vertex([2, 3])
        second = incremental.assignment
        assert np.shares_memory(first, second)
        assert second.size == small_social.num_vertices + 2
        assert np.array_equal(second[:first.size], first)
        assert np.array_equal(second[:base.num_vertices], base.assignment)


class TestHermesRefine:
    def test_cut_never_worse(self, small_social):
        base = make_partitioner("ecr").partition(small_social, 8)
        refined = hermes_refine(small_social, base, seed=1)
        assert (edge_cut_ratio(small_social, refined)
                <= edge_cut_ratio(small_social, base))

    def test_improves_hash_partitioning_substantially(self, small_social):
        base = make_partitioner("ecr").partition(small_social, 8)
        refined = hermes_refine(small_social, base, seed=1)
        assert (edge_cut_ratio(small_social, refined)
                < 0.9 * edge_cut_ratio(small_social, base))

    def test_balance_respected(self, small_social):
        base = make_partitioner("ecr").partition(small_social, 8)
        refined = hermes_refine(small_social, base, balance_slack=1.1, seed=1)
        assert refined.sizes().max() <= 1.12 * small_social.num_vertices / 8

    def test_input_not_modified(self, small_social):
        base = make_partitioner("ecr").partition(small_social, 8)
        before = base.assignment.copy()
        hermes_refine(small_social, base, seed=1)
        assert np.array_equal(base.assignment, before)

    def test_algorithm_label(self, small_social):
        base = make_partitioner("ecr").partition(small_social, 4)
        refined = hermes_refine(small_social, base, seed=1)
        assert refined.algorithm == "ecr+hermes"

    def test_converged_input_unchanged(self):
        from repro.graph.generators import path_graph
        g = path_graph(8)
        # Perfect split of a path: nothing to improve.
        base = VertexPartition(2, [0, 0, 0, 0, 1, 1, 1, 1])
        refined = hermes_refine(g, base, seed=1)
        assert edge_cut_ratio(g, refined) == edge_cut_ratio(g, base)

    def test_validation(self, small_social):
        base = make_partitioner("ecr").partition(small_social, 4)
        with pytest.raises(ConfigurationError):
            hermes_refine(small_social, base, balance_slack=0.5)
        short = VertexPartition(2, [0, 1])
        with pytest.raises(PartitioningError):
            hermes_refine(small_social, short)
