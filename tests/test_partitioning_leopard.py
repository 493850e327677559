"""Tests for the Leopard-style dynamic edge-cut partitioner."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import edge_cut_ratio, partition_balance
from repro.partitioning import LeopardPartitioner, make_partitioner


class TestLeopardPlacement:
    def test_complete(self, small_social):
        partition = LeopardPartitioner().partition(small_social, 8,
                                                   order="random", seed=1)
        assert partition.is_complete()
        assert partition.algorithm == "leopard"

    def test_beats_hash_cut(self, small_social):
        leopard = LeopardPartitioner().partition(small_social, 8,
                                                 order="random", seed=1)
        hashed = make_partitioner("ecr").partition(small_social, 8)
        assert (edge_cut_ratio(small_social, leopard)
                < edge_cut_ratio(small_social, hashed) - 0.1)

    def test_balance_bounded(self, small_social):
        partition = LeopardPartitioner(balance_slack=1.1).partition(
            small_social, 8, order="random", seed=1)
        assert partition_balance(small_social, partition) < 1.3

    def test_reassignments_occur(self, small_social):
        partitioner = LeopardPartitioner()
        partitioner.partition(small_social, 8, order="random", seed=1)
        assert partitioner.last_reassignments > 0

    def test_sticky_gain_reduces_churn(self, small_social):
        eager = LeopardPartitioner(reassignment_gain=1.0)
        sticky = LeopardPartitioner(reassignment_gain=3.0)
        eager.partition(small_social, 8, order="random", seed=1)
        sticky.partition(small_social, 8, order="random", seed=1)
        assert sticky.last_reassignments < eager.last_reassignments

    def test_isolated_vertices_placed(self):
        from repro.graph import Graph
        g = Graph(10, np.array([0]), np.array([1]))
        partition = LeopardPartitioner().partition(g, 4)
        assert partition.is_complete()


class TestLeopardReplication:
    def test_replica_sets_include_primary(self, small_social):
        partitioner = LeopardPartitioner()
        partition = partitioner.partition(small_social, 8, order="random",
                                          seed=1)
        for vertex in range(0, small_social.num_vertices, 97):
            assert int(partition.assignment[vertex]) in \
                partitioner.last_replicas[vertex]

    def test_max_replicas_respected(self, small_social):
        partitioner = LeopardPartitioner(max_replicas=2)
        partitioner.partition(small_social, 8, order="random", seed=1)
        assert max(len(c) for c in partitioner.last_replicas) <= 2

    def test_replication_overhead_in_range(self, small_social):
        partitioner = LeopardPartitioner(max_replicas=3)
        partitioner.partition(small_social, 8, order="random", seed=1)
        overhead = partitioner.replication_overhead()
        assert 1.0 <= overhead <= 3.0

    def test_replicas_improve_read_locality(self, small_social):
        """The point of Leopard: replica-covered reads beat the plain
        edge-cut locality of the same primaries."""
        partitioner = LeopardPartitioner()
        partition = partitioner.partition(small_social, 8, order="random",
                                          seed=1)
        plain_locality = 1.0 - edge_cut_ratio(small_social, partition)
        assert partitioner.local_read_fraction(small_social) > plain_locality

    def test_higher_fraction_threshold_fewer_replicas(self, small_social):
        generous = LeopardPartitioner(replication_fraction=0.1)
        strict = LeopardPartitioner(replication_fraction=0.9)
        generous.partition(small_social, 8, order="random", seed=1)
        strict.partition(small_social, 8, order="random", seed=1)
        assert strict.replication_overhead() <= generous.replication_overhead()

    def test_no_run_yet(self):
        partitioner = LeopardPartitioner()
        assert partitioner.replication_overhead() == 0.0


class TestLeopardValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(balance_slack=0.9),
        dict(reassignment_gain=0.5),
        dict(replication_fraction=0.0),
        dict(replication_fraction=1.5),
        dict(max_replicas=0),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            LeopardPartitioner(**kwargs)

    @pytest.mark.parametrize("name", ["reassignment_gain", "max_replicas"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bounds_rejected(self, name, value):
        # NaN passed the old `< 1` checks: a NaN gain moved on every
        # better score and a NaN cap kept every copy.
        with pytest.raises(ConfigurationError, match=name):
            LeopardPartitioner(**{name: value})
