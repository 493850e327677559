"""Tests for repro.analytics.placement.Placement."""

import numpy as np
import pytest

from repro.analytics import Placement
from repro.errors import PartitioningError
from repro.graph import Graph
from repro.metrics import replication_factor
from repro.partitioning import (
    GingerPartitioner,
    HashEdgePartitioner,
    HashVertexPartitioner,
    HybridHashPartitioner,
    LdgPartitioner,
    edge_cut_to_edge_partition,
)
from repro.partitioning.base import EdgePartition, VertexPartition


class TestFromVertexPartition:
    def test_edges_at_source_master(self, tiny_graph):
        vp = VertexPartition(2, [0, 0, 1, 1, 0, 1])
        placement = Placement(tiny_graph, vp)
        for eid, (u, _v) in enumerate(tiny_graph.edges()):
            assert placement.edge_parts[eid] == vp.assignment[u]

    def test_masters_are_vertex_assignment(self, tiny_graph):
        vp = VertexPartition(2, [0, 0, 1, 1, 0, 1])
        placement = Placement(tiny_graph, vp)
        assert np.array_equal(placement.master, vp.assignment)

    def test_isolated_vertices_keep_their_partition(self, small_web):
        """An edge-cut vertex's master is its partition, also when it has
        no edge: the masters are the partition's vertex load."""
        vp = LdgPartitioner(seed=1).partition(small_web, 8, order="natural")
        placement = Placement(small_web, vp)
        assert np.count_nonzero(small_web.degree == 0) > 0
        assert np.array_equal(placement.master, vp.assignment)
        assert np.array_equal(placement.masters_per_partition(), vp.sizes())

    def test_out_mirrors_zero_for_edge_cut(self, small_twitter):
        """Appendix B: out-edges are master-local, so a changed vertex has
        no out-edge mirrors to update — the PageRank advantage."""
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, vp)
        assert placement.mirror_counts_out.sum() == 0

    def test_replication_factor_matches_metric(self, small_twitter):
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, vp)
        ep = edge_cut_to_edge_partition(small_twitter, vp)
        assert placement.replication_factor() == pytest.approx(
            replication_factor(small_twitter, ep), abs=0.05)


class TestFromEdgePartition:
    def test_mirror_counts(self):
        g = Graph(3, np.array([0, 0]), np.array([1, 2]))
        ep = EdgePartition(2, [0, 1])
        placement = Placement(g, ep)
        # Vertex 0 touches partitions {0, 1}: one mirror.
        assert placement.mirror_counts_all[0] == 1
        assert placement.mirror_counts_all[1] == 0
        assert placement.mirror_counts_all[2] == 0

    def test_master_within_replica_set(self):
        g = Graph(2, np.array([0, 0, 0]), np.array([1, 1, 1]))
        ep = EdgePartition(3, [1, 1, 0])
        placement = Placement(g, ep)
        # Masters live where the vertex already has edges: {0, 1}, not 2.
        assert placement.master[0] in (0, 1)
        assert placement.master[1] in (0, 1)

    def test_hub_masters_spread_across_partitions(self):
        """Balanced master placement: many fully-replicated hubs must not
        pile their masters onto one machine."""
        hubs = 8
        k = 4
        # Each hub has one edge in every partition.
        src = np.repeat(np.arange(hubs), k)
        dst = hubs + np.arange(src.size) % 3
        g = Graph(hubs + 3, src, dst)
        ep = EdgePartition(k, np.tile(np.arange(k), hubs))
        placement = Placement(g, ep)
        hub_masters = placement.master[:hubs]
        counts = np.bincount(hub_masters, minlength=k)
        assert counts.max() == hubs // k   # perfectly spread

    def test_masters_respected_when_given(self, small_twitter):
        ep = HybridHashPartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, ep)
        assert np.array_equal(placement.master, ep.masters.astype(np.int64))

    def test_explicit_masters_kept_for_isolated_vertices(self, small_web):
        ep = GingerPartitioner(seed=1).partition(small_web, 8, seed=1)
        placement = Placement(small_web, ep)
        assert np.array_equal(placement.master, ep.masters.astype(np.int64))

    def test_explicit_masters_must_cover_every_vertex(self):
        g = Graph(3, np.array([0]), np.array([1]))
        ep = EdgePartition(2, [1], masters=[1, 1, -1])
        with pytest.raises(PartitioningError, match="every vertex"):
            Placement(g, ep)

    def test_isolated_vertex_gets_master(self):
        g = Graph(4, np.array([0]), np.array([1]))
        ep = EdgePartition(3, [2])
        placement = Placement(g, ep)
        assert 0 <= placement.master[3] < 3
        assert placement.replica_counts[3] == 1

    def test_incomplete_rejected(self, tiny_graph):
        ep = EdgePartition(2, [0, 1, 0, 1, 0, 1, -1])
        with pytest.raises(PartitioningError):
            Placement(tiny_graph, ep)

    def test_unsupported_type_rejected(self, tiny_graph):
        with pytest.raises(PartitioningError):
            Placement(tiny_graph, "not a partition")


class TestAccounting:
    def test_edges_per_partition_sums(self, small_twitter):
        ep = HashEdgePartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, ep)
        assert placement.edges_per_partition().sum() == small_twitter.num_edges

    def test_masters_per_partition_sums(self, small_twitter):
        ep = HashEdgePartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, ep)
        assert placement.masters_per_partition().sum() == \
            small_twitter.num_vertices

    def test_replicas_at_least_vertices(self, small_twitter):
        ep = HashEdgePartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, ep)
        assert placement.replicas_per_partition().sum() >= \
            small_twitter.num_vertices

    def test_replica_counts_include_master(self, small_twitter):
        ep = HashEdgePartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, ep)
        assert np.all(placement.replica_counts >= 1)
        assert np.all(placement.replica_counts <= 8 + 1)

    def test_replication_factor_include_isolated(self):
        g = Graph(4, np.array([0]), np.array([1]))
        ep = EdgePartition(2, [0])
        placement = Placement(g, ep)
        assert placement.replication_factor() == 1.0
        assert placement.replication_factor(include_isolated=True) == 1.0


# ----------------------------------------------------------------------
# Byte pins: every array a Placement derives, for both master rules.
# ----------------------------------------------------------------------
#: ``(graph fixture, algorithm, k)`` -> sha256 prefix of every Placement
#: array (dtype and bytes).  LDG and HCR carry explicit masters, HDRF and
#: DBH get balanced masters; ``sparse`` (20 isolated vertices) and
#: ``small_web`` (266) exercise the hashed masters of isolated vertices.
PLACEMENT_PINS = {
    ("small_twitter", "ldg", 8): "81661ef17960d7bc",
    ("small_twitter", "hcr", 8): "b5e169449c591a63",
    ("small_twitter", "hdrf", 8): "2728b08e6aafc524",
    ("small_web", "dbh", 16): "889743368bf235cd",
    ("sparse", "hdrf", 6): "b3900f4e811dab5e",
    ("sparse", "ldg", 6): "7e18241cb6bd7d0d",
}


@pytest.fixture(scope="module")
def sparse():
    """400 vertices, 600 edges: 20 vertices have no incident edge."""
    from repro.graph.generators import erdos_renyi
    return erdos_renyi(400, 600, seed=106)


def placement_digest(placement: Placement) -> str:
    import hashlib

    digest = hashlib.sha256()
    arrays = {
        "edge_parts": placement.edge_parts,
        "master": placement.master,
        "mirror_counts_all": placement.mirror_counts_all,
        "mirror_counts_out": placement.mirror_counts_out,
        "replica_counts": placement.replica_counts,
        "all_pairs": placement.all_pairs,
        "out_pairs": placement.out_pairs,
        "replicas_per_partition": placement.replicas_per_partition(),
    }
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(PLACEMENT_PINS),
                         ids=lambda case: "-".join(map(str, case)))
def test_placement_arrays_are_pinned(case, request):
    from repro.partitioning.registry import make_seeded_partitioner

    fixture, algorithm, k = case
    graph = request.getfixturevalue(fixture)
    partition = make_seeded_partitioner(algorithm, seed=31).partition(
        graph, k, seed=47)
    assert placement_digest(Placement(graph, partition)) == \
        PLACEMENT_PINS[case]
