"""Tests for the GAS engine's communication and cost accounting."""

import dataclasses

import numpy as np
import pytest

from repro.analytics import (
    CostModel,
    GasEngine,
    PageRank,
    Placement,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
    run_workload,
)
from repro.errors import ConfigurationError, SimulationError
from repro.graph import Graph
from repro.partitioning import (
    HashEdgePartitioner,
    HashVertexPartitioner,
    HdrfPartitioner,
)
from repro.partitioning.base import VertexPartition


class TestMessageAccounting:
    def test_single_partition_no_messages(self, small_twitter):
        p = VertexPartition(1, np.zeros(small_twitter.num_vertices, np.int32))
        run = run_workload(small_twitter, p, PageRank(3))
        assert run.total_messages == 0
        assert run.total_network_bytes == 0.0

    def test_two_vertex_graph_exact_counts(self):
        """One edge 0->1 split across two machines: per PR iteration one
        gather message (partial at partition 0 -> master of 1)."""
        g = Graph(2, np.array([0]), np.array([1]))
        vp = VertexPartition(2, [0, 1])
        run = run_workload(g, vp, PageRank(4))
        for it in run.iterations:
            assert it.gather_messages == 1
            assert it.mirror_update_messages == 0   # edge-cut, uni
        assert run.total_messages == 4

    def test_edge_cut_pagerank_no_mirror_updates(self, small_twitter):
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        run = run_workload(small_twitter, vp, PageRank(2))
        assert all(it.mirror_update_messages == 0 for it in run.iterations)

    def test_vertex_cut_pagerank_has_mirror_updates(self, small_twitter):
        ep = HashEdgePartitioner().partition(small_twitter, 8)
        run = run_workload(small_twitter, ep, PageRank(2))
        assert all(it.mirror_update_messages > 0 for it in run.iterations)

    def test_edge_cut_wcc_has_mirror_updates(self, small_twitter):
        """Bi-directional workloads need mirror sync even under edge-cut."""
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        run = run_workload(small_twitter, vp, WeaklyConnectedComponents())
        assert sum(it.mirror_update_messages for it in run.iterations) > 0

    def test_pagerank_gather_messages_match_mirrors(self, small_twitter):
        """All-active PR: gather messages per iteration = total mirrors
        (each non-master incident partition sends one partial)."""
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        placement = Placement(small_twitter, vp)
        run = GasEngine().run(small_twitter, placement, PageRank(2))
        expected = int(placement.mirror_counts_all.sum())
        for it in run.iterations:
            assert it.gather_messages == expected

    def test_network_scales_with_replication(self, small_twitter):
        low = run_workload(small_twitter,
                           HdrfPartitioner(seed=0).partition(
                               small_twitter, 8, order="random", seed=1),
                           PageRank(3))
        high = run_workload(small_twitter,
                            HashEdgePartitioner().partition(small_twitter, 8),
                            PageRank(3))
        assert high.replication_factor > low.replication_factor
        assert high.total_network_bytes > low.total_network_bytes

    def test_sssp_quiet_after_convergence(self, small_road):
        vp = HashVertexPartitioner().partition(small_road, 4)
        run = run_workload(small_road, vp,
                           SingleSourceShortestPath(source=0))
        # The final iteration changed nothing: no mirror updates.
        assert run.iterations[-1].mirror_update_messages == 0


def _remote_pairs(pairs, master) -> int:
    """Pairs (vertex, partition) whose partition is not the master's."""
    return sum(1 for vertex, part in pairs if part != master[vertex])


class TestClosedFormCounts:
    """Message counts taken from the placement with Python sets alone.

    ``forward`` holds the distinct ``(dst, partition)`` pairs of all edges
    (one gather partial per pair under all-active forward gathers),
    ``reverse`` the distinct ``(src, partition)`` pairs (the out-edge
    replicas).  Nothing here uses the engine's sorted keys or memos.
    """

    CASES = [("small_twitter", "ecr"), ("small_twitter", "ldg"),
             ("small_twitter", "vcr"), ("small_twitter", "hdrf"),
             ("small_twitter", "dbh"), ("small_twitter", "hcr"),
             ("small_twitter", "hg"), ("small_web", "hdrf"),
             ("small_web", "ldg")]

    @pytest.fixture(params=CASES, ids=lambda case: "-".join(case))
    def placed(self, request):
        from repro.partitioning.registry import make_seeded_partitioner

        fixture, algorithm = request.param
        graph = request.getfixturevalue(fixture)
        partition = make_seeded_partitioner(algorithm, seed=5).partition(
            graph, 8, seed=9)
        placement = Placement(graph, partition)
        parts = placement.edge_parts.tolist()
        forward = set(zip(graph.dst.tolist(), parts))
        reverse = set(zip(graph.src.tolist(), parts))
        return graph, placement, forward, reverse, placement.master.tolist()

    def test_pagerank_every_superstep(self, placed):
        graph, placement, forward, reverse, master = placed
        gather = _remote_pairs(forward, master)
        scattered = reverse if placement.locality_aware else forward | reverse
        mirror = _remote_pairs(scattered, master)
        run = GasEngine().run(graph, placement, PageRank(3))
        assert run.num_iterations == 3
        for it in run.iterations:
            assert it.gather_messages == gather
            assert it.mirror_update_messages == mirror

    def test_wcc_first_superstep_gathers_both_directions(self, placed):
        graph, placement, forward, reverse, master = placed
        run = GasEngine().run(graph, placement, WeaklyConnectedComponents())
        assert run.iterations[0].gather_messages == (
            _remote_pairs(forward, master) + _remote_pairs(reverse, master))


class TestCostModel:
    def test_compute_seconds(self):
        model = CostModel(seconds_per_edge=1e-6, seconds_per_vertex_op=1e-7)
        assert model.compute_seconds(100, 10) == pytest.approx(1.01e-4)

    def test_message_bytes(self):
        model = CostModel(bytes_per_message=10)
        assert model.message_bytes(5) == 50

    def test_network_seconds(self):
        model = CostModel(bandwidth_bytes_per_sec=1e6)
        assert model.network_seconds(1e6) == 1.0

    def test_execution_time_positive(self, small_twitter):
        vp = HashVertexPartitioner().partition(small_twitter, 4)
        run = run_workload(small_twitter, vp, PageRank(2))
        assert run.execution_seconds > 0

    def test_barrier_floor(self, small_twitter):
        model = CostModel(barrier_seconds=1.0)
        vp = HashVertexPartitioner().partition(small_twitter, 4)
        run = run_workload(small_twitter, vp, PageRank(3), cost_model=model)
        assert run.execution_seconds >= 3.0

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(CostModel)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_every_constant_finite_and_non_negative(self, field, value):
        # NaN constants used to report a NaN execution time, and a
        # negative barrier a negative one.
        with pytest.raises(ConfigurationError, match=field):
            CostModel(**{field: value})

    def test_zero_bandwidth_rejected(self):
        # It used to divide by zero in the middle of a run.
        with pytest.raises(ConfigurationError,
                           match="bandwidth_bytes_per_sec"):
            CostModel(bandwidth_bytes_per_sec=0.0)

    def test_repr_unchanged(self):
        # The repr keys every cached analytics artifact.
        assert repr(CostModel()) == (
            "CostModel(seconds_per_edge=2e-08, seconds_per_vertex_op=5e-08, "
            "bytes_per_message=32.0, bandwidth_bytes_per_sec=250000000.0, "
            "barrier_seconds=5e-05, checkpoint_seconds=0.0002, "
            "bytes_per_vertex_state=64.0, bytes_per_edge_state=16.0)")


class TestRunRecord:
    def test_compute_distribution_shape(self, small_twitter):
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        run = run_workload(small_twitter, vp, PageRank(2))
        per_machine = run.compute_seconds_per_machine()
        assert per_machine.shape == (8,)
        assert per_machine.sum() > 0
        dist = run.compute_distribution()
        assert dist.maximum >= dist.minimum

    def test_metadata(self, small_twitter):
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        run = run_workload(small_twitter, vp, PageRank(2))
        assert run.workload == "pagerank"
        assert run.algorithm == "ecr"
        assert run.num_partitions == 8
        assert run.num_iterations == 2

    def test_placement_graph_mismatch_rejected(self, small_twitter,
                                               small_road):
        vp = HashVertexPartitioner().partition(small_twitter, 4)
        placement = Placement(small_twitter, vp)
        with pytest.raises(SimulationError):
            GasEngine().run(small_road, placement, PageRank(1))

    def test_empty_run_totals(self, small_twitter):
        from repro.analytics.result import AnalyticsRun
        run = AnalyticsRun("pagerank", "ecr", 4, 1.0)
        assert run.execution_seconds == 0.0
        assert run.compute_seconds_per_machine().tolist() == [0.0] * 4


class TestPaperShapes:
    def test_edge_cut_cheaper_than_vertex_cut_per_rf_unit(self, small_twitter):
        """Figure 1(a): for PageRank, edge-cut transfers fewer bytes per
        replica than vertex-cut."""
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        ep = HashEdgePartitioner().partition(small_twitter, 8)
        run_ec = run_workload(small_twitter, vp, PageRank(3))
        run_vc = run_workload(small_twitter, ep, PageRank(3))
        per_rf_ec = run_ec.total_network_bytes / max(run_ec.replication_factor - 1, 1e-9)
        per_rf_vc = run_vc.total_network_bytes / max(run_vc.replication_factor - 1, 1e-9)
        assert per_rf_ec < per_rf_vc

    def test_pagerank_dominates_total_io(self, small_twitter):
        """PR (all-active, 20 iterations) moves far more data than SSSP."""
        vp = HashVertexPartitioner().partition(small_twitter, 8)
        pr = run_workload(small_twitter, vp, PageRank(20))
        sssp = run_workload(small_twitter, vp,
                            SingleSourceShortestPath(
                                source=int(np.argmax(small_twitter.out_degree))))
        assert pr.total_network_bytes > 5 * sssp.total_network_bytes
