"""Tests for the online partitioning service (`repro.service`).

The robustness contract under test: same seed ⇒ byte-identical timeline;
drift past the threshold triggers a migration bounded by the vertex
budget that improves the cut; admission control sheds writes before
reads; fault schedules compose with migration; and with migration
disabled the service degrades to incremental-only placement.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitioningError
from repro.faults import CrashInterval, FaultSchedule
from repro.graph.generators import ldbc_like
from repro.service import (
    DriftMonitor,
    EpochTraffic,
    Mutation,
    PartitionedGraphService,
    ServiceConfig,
    TrafficModel,
    quality_snapshot,
)

#: Small, drift-prone scenario: heavy churn on a small graph so the
#: monitor fires within a few cheap epochs.
FIRING_CONFIG = ServiceConfig(
    num_partitions=4,
    epochs=6,
    epoch_duration=0.1,
    seed=11,
    mutations_per_epoch=300,
    query_bindings_per_epoch=24,
    drift_threshold=0.004,
    migration_cooldown_epochs=0,
    migration_budget=120,
    migration_batch_vertices=32,
    mutation_queue_bound=600,
    mutation_service_rate=300,
)


@pytest.fixture(scope="module")
def base_graph():
    return ldbc_like(num_vertices=800, avg_degree=10.0, seed=11)


@pytest.fixture(scope="module")
def firing_result(base_graph):
    """One shared run of the migration-firing scenario."""
    return PartitionedGraphService(base_graph, config=FIRING_CONFIG).run()


class TestRobustnessLoop:
    def test_migration_fires_and_respects_budget(self, firing_result):
        assert firing_result.migrations, "drift never fired in the scenario"
        for event in firing_result.migrations:
            assert 0 < event.vertices_moved <= FIRING_CONFIG.migration_budget
            assert event.execute_epoch == event.trigger_epoch + 1
            assert event.cut_after < event.cut_before
            assert event.bytes_shipped == pytest.approx(
                event.vertices_moved * FIRING_CONFIG.state_bytes_per_vertex)
            assert event.busy_seconds_charged > 0

    def test_migration_recovers_quality(self, firing_result):
        first = firing_result.migrations[0]
        execute = first.execute_epoch
        cut_before = firing_result.drift[execute - 1].edge_cut
        cut_after = firing_result.drift[execute].edge_cut
        assert cut_after < cut_before

    def test_migration_epoch_pays_the_wait(self, firing_result):
        execute_epochs = {m.execute_epoch for m in firing_result.migrations}
        # Only migration epochs double-home vertices; every other epoch
        # pays zero handshake waits.
        for record in firing_result.epochs:
            if record.epoch not in execute_epochs:
                assert record.migration_waits == 0
        assert sum(r.migration_waits for r in firing_result.epochs) > 0

    def test_no_reads_lost_under_nominal_load(self, firing_result):
        assert firing_result.shed_reads == 0
        assert firing_result.total_failed_queries == 0
        assert firing_result.total_completed_queries > 0

    def test_drift_rebases_after_migration(self, firing_result):
        first = firing_result.migrations[0]
        trigger = firing_result.drift[first.trigger_epoch]
        after = firing_result.drift[first.execute_epoch]
        assert trigger.fired
        # The monitor rebased at the trigger: the execute epoch's sample
        # is measured against the *new* placement, so even though its
        # absolute cut improved a lot, drift stays small and
        # non-negative rather than going hugely negative.
        assert after.edge_cut < trigger.edge_cut
        assert after.drift >= 0.0

    def test_metrics_counters_match_events(self, firing_result):
        metrics = firing_result.metrics
        assert int(metrics.value("service.migrations")) == \
            len(firing_result.migrations)
        assert int(metrics.value("service.migration.vertices")) == \
            firing_result.vertices_migrated
        assert int(metrics.value("service.shed.writes")) == \
            firing_result.shed_writes
        assert int(metrics.value("service.queries.completed")) == \
            firing_result.total_completed_queries


class TestDeterminism:
    def test_same_seed_byte_identical(self, base_graph, firing_result):
        repeat = PartitionedGraphService(base_graph,
                                         config=FIRING_CONFIG).run()
        assert repeat.digest() == firing_result.digest()
        assert repeat.timeline() == firing_result.timeline()
        assert np.array_equal(repeat.final_assignment,
                              firing_result.final_assignment)

    def test_different_seed_differs(self, base_graph, firing_result):
        other = PartitionedGraphService(
            base_graph,
            config=dataclasses.replace(FIRING_CONFIG, seed=12)).run()
        assert other.digest() != firing_result.digest()

    def test_disabled_migration_equals_incremental_only(self, base_graph):
        """``drift_threshold=None`` and ``migration_budget=0`` are the
        same incremental-only service — byte-identical timelines."""
        no_threshold = PartitionedGraphService(
            base_graph, config=dataclasses.replace(
                FIRING_CONFIG, drift_threshold=None)).run()
        no_budget = PartitionedGraphService(
            base_graph, config=dataclasses.replace(
                FIRING_CONFIG, migration_budget=0)).run()
        assert no_threshold.migrations == []
        assert no_budget.migrations == []
        assert no_threshold.vertices_migrated == 0
        # The threshold=None run never evaluates `fired`, the budget=0
        # run evaluates but never plans — placements stay identical.
        assert np.array_equal(no_threshold.final_assignment,
                              no_budget.final_assignment)
        for a, b in zip(no_threshold.epochs, no_budget.epochs):
            assert a == b


class TestGracefulDegradation:
    def test_overload_sheds_writes_never_reads(self, base_graph):
        config = dataclasses.replace(FIRING_CONFIG, epochs=3,
                                     mutation_queue_bound=100,
                                     mutation_service_rate=50)
        result = PartitionedGraphService(base_graph, config=config).run()
        assert result.shed_writes > 0
        assert result.shed_reads == 0
        assert result.total_completed_queries > 0
        offered = sum(r.offered_mutations for r in result.epochs)
        applied = sum(r.applied_mutations for r in result.epochs)
        pending = result.epochs[-1].pending_mutations
        assert offered == applied + pending + result.shed_writes

    def test_fault_schedule_composes(self, base_graph):
        from repro.faults import FaultSchedule, SlowdownInterval

        schedule = FaultSchedule(
            slowdowns=(SlowdownInterval(worker=0, start=0.0, end=0.6,
                                        factor=0.5),),
            seed=5)
        config = dataclasses.replace(FIRING_CONFIG, epochs=4,
                                     fault_schedule=schedule)
        result = PartitionedGraphService(base_graph, config=config).run()
        assert result.total_completed_queries > 0
        # Determinism holds under faults too.
        repeat = PartitionedGraphService(base_graph, config=config).run()
        assert repeat.digest() == result.digest()


class TestTrafficModel:
    def test_epoch_traffic_is_deterministic(self, base_graph):
        model = TrafficModel(FIRING_CONFIG)
        a = model.epoch_traffic(base_graph, 2)
        b = model.epoch_traffic(base_graph, 2)
        assert isinstance(a, EpochTraffic)
        assert a.mutations == b.mutations
        assert [x.start_vertex for x in a.bindings] == \
            [x.start_vertex for x in b.bindings]

    def test_epochs_differ(self, base_graph):
        model = TrafficModel(FIRING_CONFIG)
        assert model.epoch_traffic(base_graph, 0).mutations != \
            model.epoch_traffic(base_graph, 1).mutations

    def test_mix_respected(self, base_graph):
        config = dataclasses.replace(
            FIRING_CONFIG, mutations_per_epoch=500,
            edge_add_fraction=1.0, edge_delete_fraction=0.0,
            vertex_add_fraction=0.0, vertex_remove_fraction=0.0)
        traffic = TrafficModel(config).epoch_traffic(base_graph, 0)
        assert all(m.kind == "insert_edge" for m in traffic.mutations)
        assert all(isinstance(m, Mutation) for m in traffic.mutations)


class TestDriftMonitor:
    def test_quality_snapshot_bounds(self, base_graph):
        from repro.partitioning import make_partitioner

        partition = make_partitioner("ldg").partition(base_graph, 4,
                                                      order="natural",
                                                      seed=1)
        cut, imbalance, replication = quality_snapshot(base_graph,
                                                       partition)
        assert 0.0 <= cut <= 1.0
        assert imbalance >= 1.0
        assert replication >= 1.0

    def test_zero_drift_on_rebase_state(self, base_graph):
        from repro.partitioning import make_partitioner

        partition = make_partitioner("ldg").partition(base_graph, 4,
                                                      order="natural",
                                                      seed=1)
        monitor = DriftMonitor(threshold=0.0)
        monitor.rebase(base_graph, partition)
        sample = monitor.observe(0, 0.1, base_graph, partition)
        assert sample.drift == 0.0
        assert sample.fired  # threshold 0.0 fires on any observation

    def test_none_threshold_never_fires(self, base_graph):
        from repro.partitioning import make_partitioner

        partition = make_partitioner("ldg").partition(base_graph, 4,
                                                      order="natural",
                                                      seed=1)
        monitor = DriftMonitor(threshold=None)
        monitor.rebase(base_graph, partition)
        assert not monitor.observe(0, 0.1, base_graph, partition).fired


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_partitions=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(epoch_duration=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(drift_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(migration_budget=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(edge_add_fraction=0.9, edge_delete_fraction=0.9)
        with pytest.raises(ConfigurationError):
            ServiceConfig(balance_slack=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "epoch_duration", "drift_threshold", "imbalance_weight",
        "workload_skew", "balance_slack", "state_bytes_per_vertex",
        "migration_bandwidth_bytes_per_second", "migration_wait_seconds",
    ])
    def test_float_fields_reject_nan_and_inf(self, field, value):
        """A NaN epoch_duration used to run epochs that complete no
        query, and a NaN drift_threshold silently never migrated."""
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: value})

    def test_fault_schedule_worker_outside_cluster_rejected(self):
        # Caught at construction, not when an epoch window reaches it.
        schedule = FaultSchedule(crashes=(CrashInterval(4, 0.1, 0.3),))
        with pytest.raises(ConfigurationError,
                           match="worker 4, outside a cluster of 4"):
            ServiceConfig(num_partitions=4, fault_schedule=schedule)
        ServiceConfig(num_partitions=5, fault_schedule=schedule)

    def test_negative_workload_skew_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="workload_skew"):
            ServiceConfig(workload_skew=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["threshold", "imbalance_weight"])
    def test_drift_monitor_rejects_nan_and_inf(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            DriftMonitor(**{field: value})

    def test_update_fraction_complements_mix(self):
        config = ServiceConfig()
        total = (config.edge_add_fraction + config.edge_delete_fraction
                 + config.vertex_add_fraction + config.vertex_remove_fraction
                 + config.update_fraction)
        assert total == pytest.approx(1.0)

    def test_incremental_partitioner_rejects_stale_cover(self, base_graph):
        from repro.partitioning import make_partitioner
        from repro.partitioning.dynamic import IncrementalEdgeCutPartitioner

        partition = make_partitioner("ldg").partition(base_graph, 4,
                                                      order="natural",
                                                      seed=1)
        incr = IncrementalEdgeCutPartitioner(partition, seed=1)
        from repro.graph import Graph
        bigger = Graph(base_graph.num_vertices + 3, base_graph.src,
                       base_graph.dst)
        with pytest.raises(PartitioningError,
                           match="add_vertex"):
            incr.require_covers(bigger)
