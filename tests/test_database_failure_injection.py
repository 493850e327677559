"""Tests for failure injection: stragglers, crashes and retries in the DES."""

import numpy as np
import pytest

from repro.database import Cluster, ServiceModel, WorkloadGenerator, simulate_workload
from repro.errors import ConfigurationError, SimulationError
from repro.faults import (
    ChaosHarness,
    CrashInterval,
    FaultSchedule,
    SlowdownInterval,
)
from repro.partitioning import HashVertexPartitioner


@pytest.fixture(scope="module")
def straggler_setup():
    from repro.graph.generators import ldbc_like
    graph = ldbc_like(num_vertices=1200, avg_degree=12, seed=61)
    partition = HashVertexPartitioner().partition(graph, 8)
    bindings = WorkloadGenerator(graph, skew=0.5, seed=3).bindings("one_hop", 200)
    return graph, partition, bindings


class TestWorkerSpeed:
    def test_speed_scales_service(self):
        model = ServiceModel(request_base_seconds=1e-3, per_read_seconds=0.0)
        from repro.database.cluster import Worker
        fast = Worker(0, model, speed=2.0)
        slow = Worker(1, model, speed=0.5)
        assert fast.service_seconds(0) == pytest.approx(5e-4)
        assert slow.service_seconds(0) == pytest.approx(2e-3)

    def test_invalid_speed_rejected(self):
        from repro.database.cluster import Worker
        with pytest.raises(ConfigurationError):
            Worker(0, ServiceModel(), speed=0.0)

    def test_cluster_speed_vector_validated(self):
        with pytest.raises(ConfigurationError):
            Cluster(4, np.zeros(4, dtype=np.int64), worker_speeds=[1.0, 1.0])


class TestStragglerEffects:
    def test_straggler_reduces_throughput(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        healthy = simulate_workload(graph, partition, bindings, duration=0.4)
        speeds = [1.0] * 8
        speeds[0] = 0.25
        degraded = simulate_workload(graph, partition, bindings, duration=0.4,
                                     worker_speeds=speeds)
        assert degraded.throughput < healthy.throughput

    def test_straggler_inflates_tail_latency(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        healthy = simulate_workload(graph, partition, bindings, duration=0.4)
        speeds = [1.0] * 8
        speeds[0] = 0.25
        degraded = simulate_workload(graph, partition, bindings, duration=0.4,
                                     worker_speeds=speeds)
        assert degraded.latency().p99 > healthy.latency().p99

    def test_fast_workers_help(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        nominal = simulate_workload(graph, partition, bindings, duration=0.4)
        boosted = simulate_workload(graph, partition, bindings, duration=0.4,
                                    worker_speeds=[4.0] * 8)
        assert boosted.latency().mean < nominal.latency().mean

    def test_unit_speeds_match_default(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        default = simulate_workload(graph, partition, bindings, duration=0.3)
        explicit = simulate_workload(graph, partition, bindings, duration=0.3,
                                     worker_speeds=[1.0] * 8)
        assert default.completed_queries == explicit.completed_queries
        assert np.array_equal(default.latencies, explicit.latencies)


class TestFaultInjection:
    def test_empty_schedule_is_bit_identical(self, straggler_setup):
        """The ChaosHarness invariant: the zero-fault schedule must leave
        every result field bit-for-bit identical to the baseline path."""
        graph, partition, bindings = straggler_setup
        baseline = simulate_workload(graph, partition, bindings, duration=0.3)
        injected = simulate_workload(graph, partition, bindings, duration=0.3,
                                     fault_schedule=FaultSchedule.none())
        assert baseline.completed_queries == injected.completed_queries
        assert np.array_equal(baseline.latencies, injected.latencies)
        assert np.array_equal(baseline.busy_seconds_per_worker,
                              injected.busy_seconds_per_worker)
        assert baseline.network_bytes == injected.network_bytes
        assert injected.timeouts == 0
        assert injected.failed_queries == 0
        assert injected.availability == 1.0

    def test_chaos_harness_passes_end_to_end(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        report = ChaosHarness().verify_simulation(graph, partition, bindings,
                                                  duration=0.2)
        assert report.matched

    def test_crash_triggers_timeouts_and_retries(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        schedule = FaultSchedule.single_crash(0, 0.05, 0.2)
        result = simulate_workload(graph, partition, bindings, duration=0.4,
                                   fault_schedule=schedule)
        assert result.timeouts > 0
        assert result.retries > 0
        assert result.requests_lost_per_worker[0] > 0

    def test_crash_inflates_tail_latency(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        healthy = simulate_workload(graph, partition, bindings, duration=0.4)
        schedule = FaultSchedule.single_crash(0, 0.05, 0.2)
        faulted = simulate_workload(graph, partition, bindings, duration=0.4,
                                    fault_schedule=schedule)
        assert faulted.latency().p99 > healthy.latency().p99

    def test_failover_keeps_availability_high(self, straggler_setup):
        """With k-safety >= 2 a single permanent crash must not take the
        service down; with k=1 there is nowhere to fail over to."""
        graph, partition, bindings = straggler_setup
        schedule = FaultSchedule.single_crash(0, 0.05)
        replicated = simulate_workload(graph, partition, bindings,
                                       duration=0.4, fault_schedule=schedule,
                                       k_safety=3)
        exposed = simulate_workload(graph, partition, bindings,
                                    duration=0.4, fault_schedule=schedule,
                                    k_safety=1)
        assert replicated.availability > 0.95
        assert exposed.failed_queries > 0
        assert exposed.availability < replicated.availability

    def test_strict_mode_raises_on_unrecoverable_failure(self,
                                                         straggler_setup):
        graph, partition, bindings = straggler_setup
        schedule = FaultSchedule.single_crash(0, 0.05)
        with pytest.raises(SimulationError):
            simulate_workload(graph, partition, bindings, duration=0.4,
                              fault_schedule=schedule, k_safety=1,
                              raise_on_failure=True)

    def test_drops_are_counted_and_retried(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        schedule = FaultSchedule(drop_probability=0.05, seed=9)
        result = simulate_workload(graph, partition, bindings, duration=0.3,
                                   fault_schedule=schedule)
        assert result.dropped_requests > 0
        # Drops surface as client timeouts (late drops may time out past
        # the simulation horizon, so only a lower bound holds).
        assert result.timeouts > 0
        assert result.retries > 0

    def test_transient_slowdown_reduces_throughput(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        healthy = simulate_workload(graph, partition, bindings, duration=0.4)
        schedule = FaultSchedule(slowdowns=(
            SlowdownInterval(0, 0.0, 0.4, factor=0.2),
        ))
        slowed = simulate_workload(graph, partition, bindings, duration=0.4,
                                   fault_schedule=schedule)
        assert slowed.throughput < healthy.throughput

    def test_extra_latency_inflates_remote_reads(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        healthy = simulate_workload(graph, partition, bindings, duration=0.3)
        schedule = FaultSchedule(extra_latency_seconds=2e-3)
        laggy = simulate_workload(graph, partition, bindings, duration=0.3,
                                  fault_schedule=schedule)
        assert laggy.latency().mean > healthy.latency().mean

    def test_faulty_run_is_deterministic(self, straggler_setup):
        graph, partition, bindings = straggler_setup
        schedule = FaultSchedule(
            crashes=(CrashInterval(1, 0.05, 0.2),),
            slowdowns=(SlowdownInterval(2, 0.1, 0.3, factor=0.5),),
            drop_probability=0.02, seed=17)
        first = simulate_workload(graph, partition, bindings, duration=0.4,
                                  fault_schedule=schedule)
        second = simulate_workload(graph, partition, bindings, duration=0.4,
                                   fault_schedule=schedule)
        assert first.completed_queries == second.completed_queries
        assert np.array_equal(first.latencies, second.latencies)
        assert first.timeouts == second.timeouts
        assert first.retries == second.retries
        assert first.failed_queries == second.failed_queries
        assert first.dropped_requests == second.dropped_requests

    @pytest.mark.parametrize("schedule", [
        FaultSchedule(crashes=(CrashInterval(8, 0.1, 0.3),)),
        FaultSchedule(slowdowns=(SlowdownInterval(9, 0.1, 0.3, 0.5),)),
    ])
    def test_worker_outside_cluster_rejected(self, straggler_setup,
                                             schedule):
        # Such a fault used to be ignored: the fault-free result.
        graph, partition, bindings = straggler_setup
        with pytest.raises(ConfigurationError,
                           match=r"worker \d+, outside a cluster of 8"):
            simulate_workload(graph, partition, bindings, duration=0.1,
                              fault_schedule=schedule)


class TestClusterOwnerValidation:
    """Satellite: Cluster must reject malformed vertex_owner arrays at
    construction with ConfigurationError, not fail later with IndexError."""

    def test_out_of_range_owner_rejected(self):
        owner = np.array([0, 1, 2, 7], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="vertex_owner"):
            Cluster(4, owner)

    def test_unassigned_owner_rejected(self):
        owner = np.array([0, 1, -1, 2], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="vertex_owner"):
            Cluster(4, owner)

    def test_non_integer_dtype_rejected(self):
        owner = np.zeros(4, dtype=np.float64)
        with pytest.raises(ConfigurationError, match="integer"):
            Cluster(4, owner)

    def test_non_1d_rejected(self):
        owner = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="1-D"):
            Cluster(4, owner)

    def test_valid_owner_accepted(self):
        owner = np.array([0, 1, 2, 3], dtype=np.int64)
        cluster = Cluster(4, owner)
        assert cluster.owner(3) == 3


class TestReportDeterminism:
    """Satellite: straggler and fault-tolerance ablations must render
    byte-identical reports across two runs with the same seed."""

    @staticmethod
    def _render_twice(experiment_id):
        from repro.experiments import EXPERIMENTS, ExperimentContext
        texts = []
        for _ in range(2):
            ctx = ExperimentContext(scale="quick")
            texts.append(EXPERIMENTS[experiment_id](ctx).render())
        return texts

    def test_ablation_straggler_renders_identically(self):
        first, second = self._render_twice("ablation-straggler")
        assert first == second

    def test_ablation_fault_tolerance_renders_identically(self):
        first, second = self._render_twice("ablation-fault-tolerance")
        assert first == second

    def test_fault_tolerance_metrics_differ_across_partitioners(self):
        from repro.experiments import EXPERIMENTS, ExperimentContext
        ctx = ExperimentContext(scale="quick")
        report = EXPERIMENTS["ablation-fault-tolerance"](ctx)
        online = report.data["results"]["online"]
        offline = report.data["results"]["offline"]
        assert len(online) >= 3
        assert len({row["faulted_p99_ms"] for row in online.values()}) > 1
        assert len({row["migration_bytes"] for row in offline.values()}) > 1
