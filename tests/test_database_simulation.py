"""Tests for the closed-loop discrete-event simulation."""

import copy

import numpy as np
import pytest

from repro.database import (
    ClosedLoopSimulation,
    QueryPlanner,
    ServiceModel,
    WorkloadGenerator,
    simulate_workload,
)
from repro.errors import ConfigurationError
from repro.partitioning import HashVertexPartitioner, LdgPartitioner
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import TimeSeriesSampler


@pytest.fixture(scope="module")
def sim_setup():
    """Graph + partition + bindings shared by the simulation tests."""
    from repro.graph.generators import ldbc_like
    graph = ldbc_like(num_vertices=1500, avg_degree=12, seed=42)
    partition = HashVertexPartitioner().partition(graph, 8)
    bindings = WorkloadGenerator(graph, skew=0.5, seed=7).bindings("one_hop", 200)
    return graph, partition, bindings


class TestServiceModel:
    def test_service_seconds(self):
        model = ServiceModel(request_base_seconds=1e-3, per_read_seconds=1e-4)
        assert model.service_seconds(10) == pytest.approx(2e-3)

    def test_scaled_grows_with_cluster(self):
        model = ServiceModel(cluster_overhead_per_worker=0.1)
        scaled = model.scaled(10)
        assert scaled.request_base_seconds == pytest.approx(
            2.0 * model.request_base_seconds)
        # Scaling is applied once: the returned model has no residual factor.
        assert scaled.cluster_overhead_per_worker == 0.0


class TestSimulationBasics:
    def test_runs_and_completes_queries(self, sim_setup):
        graph, partition, bindings = sim_setup
        result = simulate_workload(graph, partition, bindings, duration=0.4)
        assert result.completed_queries > 0
        assert result.throughput > 0
        assert len(result.latencies) == result.completed_queries

    def test_deterministic(self, sim_setup):
        graph, partition, bindings = sim_setup
        a = simulate_workload(graph, partition, bindings, duration=0.3)
        b = simulate_workload(graph, partition, bindings, duration=0.3)
        assert a.completed_queries == b.completed_queries
        assert np.array_equal(a.latencies, b.latencies)

    def test_latencies_positive_and_bounded(self, sim_setup):
        graph, partition, bindings = sim_setup
        result = simulate_workload(graph, partition, bindings, duration=0.4)
        assert np.all(result.latencies > 0)
        assert np.all(result.latencies <= result.duration)

    def test_reads_distributed_over_workers(self, sim_setup):
        graph, partition, bindings = sim_setup
        result = simulate_workload(graph, partition, bindings, duration=0.4)
        assert result.vertices_read_per_worker.shape == (8,)
        assert result.vertices_read_per_worker.sum() == result.total_reads

    def test_remote_reads_le_total(self, sim_setup):
        graph, partition, bindings = sim_setup
        result = simulate_workload(graph, partition, bindings, duration=0.4)
        assert 0 < result.remote_reads <= result.total_reads
        assert result.network_bytes > 0

    def test_latency_summary(self, sim_setup):
        graph, partition, bindings = sim_setup
        result = simulate_workload(graph, partition, bindings, duration=0.4)
        latency = result.latency()
        assert latency.p99 >= latency.p50 > 0
        assert latency.count == result.completed_queries


class TestLoadBehaviour:
    def test_more_clients_more_throughput_until_saturation(self, sim_setup):
        graph, partition, bindings = sim_setup
        light = simulate_workload(graph, partition, bindings,
                                  clients_per_worker=2, duration=0.4)
        heavy = simulate_workload(graph, partition, bindings,
                                  clients_per_worker=12, duration=0.4)
        assert heavy.throughput > light.throughput

    def test_overload_raises_latency(self, sim_setup):
        graph, partition, bindings = sim_setup
        medium = simulate_workload(graph, partition, bindings,
                                   clients_per_worker=12, duration=0.4)
        high = simulate_workload(graph, partition, bindings,
                                 clients_per_worker=24, duration=0.4)
        assert high.latency().mean > medium.latency().mean

    def test_single_worker_serialises(self, sim_setup):
        graph, _partition, bindings = sim_setup
        single = HashVertexPartitioner().partition(graph, 1)
        result = simulate_workload(graph, single, bindings,
                                   clients_per_worker=4, duration=0.4)
        assert result.remote_reads == 0
        assert result.completed_queries > 0

    def test_hotspot_partitioning_skews_reads(self, sim_setup):
        """A clustering partitioner concentrates reads under a skewed
        workload (the Section 6.3.1 effect)."""
        graph, hashed, bindings = sim_setup
        clustered = LdgPartitioner(seed=0).partition(graph, 8,
                                                     order="natural", seed=1)
        res_hash = simulate_workload(graph, hashed, bindings, duration=0.4)
        res_ldg = simulate_workload(graph, clustered, bindings, duration=0.4)

        def spread(result):
            reads = result.read_distribution()
            return reads.max() / reads.mean()

        assert spread(res_ldg) > spread(res_hash)


class TestValidation:
    def test_empty_bindings_rejected(self, sim_setup):
        graph, partition, _ = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8)
        with pytest.raises(ConfigurationError):
            sim.run([])

    def test_bad_duration_rejected(self, sim_setup):
        graph, partition, bindings = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8)
        with pytest.raises(ConfigurationError):
            sim.run(bindings, duration=0)

    def test_owner_shape_checked(self, sim_setup):
        graph, _partition, _ = sim_setup
        with pytest.raises(ConfigurationError):
            ClosedLoopSimulation(graph, np.zeros(3), 8)

    def test_owner_range_checked(self, sim_setup):
        graph, _partition, _ = sim_setup
        bad = np.full(graph.num_vertices, 99)
        with pytest.raises(ConfigurationError):
            ClosedLoopSimulation(graph, bad, 8)

    def test_clients_validated(self, sim_setup):
        graph, partition, _ = sim_setup
        with pytest.raises(ConfigurationError):
            ClosedLoopSimulation(graph, partition.assignment, 8,
                                 clients_per_worker=0)

    def test_empty_assignment_rejected_with_clear_error(self, sim_setup):
        """A bare empty array used to surface as numpy's zero-size
        ``np.max`` ValueError from inside the worker-count inference —
        the caller's mistake must be named, not numpy's symptom."""
        graph, _partition, bindings = sim_setup
        with pytest.raises(ConfigurationError, match="assignment is empty"):
            simulate_workload(graph, np.array([], dtype=np.int64), bindings,
                              duration=0.1)

    def test_raw_assignment_still_infers_worker_count(self, sim_setup):
        graph, partition, bindings = sim_setup
        result = simulate_workload(graph, np.asarray(partition.assignment),
                                   bindings, clients_per_worker=2,
                                   duration=0.2)
        assert result.num_workers == 8
        assert result.completed_queries > 0


class TestSharedPlanner:
    """One :class:`QueryPlanner` serves every placement of its graph."""

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a.latencies, b.latencies)
        for name in ("vertices_read_per_worker", "requests_per_worker",
                     "busy_seconds_per_worker", "requests_lost_per_worker"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.metrics.snapshot() == b.metrics.snapshot()

    @pytest.mark.parametrize("ldg_first", [False, True])
    def test_shared_planner_equals_fresh_planners(self, sim_setup,
                                                  ldg_first):
        graph, hashed, one_hop_bindings = sim_setup
        bindings = one_hop_bindings[:100] + WorkloadGenerator(
            graph, skew=0.5, seed=8).bindings("two_hop", 100)
        clustered = LdgPartitioner(seed=0).partition(graph, 8,
                                                     order="natural", seed=1)
        placements = [clustered, hashed] if ldg_first else [hashed, clustered]
        planner = QueryPlanner(graph)
        for partition in placements:
            shared = simulate_workload(graph, partition, bindings,
                                       duration=0.3, planner=planner)
            fresh = simulate_workload(graph, partition, bindings,
                                      duration=0.3,
                                      planner=QueryPlanner(graph))
            private = simulate_workload(graph, partition, bindings,
                                        duration=0.3)
            self._assert_same(shared, fresh)
            self._assert_same(shared, private)

    def test_shared_phase_arrays_are_read_only(self, sim_setup):
        graph, partition, bindings = sim_setup
        planner = QueryPlanner(graph)
        simulate_workload(graph, partition, bindings, duration=0.1,
                          planner=planner)
        plans = [planner.plan(b.kind, b.start_vertex) for b in bindings]
        assert all(len(plan.phases) == 2 for plan in plans)
        assert all(phase.flags.writeable is False
                   for plan in plans for phase in plan.phases)
        with pytest.raises(ValueError):
            plans[0].phases[1][0] = 0

    def test_planner_for_another_graph_rejected(self, sim_setup):
        from repro.graph.generators import ldbc_like
        graph, partition, bindings = sim_setup
        other = QueryPlanner(ldbc_like(num_vertices=1500, avg_degree=12,
                                       seed=43))
        with pytest.raises(ConfigurationError, match="different graph"):
            ClosedLoopSimulation(graph, partition.assignment, 8,
                                 planner=other)
        with pytest.raises(ConfigurationError, match="different graph"):
            simulate_workload(graph, partition, bindings, duration=0.1,
                              planner=other)


class TestMigrationHooks:
    """The service-loop extensions: background work + double-homed waits."""

    def test_absent_migration_params_are_noops(self, sim_setup):
        graph, partition, bindings = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8,
                                   clients_per_worker=2)
        plain = sim.run(bindings, duration=0.4)
        hooked = sim.run(bindings, duration=0.4, background_work=None,
                         migrating_vertices=None,
                         migration_wait_seconds=0.0)
        assert np.array_equal(plain.latencies, hooked.latencies)
        assert plain.completed_queries == hooked.completed_queries
        # The plain registry layout is unchanged: no migration counters.
        assert plain.metrics.value("db.migration.waits", -1.0) == -1.0
        assert plain.metrics.value("db.migration.busy_seconds", -1.0) == -1.0

    def test_empty_migrating_set_is_noop(self, sim_setup):
        graph, partition, bindings = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8,
                                   clients_per_worker=2)
        plain = sim.run(bindings, duration=0.4)
        hooked = sim.run(bindings, duration=0.4,
                         migrating_vertices=np.array([], dtype=np.int64))
        assert np.array_equal(plain.latencies, hooked.latencies)

    def test_background_work_occupies_workers(self, sim_setup):
        graph, partition, bindings = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8,
                                   clients_per_worker=2)
        plain = sim.run(bindings, duration=0.4)
        work = [(0.05, w, 0.05) for w in range(8)]
        loaded = sim.run(bindings, duration=0.4, background_work=work)
        assert loaded.metrics.value("db.migration.busy_seconds") == \
            pytest.approx(8 * 0.05)
        stats = [worker.stats for worker in sim.cluster.workers]
        assert sum(s.migration_batches for s in stats) == 8
        assert sum(s.migration_seconds for s in stats) == pytest.approx(0.4)
        # Stealing worker time can only hurt query latency, never help.
        assert loaded.latency().mean >= plain.latency().mean

    def test_migrating_vertices_pay_the_wait(self, sim_setup):
        graph, partition, bindings = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8,
                                   clients_per_worker=2)
        moving = np.array(sorted({b.start_vertex for b in bindings}),
                          dtype=np.int64)
        run = sim.run(bindings, duration=0.4, migrating_vertices=moving,
                      migration_wait_seconds=2e-3)
        assert run.metrics.value("db.migration.waits") > 0
        # Every query starts at a double-homed vertex: latency includes
        # at least the handshake wait.
        assert run.latencies.min() >= 2e-3

    def test_background_work_validated(self, sim_setup):
        graph, partition, bindings = sim_setup
        sim = ClosedLoopSimulation(graph, partition.assignment, 8,
                                   clients_per_worker=2)
        sim.run(bindings, duration=0.4)
        stats = [copy.copy(worker.stats) for worker in sim.cluster.workers]
        registry = MetricsRegistry()
        sampler = TimeSeriesSampler(registry)
        with pytest.raises(ConfigurationError):
            sim.run(bindings, duration=0.4, sampler=sampler,
                    background_work=[(-0.1, 0, 0.01)])
        with pytest.raises(ConfigurationError):
            sim.run(bindings, duration=0.4, sampler=sampler,
                    background_work=[(0.1, 99, 0.01)])
        with pytest.raises(ConfigurationError):
            sim.run(bindings, duration=0.4, migration_wait_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            sim.run(bindings, duration=0.4, sampler=sampler,
                    sample_interval=0.0)
        # A rejected call touches nothing: the previous run's worker
        # stats survive, and the caller's sampler keeps its registry.
        assert [worker.stats for worker in sim.cluster.workers] == stats
        assert stats[0].requests_served > 0
        assert sampler.registry is registry
        assert sampler.samples == []
