"""The long-lived online partitioning service.

:class:`PartitionedGraphService` is the tentpole of the robustness
milestone (ROADMAP open item #1): a store that keeps serving queries
*while* the graph mutates under it.  Simulated time advances in epochs;
each epoch

1. generates the offered load (:mod:`repro.service.traffic`),
2. applies **admission control** — the mutation queue is bounded, and on
   overflow writes are shed (and counted) before any read is touched,
3. applies the admitted mutations (new vertices placed incrementally by
   :class:`~repro.partitioning.dynamic.IncrementalEdgeCutPartitioner`,
   edge/vertex churn replayed through the
   :class:`~repro.database.mutations.GraphMutationLog`),
4. serves ``epoch_duration`` seconds of closed-loop queries through the
   DES (:mod:`repro.database.simulation`) — composed with the window of
   the global fault schedule, with any in-flight migration batches
   occupying workers, and with double-homed vertices paying a bounded
   retry wait,
5. observes partition-quality drift (:mod:`repro.service.drift`) and,
   past the threshold, plans a **bounded migration**
   (:mod:`repro.service.migration`) that executes — rate-limited — over
   the next epoch.

Every decision is a pure function of ``(base graph, ServiceConfig)``:
two runs with the same seed produce byte-identical drift timelines,
migration events and shed counters (:meth:`ServiceResult.digest`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.database.simulation import ClosedLoopSimulation
from repro.graph.digraph import Graph
from repro.partitioning.base import VertexPartition
from repro.partitioning.dynamic import IncrementalEdgeCutPartitioner
from repro.partitioning.registry import make_partitioner
from repro.service.config import ServiceConfig
from repro.service.drift import DriftMonitor, DriftSample
from repro.service.migration import (
    MigrationEvent,
    MigrationPlan,
    plan_migration,
)
from repro.service.traffic import Mutation, TrafficModel
from repro.telemetry import get_tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import AlertEvent, SloEvaluator, default_service_slos
from repro.telemetry.timeseries import MetricSample, TimeSeriesSampler
from repro.tools import sanitize


@dataclass(frozen=True)
class EpochRecord:
    """Service-level outcome of one epoch."""

    epoch: int
    time: float
    offered_mutations: int
    applied_mutations: int
    pending_mutations: int
    shed_writes: int
    shed_reads: int
    completed_queries: int
    failed_queries: int
    timeouts: int
    retries: int
    migration_waits: int
    mean_latency_ms: float
    p99_latency_ms: float
    num_vertices: int
    num_edges: int


@dataclass
class ServiceResult:
    """Everything one service run produced, digestable for regression.

    The observability surfaces (``samples``/``alerts``/``slo_status``)
    are deliberately **not** part of :meth:`timeline` — :meth:`digest`
    stays byte-identical whether sampling is on or off; they get their
    own canonical view (:meth:`observability`) and digest.
    """

    drift: list[DriftSample]
    migrations: list[MigrationEvent]
    epochs: list[EpochRecord]
    shed_writes: int
    shed_reads: int
    final_assignment: np.ndarray
    metrics: MetricsRegistry
    samples: list[MetricSample] = field(default_factory=list)
    alerts: list[AlertEvent] = field(default_factory=list)
    slo_status: dict | None = None

    @property
    def total_completed_queries(self) -> int:
        return sum(r.completed_queries for r in self.epochs)

    @property
    def total_failed_queries(self) -> int:
        return sum(r.failed_queries for r in self.epochs)

    @property
    def vertices_migrated(self) -> int:
        return sum(m.vertices_moved for m in self.migrations)

    def timeline(self) -> dict:
        """Canonical JSON-ready view of the run (drives :meth:`digest`)."""
        return {
            "drift": [asdict(s) for s in self.drift],
            "migrations": [asdict(m) for m in self.migrations],
            "epochs": [asdict(r) for r in self.epochs],
            "shed": {"writes": self.shed_writes, "reads": self.shed_reads},
            "final_assignment_digest": hashlib.sha256(
                np.ascontiguousarray(self.final_assignment,
                                     dtype=np.int32).tobytes()
            ).hexdigest()[:16],
        }

    def digest(self) -> str:
        """Stable hash over the full timeline — byte-identical per seed."""
        payload = json.dumps(self.timeline(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def observability(self) -> dict:
        """Canonical JSON-ready view of the sampled series, the alert
        log and the SLO budget state (empty when sampling was off)."""
        return {
            "samples": [s.to_dict() for s in self.samples],
            "alerts": [a.to_dict() for a in self.alerts],
            "slo": self.slo_status,
        }

    def observability_digest(self) -> str:
        """Stable hash over :meth:`observability` — the export-identity
        contract for same-seed runs."""
        payload = json.dumps(self.observability(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class PartitionedGraphService:
    """Serve queries over a live-mutating graph, migrating under budget.

    Parameters
    ----------
    base_graph:
        The bulk-loaded starting graph.
    config:
        All service knobs (defaults are the smoke scenario).
    base_partition:
        Optional starting placement; defaults to an LDG streaming pass
        seeded from the config.
    """

    def __init__(self, base_graph: Graph,
                 config: ServiceConfig | None = None,
                 base_partition: VertexPartition | None = None):
        from repro.database.mutations import GraphMutationLog

        self.config = config or ServiceConfig()
        if base_partition is None:
            # Seed both the streaming order *and* the tie-break rng —
            # the constructor seed covers the latter; an unseeded
            # partitioner would break same-seed digest identity.
            base_partition = make_partitioner(
                "ldg", seed=self.config.seed).partition(
                base_graph, self.config.num_partitions, order="natural",
                seed=self.config.seed)
        self._log = GraphMutationLog(base_graph)
        self._graph = base_graph
        self._incr = IncrementalEdgeCutPartitioner(
            base_partition, balance_slack=self.config.balance_slack,
            seed=self.config.seed)
        self._traffic = TrafficModel(self.config)
        self._monitor = DriftMonitor(
            threshold=self.config.drift_threshold,
            imbalance_weight=self.config.imbalance_weight)
        self._monitor.rebase(base_graph, base_partition)

    # ------------------------------------------------------------------
    def _apply_mutation(self, mutation: Mutation) -> None:
        log = self._log
        if mutation.kind == "insert_edge":
            log.insert_edge(mutation.u, mutation.v)
        elif mutation.kind == "delete_edge":
            log.delete_edge(mutation.u, mutation.v)
        elif mutation.kind == "update_vertex":
            pass  # Property updates do not change topology.
        elif mutation.kind == "remove_vertex":
            log.remove_vertex(mutation.u)
        else:  # "add_vertex": place incrementally, then link it in.
            vertex = log.add_vertex()
            self._incr.add_vertex(
                np.array(mutation.neighbors, dtype=np.int64),
                rng=self.config.seed * 1_000_003 + vertex)
            for neighbor in mutation.neighbors:
                log.insert_edge(vertex, neighbor)

    # ------------------------------------------------------------------
    def run(self) -> ServiceResult:
        """Run the configured number of epochs; returns the full record."""
        config = self.config
        tracer = get_tracer()
        tracing = tracer.enabled
        metrics = MetricsRegistry()
        c_applied = metrics.counter("service.mutations.applied")
        c_shed_writes = metrics.counter("service.shed.writes")
        c_shed_reads = metrics.counter("service.shed.reads")
        c_migrations = metrics.counter("service.migrations")
        c_moved = metrics.counter("service.migration.vertices")
        c_bytes = metrics.counter("service.migration.bytes")
        c_completed = metrics.counter("service.queries.completed")
        c_failed = metrics.counter("service.queries.failed")

        # Observability: sample the registry once per epoch and burn the
        # SLO budgets over the series.  With sampling off neither object
        # ever touches the registry (the zero-overhead contract), and
        # nothing here enters timeline()/digest() either way.
        sampling = config.slo_sampling
        sampler = TimeSeriesSampler(metrics, enabled=sampling)
        evaluator: SloEvaluator | None = None
        if sampling:
            evaluator = SloEvaluator(
                config.slos if config.slos is not None
                else default_service_slos(),
                horizon=config.epochs)
        alerts: list[AlertEvent] = []

        root = tracer.begin(
            "service.run", 0.0, parent=None,
            num_partitions=config.num_partitions,
            epochs=config.epochs, seed=config.seed) if tracing else 0

        drift_samples: list[DriftSample] = []
        migration_events: list[MigrationEvent] = []
        epoch_records: list[EpochRecord] = []
        pending: list[Mutation] = []
        inflight: MigrationPlan | None = None
        last_trigger = -(config.migration_cooldown_epochs + 1)
        global_faults = config.fault_schedule

        for epoch in range(config.epochs):
            t0 = epoch * config.epoch_duration
            t1 = t0 + config.epoch_duration
            epoch_span = tracer.begin("service.epoch", t0, parent=root,
                                      epoch=epoch) if tracing else 0
            graph = self._graph
            traffic = self._traffic.epoch_traffic(graph, epoch)

            # --- Admission control: bounded write queue, writes shed
            # --- before reads, everything shed is counted.  While any
            # --- SLO pages (and the hook is on), the bound tightens.
            queue_bound = config.mutation_queue_bound
            if (config.slo_degradation and evaluator is not None
                    and evaluator.paging()):
                queue_bound = int(queue_bound
                                  * config.degraded_queue_fraction)
            queue = pending + list(traffic.mutations)
            shed_writes = 0
            if len(queue) > queue_bound:
                shed_writes = len(queue) - queue_bound
                queue = queue[:queue_bound]
                c_shed_writes.inc(shed_writes)
            bindings = list(traffic.bindings)
            shed_reads = 0
            if len(bindings) > config.read_queue_bound:
                shed_reads = len(bindings) - config.read_queue_bound
                bindings = bindings[:config.read_queue_bound]
                c_shed_reads.inc(shed_reads)
            if tracing and (shed_writes or shed_reads):
                tracer.point("service.shed", t0, parent=epoch_span,
                             writes=shed_writes, reads=shed_reads,
                             queue_bound=queue_bound)

            # --- Apply up to the service rate from the queue head.
            apply_now = queue[:config.mutation_service_rate]
            pending = queue[config.mutation_service_rate:]
            for mutation in apply_now:
                self._apply_mutation(mutation)
            c_applied.inc(len(apply_now))
            if tracing:
                tracer.point("service.mutation", t0, parent=epoch_span,
                             applied=len(apply_now), queued=len(pending),
                             offered=len(traffic.mutations))
            if apply_now:
                graph = self._log.materialize()
                self._graph = graph
            self._incr.require_covers(graph)

            # --- In-flight migration: rate-limited batches become
            # --- background work; the moved vertices are double-homed.
            background: list[tuple[float, int, float]] = []
            migrating_vertices = None
            wait = 0.0
            if inflight is not None:
                for batch in inflight.batches:
                    for worker, seconds in batch.seconds_per_worker:
                        background.append((batch.offset, worker, seconds))
                migrating_vertices = inflight.vertices
                wait = config.migration_wait_seconds

            window = None
            if global_faults is not None and not global_faults.is_empty:
                window = global_faults.window(t0, config.epoch_duration)

            simulation = ClosedLoopSimulation(
                graph, self._incr.assignment, config.num_partitions,
                clients_per_worker=config.clients_per_worker,
                fault_schedule=window,
                k_safety=config.k_safety)
            outcome = simulation.run(
                bindings, duration=config.epoch_duration,
                warmup_fraction=0.0,
                background_work=background or None,
                migrating_vertices=migrating_vertices,
                migration_wait_seconds=wait)
            c_completed.inc(outcome.completed_queries)
            c_failed.inc(outcome.failed_queries)

            if inflight is not None:
                busy = sum(seconds
                           for batch in inflight.batches
                           for _, seconds in batch.seconds_per_worker)
                migration_events.append(MigrationEvent(
                    trigger_epoch=inflight.trigger_epoch,
                    execute_epoch=epoch,
                    vertices_moved=inflight.num_vertices_moved,
                    num_batches=len(inflight.batches),
                    bytes_shipped=inflight.state_bytes(
                        config.state_bytes_per_vertex),
                    busy_seconds_charged=busy,
                    cut_before=inflight.cut_before,
                    cut_after=inflight.cut_after))
                c_migrations.inc()
                c_moved.inc(inflight.num_vertices_moved)
                c_bytes.inc(inflight.state_bytes(
                    config.state_bytes_per_vertex))
                inflight = None

            # --- Drift observation on the epoch's final state.
            snapshot = self._incr.to_partition()
            if sanitize.ACTIVE:
                sanitize.check_sizes(snapshot.sizes(),
                                     "service.core.epoch_snapshot")
            sample = self._monitor.observe(epoch, t1, graph, snapshot)
            drift_samples.append(sample)

            if (sample.fired and config.migration_enabled
                    and inflight is None
                    and epoch - last_trigger > config.migration_cooldown_epochs
                    and epoch + 1 < config.epochs):
                plan = plan_migration(graph, snapshot, config, epoch)
                if plan is not None:
                    # Commit the new homes now (next epoch routes to
                    # them); the state transfer is charged next epoch.
                    self._incr.apply_moves(plan.vertices, plan.targets)
                    self._monitor.rebase(graph, self._incr.to_partition())
                    inflight = plan
                    last_trigger = epoch
                    if tracing:
                        tracer.point(
                            "service.migration", t1, parent=epoch_span,
                            trigger_epoch=epoch,
                            vertices=plan.num_vertices_moved,
                            batches=len(plan.batches),
                            cut_before=plan.cut_before,
                            cut_after=plan.cut_after)

            latency = outcome.latency()
            epoch_records.append(EpochRecord(
                epoch=epoch,
                time=t1,
                offered_mutations=len(traffic.mutations),
                applied_mutations=len(apply_now),
                pending_mutations=len(pending),
                shed_writes=shed_writes,
                shed_reads=shed_reads,
                completed_queries=outcome.completed_queries,
                failed_queries=outcome.failed_queries,
                timeouts=outcome.timeouts,
                retries=outcome.retries,
                migration_waits=int(
                    outcome.metrics.value("db.migration.waits")),
                mean_latency_ms=latency.mean * 1e3,
                p99_latency_ms=latency.p99 * 1e3,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges))

            if sampling:
                gauges = asdict(epoch_records[-1])
                del gauges["epoch"], gauges["time"]
                gauges.update(drift=sample.drift, edge_cut=sample.edge_cut,
                              imbalance=sample.imbalance)
                for name, value in gauges.items():
                    metrics.gauge(f"service.epoch.{name}").set(value)
                metric_sample = sampler.sample(t1, index=epoch)
                assert metric_sample is not None and evaluator is not None
                alerts.extend(evaluator.observe(metric_sample))

            if tracing:
                tracer.end(epoch_span, t1,
                           completed=outcome.completed_queries,
                           applied=len(apply_now))

        if tracing:
            tracer.end(root, config.epochs * config.epoch_duration,
                       migrations=len(migration_events),
                       shed_writes=int(c_shed_writes.value))
        return ServiceResult(
            drift=drift_samples,
            migrations=migration_events,
            epochs=epoch_records,
            shed_writes=int(c_shed_writes.value),
            shed_reads=int(c_shed_reads.value),
            final_assignment=self._incr.assignment.copy(),
            metrics=metrics,
            samples=sampler.samples,
            alerts=alerts,
            slo_status=evaluator.to_dict() if evaluator is not None
            else None)
