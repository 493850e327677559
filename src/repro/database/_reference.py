"""Frozen scalar reference for the closed-loop DES (pre-vectorization).

This module is a verbatim snapshot of ``repro.database.simulation``'s
event loop as it stood before the batched rewrite — the same pattern PR 5
established for the streaming partitioners in
``repro.partitioning._reference``.  It exists for exactly two purposes:

1. **Equivalence gate** — ``tests/test_substrate_equivalence.py`` and
   the ``substrates`` suite of ``benchmarks/bench.py`` assert that the
   production simulator produces *byte-identical* results (latencies,
   per-worker arrays, metric values, spans) against this snapshot across
   fault-free and faulty scenarios.
2. **Benchmark baseline** — the "before" timings in
   ``BENCH_substrates.json`` come from running this loop.

Do not optimise this file.  The only deliberate deviations from the
snapshotted production code are the ``Reference*`` names, the
``events_processed`` loop counter (the benchmark's events/sec
denominator; it touches no simulation arithmetic), and the two
documented accounting bugfixes the production loop later received —
this snapshot keeps the *original* (pre-fix) behaviour so the fixes'
digest impact stays observable:

* sampler ticks between the final event and the horizon are dropped
  when the heap empties early (the production loop drains them);
* the coordinator merge charges ``len(phase.requests)`` responses even
  if some never arrived (the production loop counts received ones).

Shared result/model types (:class:`SimulationResult`, the byte
constants, :class:`Cluster`) are imported from the production modules —
they are containers, not loop code.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.database.cluster import Cluster, ServiceModel
from repro.database.queries import plan_query
from repro.database.router import FailoverRouter, RoutedQuery, route_plan
from repro.database.simulation import (
    BYTES_PER_REMOTE_REQUEST,
    BYTES_PER_VERTEX_RECORD,
    SimulationResult,
)
from repro.database.workload import QueryBinding
from repro.errors import ConfigurationError, QueryTimeoutError, WorkerFailedError
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    NO_FAULTS,
    FaultSchedule,
    ReplicaMap,
    RetryPolicy,
)
from repro.graph.digraph import Graph
from repro.telemetry import get_tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.tools import sanitize



@dataclass(order=True)
class _Event:
    time: float
    seq: int
    kind: str = field(compare=False)
    payload: object = field(compare=False)


class _QueryState:
    """Progress of one in-flight query."""

    __slots__ = ("routed", "client", "phase", "outstanding", "started",
                 "phase_ready", "coordinator", "failed", "span", "hop_span")

    def __init__(self, routed: RoutedQuery, client: int, started: float):
        self.routed = routed
        self.client = client
        self.phase = 0
        self.outstanding = 0
        self.started = started
        self.phase_ready = started
        self.coordinator = routed.coordinator
        self.failed = False
        self.span = 0
        self.hop_span = 0


class _Request:
    """One storage request in flight, tracked for timeout/retry."""

    __slots__ = ("state", "primary", "reads", "attempt")

    def __init__(self, state: _QueryState, primary: int, reads: int,
                 attempt: int):
        self.state = state
        self.primary = primary
        self.reads = reads
        self.attempt = attempt


class ReferenceClosedLoopSimulation:
    """The pre-vectorization scalar event loop, frozen.

    Same constructor contract as the production
    :class:`~repro.database.simulation.ClosedLoopSimulation`; see that
    class for parameter documentation.  After :meth:`run`,
    :attr:`events_processed` holds the number of heap events the loop
    dispatched (the benchmark's logical-event denominator).
    """

    def __init__(self, graph: Graph, vertex_owner, num_workers: int, *,
                 clients_per_worker: int = 12,
                 service_model: ServiceModel | None = None,
                 fanout_limit: int | None = 64,
                 worker_speeds=None,
                 fault_schedule: FaultSchedule | None = None,
                 retry_policy: RetryPolicy | None = None,
                 k_safety: int = 2,
                 raise_on_failure: bool = False):
        owner = np.asarray(vertex_owner, dtype=np.int64)
        if owner.shape != (graph.num_vertices,):
            raise ConfigurationError("vertex_owner must map every vertex")
        if owner.size and (owner.min() < 0 or owner.max() >= num_workers):
            raise ConfigurationError("vertex_owner contains invalid worker ids")
        if clients_per_worker < 1:
            raise ConfigurationError("clients_per_worker must be >= 1")
        self.graph = graph
        self.owner = owner
        self.cluster = Cluster(num_workers, owner, service_model,
                               worker_speeds=worker_speeds)
        self.clients_per_worker = clients_per_worker
        self.fanout_limit = fanout_limit
        self.fault_schedule = fault_schedule or NO_FAULTS
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.replica_map = ReplicaMap(num_workers,
                                      max(1, min(k_safety, num_workers)))
        self.raise_on_failure = raise_on_failure
        self._plan_cache: dict[tuple, RoutedQuery] = {}
        self.events_processed = 0

    # ------------------------------------------------------------------
    def _routed(self, binding: QueryBinding) -> RoutedQuery:
        key = (binding.kind, binding.start_vertex, binding.target_vertex)
        cached = self._plan_cache.get(key)
        if cached is None:
            plan = plan_query(self.graph, binding.kind, binding.start_vertex,
                              target_vertex=binding.target_vertex,
                              fanout_limit=self.fanout_limit)
            cached = route_plan(plan, self.owner)
            self._plan_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def run(self, bindings: list[QueryBinding], *, duration: float = 2.0,
            warmup_fraction: float = 0.25,
            background_work=None,
            migrating_vertices=None,
            migration_wait_seconds: float = 0.0,
            sampler=None,
            sample_interval: float | None = None) -> SimulationResult:
        """Simulate *duration* seconds of closed-loop load (frozen loop)."""
        if not bindings:
            raise ConfigurationError("bindings must be non-empty")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if migration_wait_seconds < 0:
            raise ConfigurationError("migration_wait_seconds must be >= 0")
        migrating = None
        if migrating_vertices is not None:
            moving = np.asarray(migrating_vertices, dtype=np.int64)
            if moving.size:
                migrating = frozenset(moving.tolist())
        self.cluster.reset()
        model = self.cluster.model
        schedule = self.fault_schedule
        policy = self.retry_policy
        faulty = not schedule.is_empty
        router = FailoverRouter(self.replica_map, schedule)
        num_clients = self.clients_per_worker * self.cluster.num_workers
        warmup = duration * warmup_fraction
        tracer = get_tracer()
        tracing = tracer.enabled

        events: list[_Event] = []
        sequence = itertools.count()
        request_ids = itertools.count()
        retry_ids = itertools.count()
        binding_cursor = [int(i * len(bindings) / num_clients)
                          for i in range(num_clients)]

        latencies: list[float] = []
        metrics = MetricsRegistry()
        c_completed = metrics.counter("db.queries.completed")
        c_bytes = metrics.counter("db.network_bytes")
        c_remote = metrics.counter("db.reads.remote")
        c_total = metrics.counter("db.reads.total")
        c_timeouts = metrics.counter("db.timeouts")
        c_retries = metrics.counter("db.retries")
        c_failed = metrics.counter("db.queries.failed")
        c_dropped = metrics.counter("db.requests.dropped")
        c_migration_waits = metrics.counter("db.migration.waits") \
            if migrating is not None else None
        c_migration_busy = metrics.counter("db.migration.busy_seconds") \
            if background_work else None
        sampling = sampler is not None and sampler.enabled
        if sampling:
            sampler.registry = metrics
            tick = duration / 10.0 if sample_interval is None \
                else float(sample_interval)
            if tick <= 0:
                raise ConfigurationError("sample_interval must be positive")
            next_tick = tick
        root_span = tracer.begin(
            "db.run", 0.0, parent=None,
            num_workers=self.cluster.num_workers,
            clients_per_worker=self.clients_per_worker,
            duration=duration) if tracing else 0

        def push(time: float, kind: str, payload) -> None:
            heapq.heappush(events, _Event(time, next(sequence), kind, payload))

        def next_binding(client: int) -> QueryBinding:
            index = binding_cursor[client]
            binding_cursor[client] = (index + 1) % len(bindings)
            return bindings[index]

        def start_query(client: int, now: float) -> None:
            binding = next_binding(client)
            routed = self._routed(binding)
            state = _QueryState(routed, client, now)
            if migrating is not None and binding.start_vertex in migrating:
                c_migration_waits.inc()
                state.phase_ready = now + migration_wait_seconds
                if tracing:
                    tracer.point("db.migration.wait", now, parent=root_span,
                                 vertex=binding.start_vertex, client=client)
                now = state.phase_ready
            if tracing:
                state.span = tracer.begin(
                    "db.query", now, parent=root_span, kind=routed.kind,
                    client=client, coordinator=routed.coordinator)
                tracer.point("db.route", now, parent=state.span,
                             coordinator=routed.coordinator,
                             phases=len(routed.phases))
            if faulty:
                coordinator = router.coordinator(routed, now)
                if coordinator is None:
                    if self.raise_on_failure:
                        raise WorkerFailedError(
                            f"entire replica chain of worker "
                            f"{routed.coordinator} is down at t={now:.4f}s")
                    state.failed = True
                    push(now + policy.timeout_seconds, "abort", state)
                    return
                if tracing and coordinator != routed.coordinator:
                    tracer.point("db.failover", now, parent=state.span,
                                 kind="coordinator",
                                 primary=routed.coordinator,
                                 replica=coordinator)
                state.coordinator = coordinator
            issue_phase(state, now)

        def issue_phase(state: _QueryState, now: float) -> None:
            routed = state.routed
            if state.phase >= len(routed.phases):
                finish_query(state, now)
                return
            requests = routed.phases[state.phase].requests
            if not requests:
                state.phase += 1
                issue_phase(state, now)
                return
            state.outstanding = len(requests)
            if tracing:
                state.hop_span = tracer.begin(
                    "db.hop", now, parent=state.span, phase=state.phase,
                    fanout=len(requests))
            for worker_id, reads in requests:
                issue_request(state, worker_id, reads, now, 0)

        def issue_request(state: _QueryState, primary: int, reads: int,
                          now: float, attempt: int) -> None:
            target = router.target(primary, attempt) if faulty else primary
            worker = self.cluster.workers[target]
            remote = target != state.coordinator
            extra = (schedule.extra_latency_seconds
                     if faulty and remote else 0.0)
            arrival = now + (model.network_rtt_seconds / 2 + extra
                             if remote else 0.0)
            if tracing and attempt > 0 and target != primary:
                tracer.point("db.failover", now, parent=state.hop_span,
                             kind="request", primary=primary,
                             replica=target, attempt=attempt)
            if faulty:
                request_id = next(request_ids)
                if schedule.is_crashed(target, arrival):
                    worker.stats.requests_lost += 1
                    if tracing:
                        tracer.point("db.request.lost", now,
                                     parent=state.hop_span, worker=target,
                                     reads=reads, attempt=attempt,
                                     reason="crashed")
                    push(now + policy.timeout_seconds, "timeout",
                         _Request(state, primary, reads, attempt))
                    return
                if schedule.should_drop(request_id):
                    c_dropped.inc()
                    worker.stats.requests_lost += 1
                    if tracing:
                        tracer.point("db.request.lost", now,
                                     parent=state.hop_span, worker=target,
                                     reads=reads, attempt=attempt,
                                     reason="dropped")
                    push(now + policy.timeout_seconds, "timeout",
                         _Request(state, primary, reads, attempt))
                    return
            service = worker.service_seconds(reads)
            if faulty:
                factor = schedule.speed_factor(target, arrival)
                if factor != 1.0:
                    service = service / factor
            begin = max(arrival, worker.busy_until)
            completion = begin + service
            worker.busy_until = completion
            worker.stats.requests_served += 1
            worker.stats.vertices_read += reads
            worker.stats.busy_seconds += service
            c_total.inc(reads)
            if remote:
                worker.stats.remote_requests += 1
                c_remote.inc(reads)
                c_bytes.inc(BYTES_PER_REMOTE_REQUEST
                            + reads * BYTES_PER_VERTEX_RECORD)
            response = completion + (model.network_rtt_seconds / 2 + extra
                                     if remote else 0.0)
            if tracing:
                rid = tracer.begin("db.request", now, parent=state.hop_span,
                                   worker=target, reads=reads,
                                   attempt=attempt, remote=remote,
                                   queue_seconds=begin - arrival,
                                   service_seconds=service)
                tracer.end(rid, response)
            push(response, "response", state)

        def finish_query(state: _QueryState, now: float) -> None:
            if now >= warmup:
                latencies.append(now - state.started)
                c_completed.inc()
            if tracing:
                tracer.end(state.span, now, status="ok",
                           latency_seconds=now - state.started)
            if now < duration:
                push(now + model.think_seconds, "start", state.client)

        def fail_query(state: _QueryState, now: float) -> None:
            if self.raise_on_failure:
                raise QueryTimeoutError(
                    f"{state.routed.kind} query of client {state.client} "
                    f"exhausted its {policy.max_retries}-retry budget at "
                    f"t={now:.4f}s")
            if now >= warmup:
                c_failed.inc()
            if tracing:
                tracer.end(state.span, now, status="failed",
                           latency_seconds=now - state.started)
            if now < duration:
                push(now + model.think_seconds, "start", state.client)

        def request_settled(state: _QueryState, now: float) -> None:
            state.outstanding -= 1
            if state.outstanding != 0:
                return
            if state.failed:
                if tracing:
                    tracer.end(state.hop_span, now, status="failed")
                fail_query(state, now)
                return
            coordinator = self.cluster.workers[state.coordinator]
            responses = len(state.routed.phases[state.phase].requests)
            merge = (model.coordinator_overhead_seconds
                     + responses * model.per_response_seconds) \
                / coordinator.speed
            begin = max(now, coordinator.busy_until)
            done = begin + merge
            coordinator.busy_until = done
            coordinator.stats.busy_seconds += merge
            if tracing:
                tracer.end(state.hop_span, done, status="ok",
                           merge_seconds=merge)
            state.phase += 1
            push(done, "phase_done", state)

        def on_timeout(request: _Request, now: float) -> None:
            c_timeouts.inc()
            if tracing:
                tracer.point("db.timeout", now,
                             parent=request.state.hop_span,
                             worker=request.primary,
                             attempt=request.attempt)
            if request.state.failed:
                request_settled(request.state, now)
                return
            if request.attempt < policy.max_retries:
                c_retries.inc()
                delay = policy.backoff_seconds(
                    request.attempt, schedule.jitter(next(retry_ids)))
                if tracing:
                    tracer.point("db.retry", now,
                                 parent=request.state.hop_span,
                                 worker=request.primary,
                                 attempt=request.attempt,
                                 delay_seconds=delay)
                request.attempt += 1
                push(now + delay, "retry", request)
                return
            request.state.failed = True
            request_settled(request.state, now)

        def on_retry(request: _Request, now: float) -> None:
            issue_request(request.state, request.primary, request.reads,
                          now, request.attempt)

        def on_phase_done(state: _QueryState, now: float) -> None:
            issue_phase(state, now)

        def on_background(payload, now: float) -> None:
            worker_id, seconds = payload
            worker = self.cluster.workers[worker_id]
            begin = max(now, worker.busy_until)
            worker.busy_until = begin + seconds
            worker.stats.busy_seconds += seconds
            worker.stats.migration_seconds += seconds
            worker.stats.migration_batches += 1
            c_migration_busy.inc(seconds)
            if tracing:
                tracer.point("db.migration.batch", now, parent=root_span,
                             worker=worker_id, seconds=seconds)

        for client in range(num_clients):
            push(client * 1e-6, "start", client)
        if background_work:
            for when, worker_id, seconds in background_work:
                if seconds < 0 or when < 0:
                    raise ConfigurationError(
                        "background_work entries must have time >= 0 and "
                        "seconds >= 0")
                if not 0 <= int(worker_id) < self.cluster.num_workers:
                    raise ConfigurationError(
                        f"background_work worker {worker_id} outside the "
                        f"{self.cluster.num_workers}-worker cluster")
                push(float(when), "background",
                     (int(worker_id), float(seconds)))

        sanitizing = sanitize.ACTIVE
        last_event_time = 0.0
        processed = 0
        while events:
            event = heapq.heappop(events)
            if sanitizing:
                sanitize.check_event_time(event.time, last_event_time,
                                          "database._reference.event_loop")
                last_event_time = event.time
            if sampling:
                while next_tick <= event.time and next_tick < duration:
                    sampler.sample(next_tick)
                    next_tick += tick
            if event.time > duration:
                break
            processed += 1
            if event.kind == "start":
                start_query(event.payload, event.time)
            elif event.kind == "phase_done":
                on_phase_done(event.payload, event.time)
            elif event.kind == "response":
                request_settled(event.payload, event.time)
            elif event.kind == "timeout":
                on_timeout(event.payload, event.time)
            elif event.kind == "retry":
                on_retry(event.payload, event.time)
            elif event.kind == "background":
                on_background(event.payload, event.time)
            else:  # "abort": the whole replica chain was down at start.
                fail_query(event.payload, event.time)
        self.events_processed = processed

        workers = self.cluster.workers
        metrics.histogram("db.query.latency_seconds").observe_many(latencies)
        metrics.histogram("db.worker.vertices_read").observe_many(
            w.stats.vertices_read for w in workers)
        metrics.histogram("db.worker.busy_seconds").observe_many(
            w.stats.busy_seconds for w in workers)
        if sampling:
            sampler.sample(duration)
        if tracing:
            tracer.end_subtree(root_span, duration, status="inflight")
            tracer.end(root_span, duration,
                       completed_queries=int(c_completed.value),
                       failed_queries=int(c_failed.value))
        return SimulationResult(
            num_workers=self.cluster.num_workers,
            clients_per_worker=self.clients_per_worker,
            duration=duration,
            warmup=warmup,
            latencies=np.asarray(latencies),
            vertices_read_per_worker=np.array(
                [w.stats.vertices_read for w in workers], dtype=np.int64),
            requests_per_worker=np.array(
                [w.stats.requests_served for w in workers], dtype=np.int64),
            busy_seconds_per_worker=np.array(
                [w.stats.busy_seconds for w in workers]),
            metrics=metrics,
            requests_lost_per_worker=np.array(
                [w.stats.requests_lost for w in workers], dtype=np.int64),
        )


def reference_simulate_workload(graph: Graph, partition, bindings, *,
                                clients_per_worker: int = 12,
                                duration: float = 2.0,
                                service_model: ServiceModel | None = None,
                                fanout_limit: int | None = 64,
                                worker_speeds=None,
                                fault_schedule: FaultSchedule | None = None,
                                retry_policy: RetryPolicy | None = None,
                                k_safety: int = 2,
                                raise_on_failure: bool = False,
                                sampler=None,
                                sample_interval: float | None = None,
                                ) -> SimulationResult:
    """One-shot wrapper around :class:`ReferenceClosedLoopSimulation`."""
    assignment = getattr(partition, "assignment", partition)
    num_workers = getattr(partition, "num_partitions",
                          int(np.max(assignment)) + 1)
    sim = ReferenceClosedLoopSimulation(
        graph, assignment, num_workers,
        clients_per_worker=clients_per_worker,
        service_model=service_model,
        fanout_limit=fanout_limit,
        worker_speeds=worker_speeds,
        fault_schedule=fault_schedule,
        retry_policy=retry_policy,
        k_safety=k_safety,
        raise_on_failure=raise_on_failure,
    )
    return sim.run(bindings, duration=duration, sampler=sampler,
                   sample_interval=sample_interval)
