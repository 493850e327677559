"""Closed-loop discrete-event simulation of the graph-database cluster.

Reproduces the paper's online-query methodology (Section 5.2): a cluster
of ``k`` workers serves 1-hop / 2-hop / shortest-path queries issued by
``C`` concurrent closed-loop clients per worker — 12 for the paper's
*medium load* ("high utilization"), 24 for *high load* ("overloaded").
Each client issues its next query the moment the previous one completes.

The simulation is an exact FIFO single-server queueing model per worker:
requests arrive (after a half-RTT if remote), queue, occupy the server
for a deterministic service time, and respond (plus the other half-RTT).
A query advances phase by phase; a phase completes when its slowest
request responds.  Everything is deterministic given the binding set, so
two partitioning algorithms are compared on *exactly* the same workload —
the paper's setup.

What emerges, rather than being programmed in:

* lower edge-cut ratio → fewer/larger/more-local requests → less
  per-request overhead and network time → higher throughput under medium
  load (Fig. 6, Table 4→Fig. 5 correlation);
* workload skew + clustering partitioners → hot workers → queueing →
  collapsed tail latency under high load (Table 5, Figs. 7/15);
* more workers at fixed client count → more remote fan-out per query →
  throughput degradation beyond ~16 workers (Fig. 12).

Event-loop representation
-------------------------
The heap holds plain ``(time, seq, kind, payload)`` tuples — kind is a
small int — so ordering compares run in C instead of a dataclass
``__lt__`` (which dominated the old profile at >500k calls per run).
Every run, with or without faults, goes through one loop with one
handler per event kind.

A binding's query plan depends on the graph alone, so it comes from a
per-graph :class:`~repro.database.queries.QueryPlanner`, which
simulations of the same graph share (the experiments keep one per
dataset).  Routing that plan against this instance's placement, and
compiling it, stay per instance.  Each binding's routed plan is
compiled once per *effective coordinator* into per-phase request rows
(:class:`_PhaseColumns` — service times, network deltas, byte totals,
merge cost); a failover coordinator gets its own compilation, because
it changes which rows are remote.  A *request batch* — a phase's first
attempt, or one retried request — is issued in one pass over its rows.
Every row consumes one sequence number.  Under a non-empty fault
schedule a row also consumes a request id and takes its crash, drop,
slowdown and extra-latency decisions, and a lost row pushes its
``_TIMEOUT``.  The served rows' response events collapse into one
``_SETTLED`` event at their lexicographically-last ``(time, seq)``.

The collapse is exact because of two invariants:

* every fault decision is made when a request is *issued*, never when
  its response arrives;
* an intermediate response event has no side effect — it only moves the
  phase's outstanding count toward zero.

So heap tie-breaking, the sampler's tick boundaries and every float
accumulation order are *identical* to a loop that pushes one response
event per request.  ``repro.database._reference`` freezes such a loop,
and ``tests/test_substrate_equivalence.py`` holds this one to
byte-identical results against it, faulty scenarios included.  An empty
fault schedule skips every fault decision, so a run with it performs the
same arithmetic in the same order as a run without fault injection (the
ChaosHarness invariant).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.database.cluster import Cluster, ServiceModel
from repro.database.queries import QueryPlanner
from repro.database.router import FailoverRouter, RoutedQuery, route_plan
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
from repro.metrics.runtime import LatencySummary, latency_summary
from repro.telemetry import get_tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.tools import sanitize

#: Wire size of one vertex record (id + properties + framing).
BYTES_PER_VERTEX_RECORD = 128.0
#: Fixed wire overhead of one remote request/response pair.
BYTES_PER_REMOTE_REQUEST = 256.0

# Heap-event kinds.  Events are ``(time, seq, kind, payload)`` tuples;
# ``seq`` is unique so the kind int never participates in ordering.
_START = 0
_PHASE_DONE = 1
_SETTLED = 2  # a request batch's served responses, collapsed
_TIMEOUT = 3
_RETRY = 4
_BACKGROUND = 5
_ABORT = 6


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated run.

    The run's scalar counters live in the ``db.*`` namespace of
    :attr:`metrics` (a :class:`~repro.telemetry.metrics.MetricsRegistry`
    snapshot of the event loop); the historical attribute spellings —
    ``completed_queries``, ``timeouts``, ``network_bytes``, … — are
    properties over that registry, so existing callers and the
    ChaosHarness field comparisons are unaffected.
    """

    num_workers: int
    clients_per_worker: int
    duration: float
    warmup: float
    latencies: np.ndarray
    vertices_read_per_worker: np.ndarray
    requests_per_worker: np.ndarray
    busy_seconds_per_worker: np.ndarray
    metrics: MetricsRegistry
    requests_lost_per_worker: np.ndarray | None = None

    @property
    def completed_queries(self) -> int:
        """Queries finished after warmup (counter ``db.queries.completed``)."""
        return int(self.metrics.value("db.queries.completed"))

    @property
    def network_bytes(self) -> float:
        """Bytes moved by remote requests (counter ``db.network_bytes``)."""
        return float(self.metrics.value("db.network_bytes"))

    @property
    def remote_reads(self) -> int:
        """Vertex reads served off-coordinator (``db.reads.remote``)."""
        return int(self.metrics.value("db.reads.remote"))

    @property
    def total_reads(self) -> int:
        """All vertex reads (counter ``db.reads.total``)."""
        return int(self.metrics.value("db.reads.total"))

    @property
    def timeouts(self) -> int:
        """Requests whose deadline fired (counter ``db.timeouts``)."""
        return int(self.metrics.value("db.timeouts"))

    @property
    def retries(self) -> int:
        """Requests re-issued to a replica (counter ``db.retries``)."""
        return int(self.metrics.value("db.retries"))

    @property
    def failed_queries(self) -> int:
        """Queries lost after warmup (counter ``db.queries.failed``)."""
        return int(self.metrics.value("db.queries.failed"))

    @property
    def dropped_requests(self) -> int:
        """Requests dropped on the wire (counter ``db.requests.dropped``)."""
        return int(self.metrics.value("db.requests.dropped"))

    @property
    def availability(self) -> float:
        """Fraction of post-warmup queries that completed (1.0 = no loss).

        The SLA-style metric of the fault-tolerance experiments: a query
        counts as unavailable when it exhausted its retry budget or its
        start vertex's entire replica chain was down.
        """
        attempted = self.completed_queries + self.failed_queries
        if attempted == 0:
            return 1.0
        return self.completed_queries / attempted

    @property
    def throughput(self) -> float:
        """Completed queries per simulated second (post-warmup)."""
        window = self.duration - self.warmup
        if window <= 0:
            return 0.0
        return self.completed_queries / window

    def latency(self) -> LatencySummary:
        """Mean / p50 / p99 of post-warmup query latencies (Table 5)."""
        return latency_summary(self.latencies)

    def read_distribution(self) -> np.ndarray:
        """Per-worker vertex reads (the Fig. 7/15 distribution)."""
        return self.vertices_read_per_worker


class _PhaseColumns:
    """A request batch compiled for one coordinator: a routed phase, or
    a single retried request.

    ``rows`` holds one ``(worker, reads, service_seconds, net_delta,
    remote)`` tuple per request — every float computed by the *same
    expression* the per-request model uses (``model.service_seconds(
    reads) / worker.speed``), so issuing from the rows reproduces that
    arithmetic bit for bit.  ``net_delta`` is the one-way half-RTT of a
    remote row (0.0 for a local one); the loop adds the fault schedule's
    extra latency to it, keeping the expression
    ``network_rtt_seconds / 2 + extra``.
    """

    __slots__ = ("rows", "fanout", "total_reads", "remote_reads",
                 "wire_bytes", "merge_seconds")

    def __init__(self, rows: tuple, fanout: int, total_reads: int,
                 remote_reads: int, wire_bytes: float,
                 merge_seconds: float):
        self.rows = rows
        self.fanout = fanout
        self.total_reads = total_reads
        self.remote_reads = remote_reads
        self.wire_bytes = wire_bytes
        self.merge_seconds = merge_seconds


class _QueryColumns:
    """A routed query's phases compiled for one coordinator."""

    __slots__ = ("routed", "kind", "coordinator", "phases", "num_phases")

    def __init__(self, routed: RoutedQuery, coordinator: int,
                 phases: tuple):
        self.routed = routed
        self.kind = routed.kind
        self.coordinator = coordinator
        self.phases = phases
        self.num_phases = len(phases)


class _QueryState:
    """Progress of one in-flight query."""

    __slots__ = ("cols", "client", "phase", "outstanding", "received",
                 "started", "failed", "span", "hop_span")

    def __init__(self, cols: _QueryColumns, client: int, started: float):
        #: The plan compiled for the effective coordinator — the routed
        #: primary unless it was down at query start and a replica took
        #: over.
        self.cols = cols
        self.client = client
        self.phase = 0
        #: Pending settle events of the current phase: one per request
        #: batch with a served row, one per lost request whose
        #: timeout/retry chain is still open.
        self.outstanding = 0
        #: Responses that arrived this phase — the merge below may only
        #: charge for these, not the planned fan-out.  Credited at issue:
        #: a served row's response is certain, and the merge cannot run
        #: before its settle event.
        self.received = 0
        self.started = started
        #: Set when any request of this query exhausted its retry budget.
        self.failed = False
        #: Open telemetry span ids (0 = tracing disabled).
        self.span = 0
        self.hop_span = 0


class _Request:
    """One lost storage request, tracked for timeout/retry."""

    __slots__ = ("state", "primary", "reads", "attempt")

    def __init__(self, state: _QueryState, primary: int, reads: int,
                 attempt: int):
        self.state = state
        self.primary = primary
        self.reads = reads
        self.attempt = attempt


class ClosedLoopSimulation:
    """Closed-loop query simulation over a partitioned graph store.

    Parameters
    ----------
    graph:
        The stored graph (query plans are computed against it).
    vertex_owner:
        Worker id per vertex — a :class:`~repro.partitioning.base.
        VertexPartition` assignment (JanusGraph's edge-cut placement).
    clients_per_worker:
        12 = the paper's medium load, 24 = high load.
    service_model:
        Cluster timing constants.
    planner:
        The :class:`~repro.database.queries.QueryPlanner` of *graph* whose
        memoised plans this simulation routes; share one across
        simulations of the same graph to plan each binding once.
        ``None`` builds a private planner with the default 2-hop
        frontier cap.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule`.  ``None`` or the
        empty schedule leaves every result bit-identical to a run without
        fault injection (the :class:`~repro.faults.ChaosHarness`
        invariant).
    retry_policy:
        Client timeout/retry behaviour under faults (defaults to
        :data:`~repro.faults.DEFAULT_RETRY_POLICY`).
    k_safety:
        Replica-chain length of the failover map (clamped to the cluster
        size); 1 disables failover.
    raise_on_failure:
        When True, the first unavailable query raises
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.WorkerFailedError` instead of being counted.
    """

    def __init__(self, graph: Graph, vertex_owner, num_workers: int, *,
                 clients_per_worker: int = 12,
                 service_model: ServiceModel | None = None,
                 planner: QueryPlanner | None = None,
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
        if planner is None:
            planner = QueryPlanner(graph)
        elif planner.graph is not graph:
            raise ConfigurationError(
                "planner was built for a different graph than the one "
                "being simulated")
        self.graph = graph
        self.owner = owner
        self.cluster = Cluster(num_workers, owner, service_model,
                               worker_speeds=worker_speeds)
        self.clients_per_worker = clients_per_worker
        self.planner = planner
        self.fault_schedule = fault_schedule or NO_FAULTS
        self.fault_schedule.check_workers(num_workers)
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.replica_map = ReplicaMap(num_workers,
                                      max(1, min(k_safety, num_workers)))
        self.raise_on_failure = raise_on_failure
        # Worker speeds and the (scaled) service model are fixed at
        # construction, so compiled plans stay valid across runs.
        self._compiled: dict[tuple, _QueryColumns] = {}

    # ------------------------------------------------------------------
    def _columns(self, binding: QueryBinding,
                 coordinator: int | None = None) -> _QueryColumns:
        """*binding*'s routed plan compiled for *coordinator* (``None``:
        the routed one, the start vertex's owner)."""
        key = (binding.kind, binding.start_vertex, binding.target_vertex,
               coordinator)
        cached = self._compiled.get(key)
        if cached is None:
            if coordinator is None:
                plan = self.planner.plan(
                    binding.kind, binding.start_vertex,
                    target_vertex=binding.target_vertex)
                routed = route_plan(plan, self.owner)
                coordinator = routed.coordinator
            else:
                routed = self._columns(binding).routed
            cached = _QueryColumns(routed, coordinator, tuple(
                self._batch(phase.requests, coordinator)
                for phase in routed.phases))
            self._compiled[key] = cached
        return cached

    def _batch(self, requests, coordinator: int) -> _PhaseColumns:
        """Compile ``(worker, reads)`` *requests* for *coordinator*."""
        model = self.cluster.model
        workers = self.cluster.workers
        half_rtt = model.network_rtt_seconds / 2
        rows = []
        total_reads = 0
        remote_reads = 0
        wire_bytes = 0.0
        for worker_id, reads in requests:
            remote = worker_id != coordinator
            service = model.service_seconds(reads) / workers[worker_id].speed
            rows.append((worker_id, reads, service,
                         half_rtt if remote else 0.0, remote))
            total_reads += reads
            if remote:
                remote_reads += reads
                wire_bytes += (BYTES_PER_REMOTE_REQUEST
                               + reads * BYTES_PER_VERTEX_RECORD)
        merge = (model.coordinator_overhead_seconds
                 + len(rows) * model.per_response_seconds) \
            / workers[coordinator].speed
        return _PhaseColumns(tuple(rows), len(rows), total_reads,
                             remote_reads, wire_bytes, merge)

    # ------------------------------------------------------------------
    def run(self, bindings: list[QueryBinding], *, duration: float = 2.0,
            warmup_fraction: float = 0.25,
            background_work=None,
            migrating_vertices=None,
            migration_wait_seconds: float = 0.0,
            sampler=None,
            sample_interval: float | None = None) -> SimulationResult:
        """Simulate *duration* seconds of closed-loop load.

        Clients cycle through *bindings* at staggered offsets, so every
        algorithm under comparison serves the same query sequence.
        Metrics cover completions after ``warmup_fraction * duration``.

        The three optional knobs model an in-flight partition migration
        (see :mod:`repro.service`) and are **exact no-ops** when left at
        their defaults — the same ChaosHarness-style invariant as
        ``fault_schedule``:

        * ``background_work`` — ``(time, worker, seconds)`` triples; each
          occupies *worker*'s FIFO server for *seconds* starting no
          earlier than *time* (a migration batch shipping vertex state —
          rate-limited by the caller, so it delays but never stalls
          queries).
        * ``migrating_vertices`` — vertex ids temporarily double-homed
          mid-move; a query *starting* at one of them first waits
          ``migration_wait_seconds`` (the ownership-handshake retry) —
          counted in ``db.migration.waits``.

        ``sampler`` — an optional
        :class:`~repro.telemetry.timeseries.TimeSeriesSampler`; the run
        rebinds it to its own registry and snapshots it every
        ``sample_interval`` simulated seconds (default ``duration / 10``)
        plus once at the horizon, turning the run into a latency/
        throughput trajectory instead of one end-of-run aggregate.  A
        disabled (or absent) sampler adds zero registry calls.

        Every argument is validated before anything is touched, so a
        rejected call leaves the previous run's worker stats and the
        caller's sampler as they were.
        """
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
        num_workers = self.cluster.num_workers
        # Time-series sampling: tick the sampler at fixed simulated-time
        # intervals inside the event loop.  Disabled/absent samplers cost
        # nothing — not a single registry call.
        sampling = sampler is not None and sampler.enabled
        tick = 0.0
        if sampling:
            tick = duration / 10.0 if sample_interval is None \
                else float(sample_interval)
            if tick <= 0:
                raise ConfigurationError("sample_interval must be positive")
        background = []
        if background_work:
            for when, worker_id, seconds in background_work:
                if seconds < 0 or when < 0:
                    raise ConfigurationError(
                        "background_work entries must have time >= 0 and "
                        "seconds >= 0")
                if not 0 <= int(worker_id) < num_workers:
                    raise ConfigurationError(
                        f"background_work worker {worker_id} outside the "
                        f"{num_workers}-worker cluster")
                background.append((float(when), int(worker_id),
                                   float(seconds)))

        self.cluster.reset()
        model = self.cluster.model
        schedule = self.fault_schedule
        policy = self.retry_policy
        #: Every fault decision below is guarded by ``faulty``, so a run
        #: with the empty schedule performs the *same arithmetic in the
        #: same order* as one without fault injection (the ChaosHarness
        #: invariant).
        faulty = not schedule.is_empty
        router = FailoverRouter(self.replica_map, schedule)
        is_crashed = schedule.is_crashed
        should_drop = schedule.should_drop
        speed_factor = schedule.speed_factor
        extra = schedule.extra_latency_seconds
        timeout = policy.timeout_seconds
        num_clients = self.clients_per_worker * num_workers
        warmup = duration * warmup_fraction
        think = model.think_seconds
        tracer = get_tracer()
        tracing = tracer.enabled

        events: list[tuple] = []
        heappush = heapq.heappush
        next_seq = itertools.count().__next__
        next_request_id = itertools.count().__next__
        retry_ids = itertools.count()
        binding_cursor = [int(i * len(bindings) / num_clients)
                          for i in range(num_clients)]

        latencies: list[float] = []
        #: The run's counters: the same increments, in the same order, as
        #: the plain ints this loop used to carry — just named.
        metrics = MetricsRegistry()
        c_completed = metrics.counter("db.queries.completed")
        c_bytes = metrics.counter("db.network_bytes")
        c_remote = metrics.counter("db.reads.remote")
        c_total = metrics.counter("db.reads.total")
        c_timeouts = metrics.counter("db.timeouts")
        c_retries = metrics.counter("db.retries")
        c_failed = metrics.counter("db.queries.failed")
        c_dropped = metrics.counter("db.requests.dropped")
        # Created only when a migration is in flight, so a plain run's
        # metrics registry is byte-identical to the pre-service layout.
        c_migration_waits = metrics.counter("db.migration.waits") \
            if migrating is not None else None
        c_migration_busy = metrics.counter("db.migration.busy_seconds") \
            if background_work else None
        next_tick = tick
        if sampling:
            sampler.registry = metrics
        root_span = tracer.begin(
            "db.run", 0.0, parent=None,
            num_workers=num_workers,
            clients_per_worker=self.clients_per_worker,
            duration=duration) if tracing else 0

        # Worker state: the FIFO-server clock and the per-run stat
        # accumulators live in plain lists, folded into ``Worker.stats``
        # after the loop.  Every stat starts at zero after ``reset`` and
        # each list sees its additions in event order, so the folded
        # totals equal per-event updates of the stats.
        workers = self.cluster.workers
        busy = [0.0] * num_workers
        st_requests = [0] * num_workers
        st_reads = [0] * num_workers
        st_busy = [0.0] * num_workers
        st_remote = [0] * num_workers

        def next_binding(client: int) -> QueryBinding:
            index = binding_cursor[client]
            binding_cursor[client] = (index + 1) % len(bindings)
            return bindings[index]

        def start_query(client: int, now: float) -> None:
            binding = next_binding(client)
            cols = self._columns(binding)
            q = _QueryState(cols, client, now)
            if migrating is not None and binding.start_vertex in migrating:
                # The start vertex is mid-migration (double-homed): the
                # client's first request races the ownership handshake and
                # is answered only after one bounded retry wait.  Applied
                # once per query, at start — migration delays reads, it
                # never drops them.
                c_migration_waits.inc()
                if tracing:
                    tracer.point("db.migration.wait", now, parent=root_span,
                                 vertex=binding.start_vertex, client=client)
                now = now + migration_wait_seconds
            if tracing:
                q.span = tracer.begin(
                    "db.query", now, parent=root_span, kind=cols.kind,
                    client=client, coordinator=cols.coordinator)
                tracer.point("db.route", now, parent=q.span,
                             coordinator=cols.coordinator,
                             phases=cols.num_phases)
            if faulty:
                coordinator = router.coordinator(cols.routed, now)
                if coordinator is None:
                    # The start vertex's whole replica chain is down: the
                    # client cannot even open a session; it observes one
                    # timeout deadline and gives the query up.
                    if self.raise_on_failure:
                        raise WorkerFailedError(
                            f"entire replica chain of worker "
                            f"{cols.coordinator} is down at t={now:.4f}s")
                    q.failed = True
                    heappush(events, (now + timeout, next_seq(), _ABORT, q))
                    return
                if coordinator != cols.coordinator:
                    if tracing:
                        tracer.point("db.failover", now, parent=q.span,
                                     kind="coordinator",
                                     primary=cols.coordinator,
                                     replica=coordinator)
                    q.cols = self._columns(binding, coordinator)
            issue_phase(q, now)

        def issue_phase(q: _QueryState, now: float) -> None:
            cols = q.cols
            phase = q.phase
            while phase < cols.num_phases \
                    and cols.phases[phase].fanout == 0:
                phase += 1
            q.phase = phase
            if phase == cols.num_phases:
                finish_query(q, now)
                return
            pcols = cols.phases[phase]
            if tracing:
                q.hop_span = tracer.begin(
                    "db.hop", now, parent=q.span, phase=phase,
                    fanout=pcols.fanout)
            q.received = 0
            q.outstanding = issue(q, pcols, now, None)

        def issue(q: _QueryState, pcols: _PhaseColumns, now: float,
                  retry: _Request | None) -> int:
            """Issue one request batch — a phase's first attempt, or the
            single request *retry* — and return how many settle events
            it pushed: one ``_TIMEOUT`` per lost row, one ``_SETTLED``
            for all served rows."""
            attempt = 0 if retry is None else retry.attempt
            total_reads = pcols.total_reads
            remote_reads = pcols.remote_reads
            wire_bytes = pcols.wire_bytes
            lost = 0
            best_time = -1.0
            best_seq = 0
            for worker_id, reads, service, delta, remote in pcols.rows:
                # One sequence number per row, served or lost, as one
                # event per request would consume them.
                seq = next_seq()
                if faulty:
                    if remote:
                        delta = delta + extra
                    arrival = now + delta
                    request_id = next_request_id()
                    if is_crashed(worker_id, arrival):
                        # The request reaches a dead machine: no response
                        # will ever come; the client discovers this only
                        # through its timeout deadline.
                        reason = "crashed"
                    elif should_drop(request_id):
                        reason = "dropped"
                        c_dropped.inc()
                    else:
                        reason = None
                    if reason is not None:
                        lost += 1
                        total_reads -= reads
                        if remote:
                            remote_reads -= reads
                            wire_bytes -= (BYTES_PER_REMOTE_REQUEST
                                           + reads * BYTES_PER_VERTEX_RECORD)
                        workers[worker_id].stats.requests_lost += 1
                        if tracing:
                            tracer.point("db.request.lost", now,
                                         parent=q.hop_span, worker=worker_id,
                                         reads=reads, attempt=attempt,
                                         reason=reason)
                        heappush(events, (
                            now + timeout, seq, _TIMEOUT,
                            retry or _Request(q, worker_id, reads, 0)))
                        continue
                    factor = speed_factor(worker_id, arrival)
                    if factor != 1.0:
                        service = service / factor
                else:
                    arrival = now + delta
                server = busy[worker_id]
                begin = arrival if arrival > server else server
                completion = begin + service
                busy[worker_id] = completion
                st_requests[worker_id] += 1
                st_reads[worker_id] += reads
                st_busy[worker_id] += service
                if remote:
                    st_remote[worker_id] += 1
                response = completion + delta
                if response >= best_time:
                    best_time = response
                    best_seq = seq
                if tracing:
                    # The request's whole life is known analytically here,
                    # so the span is recorded at once: queueing is
                    # begin-arrival, service is completion-begin.
                    rid = tracer.begin("db.request", now, parent=q.hop_span,
                                       worker=worker_id, reads=reads,
                                       attempt=attempt, remote=remote,
                                       queue_seconds=begin - arrival,
                                       service_seconds=service)
                    tracer.end(rid, response)
            served = len(pcols.rows) - lost
            if not served:
                return lost
            q.received += served
            c_total.inc(total_reads)
            if remote_reads:
                c_remote.inc(remote_reads)
                c_bytes.inc(wire_bytes)
            heappush(events, (best_time, best_seq, _SETTLED, q))
            return lost + 1

        def settle(q: _QueryState, now: float) -> None:
            q.outstanding -= 1
            if q.outstanding:
                return
            if q.failed:
                if tracing:
                    tracer.end(q.hop_span, now, status="failed")
                fail_query(q, now)
                return
            # Merge the phase's responses on the coordinator: this
            # occupies the coordinating worker's server, so hot
            # coordinators queue up and wide fan-out costs CPU.  Charge
            # only the responses that arrived.  (Every merge-reaching
            # phase has them all today: a lost request either retries
            # into a response or fails the query, which skips the merge.)
            cols = q.cols
            pcols = cols.phases[q.phase]
            coordinator = cols.coordinator
            merge = pcols.merge_seconds
            if q.received != pcols.fanout:
                merge = (model.coordinator_overhead_seconds
                         + q.received * model.per_response_seconds) \
                    / workers[coordinator].speed
            server = busy[coordinator]
            begin = now if now > server else server
            done = begin + merge
            busy[coordinator] = done
            st_busy[coordinator] += merge
            if tracing:
                tracer.end(q.hop_span, done, status="ok",
                           merge_seconds=merge)
            q.phase += 1
            heappush(events, (done, next_seq(), _PHASE_DONE, q))

        def finish_query(q: _QueryState, now: float) -> None:
            if now >= warmup:
                latencies.append(now - q.started)
                c_completed.inc()
            if tracing:
                tracer.end(q.span, now, status="ok",
                           latency_seconds=now - q.started)
            if now < duration:
                heappush(events, (now + think, next_seq(), _START, q.client))

        def fail_query(q: _QueryState, now: float) -> None:
            if self.raise_on_failure:
                raise QueryTimeoutError(
                    f"{q.cols.kind} query of client {q.client} "
                    f"exhausted its {policy.max_retries}-retry budget at "
                    f"t={now:.4f}s")
            if now >= warmup:
                c_failed.inc()
            if tracing:
                tracer.end(q.span, now, status="failed",
                           latency_seconds=now - q.started)
            if now < duration:
                heappush(events, (now + think, next_seq(), _START, q.client))

        def on_timeout(request: _Request, now: float) -> None:
            q = request.state
            c_timeouts.inc()
            if tracing:
                tracer.point("db.timeout", now, parent=q.hop_span,
                             worker=request.primary,
                             attempt=request.attempt)
            if q.failed:
                # The query already failed on another request: don't burn
                # retries on it, just settle this one.
                settle(q, now)
                return
            if request.attempt < policy.max_retries:
                c_retries.inc()
                delay = policy.backoff_seconds(
                    request.attempt, schedule.jitter(next(retry_ids)))
                if tracing:
                    tracer.point("db.retry", now, parent=q.hop_span,
                                 worker=request.primary,
                                 attempt=request.attempt,
                                 delay_seconds=delay)
                request.attempt += 1
                heappush(events, (now + delay, next_seq(), _RETRY, request))
                return
            q.failed = True
            settle(q, now)

        def on_retry(request: _Request, now: float) -> None:
            # Failover: attempt n goes to replica n of the primary owner.
            # The retry takes over its lost request's one settle event,
            # so the phase's outstanding count does not change.
            q = request.state
            target = router.target(request.primary, request.attempt)
            if tracing and target != request.primary:
                tracer.point("db.failover", now, parent=q.hop_span,
                             kind="request", primary=request.primary,
                             replica=target, attempt=request.attempt)
            issue(q, self._batch(((target, request.reads),),
                                 q.cols.coordinator), now, request)

        def on_background(payload, now: float) -> None:
            # A migration batch occupies the worker's FIFO server like any
            # storage request: queries queued behind it wait, which is the
            # honest latency price of shipping vertex state.
            worker_id, seconds = payload
            server = busy[worker_id]
            begin = now if now > server else server
            busy[worker_id] = begin + seconds
            st_busy[worker_id] += seconds
            stats = workers[worker_id].stats
            stats.migration_seconds += seconds
            stats.migration_batches += 1
            c_migration_busy.inc(seconds)
            if tracing:
                tracer.point("db.migration.batch", now, parent=root_span,
                             worker=worker_id, seconds=seconds)

        # Stagger client start-up across the first millisecond so the
        # initial burst does not synchronise queues artificially.
        for client in range(num_clients):
            heappush(events, (client * 1e-6, next_seq(), _START, client))
        for when, worker_id, seconds in background:
            heappush(events, (when, next_seq(), _BACKGROUND,
                              (worker_id, seconds)))

        sanitizing = sanitize.ACTIVE
        last_event_time = 0.0
        heappop = heapq.heappop
        while events:
            time_, seq, kind, payload = heappop(events)
            if sanitizing:
                sanitize.check_event_time(time_, last_event_time,
                                          "database.simulation.event_loop")
                last_event_time = time_
            if sampling:
                while next_tick <= time_ and next_tick < duration:
                    sampler.sample(next_tick)
                    next_tick += tick
            if time_ > duration:
                break
            if kind == _SETTLED:
                settle(payload, time_)
            elif kind == _PHASE_DONE:
                issue_phase(payload, time_)
            elif kind == _START:
                start_query(payload, time_)
            elif kind == _TIMEOUT:
                on_timeout(payload, time_)
            elif kind == _RETRY:
                on_retry(payload, time_)
            elif kind == _BACKGROUND:
                on_background(payload, time_)
            else:  # _ABORT: the whole replica chain was down at start.
                fail_query(payload, time_)

        if sampling:
            # Drain the remaining tick grid: if the heap emptied (or the
            # last event preceded the horizon by more than a tick), the
            # in-loop flush above never reached these times.  They must
            # fire here — before the end-of-run histograms are observed —
            # so every pre-horizon sample sees only event-time state and
            # the grid [tick, 2*tick, ...) is complete for every run, not
            # just runs where a straggler event lands past the horizon.
            while next_tick < duration:
                sampler.sample(next_tick)
                next_tick += tick

        for worker_id, worker in enumerate(workers):
            stats = worker.stats
            worker.busy_until = busy[worker_id]
            stats.requests_served += st_requests[worker_id]
            stats.vertices_read += st_reads[worker_id]
            stats.busy_seconds += st_busy[worker_id]
            stats.remote_requests += st_remote[worker_id]
        metrics.histogram("db.query.latency_seconds").observe_many(latencies)
        metrics.histogram("db.worker.vertices_read").observe_many(
            w.stats.vertices_read for w in workers)
        metrics.histogram("db.worker.busy_seconds").observe_many(
            w.stats.busy_seconds for w in workers)
        if sampling:
            # Horizon sample: the only one that sees the end-of-run
            # histograms (latency quantiles, per-worker distributions).
            sampler.sample(duration)
        if tracing:
            # Queries still in flight at the horizon close here so their
            # request/hop spans keep their parents in the export.
            tracer.end_subtree(root_span, duration, status="inflight")
            tracer.end(root_span, duration,
                       completed_queries=int(c_completed.value),
                       failed_queries=int(c_failed.value))
        return SimulationResult(
            num_workers=num_workers,
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


def simulate_workload(graph: Graph, partition, bindings, *,
                      clients_per_worker: int = 12, duration: float = 2.0,
                      service_model: ServiceModel | None = None,
                      planner: QueryPlanner | None = None,
                      worker_speeds=None,
                      fault_schedule: FaultSchedule | None = None,
                      retry_policy: RetryPolicy | None = None,
                      k_safety: int = 2,
                      raise_on_failure: bool = False,
                      sampler=None,
                      sample_interval: float | None = None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`ClosedLoopSimulation`."""
    assignment = getattr(partition, "assignment", partition)
    num_workers = getattr(partition, "num_partitions", None)
    if num_workers is None:
        assignment = np.asarray(assignment)
        if assignment.size == 0:
            raise ConfigurationError(
                "partition assignment is empty: simulate_workload needs "
                "one owner per vertex (or a partition object carrying "
                "num_partitions)")
        num_workers = int(np.max(assignment)) + 1
    sim = ClosedLoopSimulation(
        graph, assignment, num_workers,
        clients_per_worker=clients_per_worker,
        service_model=service_model,
        planner=planner,
        worker_speeds=worker_speeds,
        fault_schedule=fault_schedule,
        retry_policy=retry_policy,
        k_safety=k_safety,
        raise_on_failure=raise_on_failure,
    )
    return sim.run(bindings, duration=duration, sampler=sampler,
                   sample_interval=sample_interval)
