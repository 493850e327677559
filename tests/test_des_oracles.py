"""Operational-law oracles for the closed-loop DES.

Byte-identity against a frozen copy proves a refactor changed nothing;
it cannot prove the copy was right — a bug both loops share passes every
digest test.  The checks here do not restate the event loop.  They hold
for any correct closed queueing network, or follow from the trace
contract (every span a run begins is exported once, closed or in flight):

* **query conservation** — every started query ends ``ok``, ``failed``
  or ``inflight`` at the horizon, and the post-warmup ends agree with
  the ``db.queries.*`` counters;
* **lost requests** — each ``db.request.lost`` is answered by exactly one
  ``db.timeout`` for that request at its deadline, unless the deadline
  falls past the horizon;
* **throughput bounds** — on a fault-free cluster whose per-query demand
  follows from :class:`ServiceModel` and the routed plan alone, the
  closed-loop bounds X ≤ min(N/(R₀+Z), 1/D_max) and the utilization
  law (worker k is busy D_k per completed query) hold, no query beats
  its no-contention latency R₀, and overload saturates the bottleneck.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.database import WorkloadGenerator
from repro.database.cluster import ServiceModel
from repro.database.queries import plan_query
from repro.database.router import route_plan
from repro.database.simulation import ClosedLoopSimulation
from repro.faults import (
    CrashInterval,
    FaultSchedule,
    RetryPolicy,
    SlowdownInterval,
)
from repro.graph.generators import ldbc_like
from repro.partitioning.registry import make_seeded_partitioner
from repro.telemetry import set_tracer
from repro.telemetry.tracer import Tracer

NUM_WORKERS = 6
CLIENTS_PER_WORKER = 3
DURATION = 0.3
POLICY = RetryPolicy(timeout_seconds=0.02, max_retries=2,
                     backoff_base_seconds=0.002)

FAULTS = {
    "crash": FaultSchedule.single_crash(1, 0.02, 0.1, seed=3),
    "drop": FaultSchedule(drop_probability=0.08, seed=9),
    # Both replicas of worker 2's chain are down: aborts and exhaustion.
    "chain-down": FaultSchedule(crashes=(CrashInterval(2, 0.0, 0.15),
                                         CrashInterval(3, 0.0, 0.15)),
                                seed=4),
    "mixed": FaultSchedule(crashes=(CrashInterval(4, 0.05, 0.2),),
                           slowdowns=(SlowdownInterval(0, 0.0, 0.2, 0.5),),
                           drop_probability=0.04,
                           extra_latency_seconds=0.001, seed=7),
}


@pytest.fixture(scope="module")
def cluster():
    graph = ldbc_like(600, avg_degree=8, seed=42)
    partition = make_seeded_partitioner("ldg", seed=31).partition(
        graph, NUM_WORKERS, seed=47)
    generator = WorkloadGenerator(graph, skew=0.4, seed=5)
    bindings = (generator.bindings("one_hop", 40)
                + generator.bindings("two_hop", 15))
    return graph, partition.assignment, bindings


def traced_run(cluster, fault):
    graph, assignment, bindings = cluster
    tracer = Tracer(enabled=True)
    set_tracer(tracer)
    try:
        sim = ClosedLoopSimulation(graph, assignment, NUM_WORKERS,
                                   clients_per_worker=CLIENTS_PER_WORKER,
                                   fault_schedule=fault, retry_policy=POLICY)
        result = sim.run(bindings, duration=DURATION)
    finally:
        set_tracer(Tracer(enabled=False))
    return sim, result, tracer.spans


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_started_query_ends_exactly_once(cluster, fault):
    """started db.query spans = ok + failed + inflight."""
    _, result, spans = traced_run(cluster, FAULTS[fault])
    queries = {s.span_id: s for s in spans if s.name == "db.query"}
    # A query records its db.route point the moment it starts, so route
    # points count started queries independently of how they end.
    started = [s.parent_id for s in spans if s.name == "db.route"]
    assert sorted(started) == sorted(queries)
    statuses = collections.Counter(s.attrs["status"]
                                   for s in queries.values())
    assert set(statuses) <= {"ok", "failed", "inflight"}
    assert statuses["ok"] + statuses["failed"] + statuses["inflight"] \
        == len(started)
    # Closed loop: a client never has two queries in flight.
    by_client = collections.defaultdict(list)
    for span in queries.values():
        by_client[span.attrs["client"]].append(span)
    assert len(by_client) == NUM_WORKERS * CLIENTS_PER_WORKER
    for runs in by_client.values():
        runs.sort(key=lambda s: s.start)
        for before, after in zip(runs, runs[1:]):
            assert after.start >= before.end
        assert sum(s.attrs["status"] == "inflight" for s in runs) <= 1
    # Post-warmup ends are exactly what the counters report.
    ended = collections.Counter(
        s.attrs["status"] for s in queries.values()
        if s.end >= result.warmup and s.attrs["status"] != "inflight")
    assert ended["ok"] == result.completed_queries
    assert ended["failed"] == result.failed_queries


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_lost_request_times_out_once(cluster, fault):
    """Each lost request gets exactly one db.timeout at its deadline."""
    sim, result, spans = traced_run(cluster, FAULTS[fault])
    chain = sim.replica_map
    expected = collections.Counter()
    reasons = collections.Counter()
    for span in spans:
        if span.name != "db.request.lost":
            continue
        reasons[span.attrs["reason"]] += 1
        attempt = span.attrs["attempt"]
        # Attempt n goes to replica n of the primary owner, and the
        # timeout names the primary.
        primary = ((span.attrs["worker"] - attempt % chain.k_safety)
                   % chain.num_workers)
        deadline = span.start + POLICY.timeout_seconds
        if deadline <= DURATION:
            expected[(span.parent_id, primary, attempt, deadline)] += 1
    timeouts = collections.Counter(
        (s.parent_id, s.attrs["worker"], s.attrs["attempt"], s.start)
        for s in spans if s.name == "db.timeout")
    assert expected
    assert timeouts == expected
    assert sum(timeouts.values()) == result.timeouts
    assert sum(reasons.values()) == int(result.requests_lost_per_worker.sum())
    assert reasons["dropped"] == result.dropped_requests


# ----------------------------------------------------------------------
SPEEDS = [1.0, 0.5, 1.0, 2.0, 1.0, 0.75]


def demand(graph, assignment, binding):
    """Per-worker service demand D_k and no-contention latency R₀ of one
    query, from the service model's definition and the routed plan."""
    model = ServiceModel().scaled(NUM_WORKERS)
    routed = route_plan(plan_query(graph, binding.kind, binding.start_vertex,
                                   target_vertex=binding.target_vertex,
                                   fanout_limit=64), assignment)
    coordinator = routed.coordinator
    per_worker = np.zeros(NUM_WORKERS)
    latency = 0.0
    for phase in routed.phases:
        if not phase.requests:
            continue
        slowest = 0.0
        for worker, reads in phase.requests:
            service = model.service_seconds(reads) / SPEEDS[worker]
            per_worker[worker] += service
            network = model.network_rtt_seconds \
                if worker != coordinator else 0.0
            slowest = max(slowest, service + network)
        merge = (model.coordinator_overhead_seconds
                 + len(phase.requests) * model.per_response_seconds) \
            / SPEEDS[coordinator]
        per_worker[coordinator] += merge
        latency += slowest + merge
    return per_worker, latency, model.think_seconds


def single_binding_run(cluster, clients_per_worker, warmup_fraction=0.0):
    """Every client repeats one fan-out query, so demand is exact."""
    graph, assignment, bindings = cluster
    binding = next(b for b in bindings if b.kind == "two_hop")
    per_worker, r0, think = demand(graph, assignment, binding)
    assert np.count_nonzero(per_worker) > 1
    sim = ClosedLoopSimulation(graph, assignment, NUM_WORKERS,
                               clients_per_worker=clients_per_worker,
                               worker_speeds=SPEEDS)
    result = sim.run([binding], duration=1.0,
                     warmup_fraction=warmup_fraction)
    return result, per_worker, r0, think


@pytest.mark.parametrize("clients_per_worker", [1, 4, 24])
def test_closed_loop_throughput_bounds(cluster, clients_per_worker):
    """X ≤ min(N/(R₀+Z), 1/D_max), with finite-window slack of one query
    per client, and the utilization law on every worker."""
    result, per_worker, r0, think = single_binding_run(
        cluster, clients_per_worker)
    clients = clients_per_worker * NUM_WORKERS
    completed = result.completed_queries
    assert completed > 0
    # Each client finishes at most one query per R₀ + Z ...
    assert completed <= clients * (result.duration / (r0 + think) + 1)
    # ... and the bottleneck serves at most duration / D_max queries'
    # demand, besides the ones still in flight at the horizon.
    assert completed <= result.duration / per_worker.max() + clients
    # Utilization law: worker k was busy for D_k per completed query,
    # plus at most D_k per query in flight at the horizon.
    busy = result.busy_seconds_per_worker
    assert np.all(busy >= completed * per_worker * (1 - 1e-9))
    assert np.all(busy <= (completed + clients) * per_worker * (1 + 1e-9))
    # No query beats its no-contention critical path.
    assert result.latencies.min() >= r0 * (1 - 1e-12)


def test_overload_saturates_the_bottleneck(cluster):
    """Far past the knee N* = (R₀+Z)/D_max the closed loop runs its
    bottleneck flat out, so the 1/D_max bound is reached once the
    start-up transient is behind the warmup."""
    result, per_worker, r0, think = single_binding_run(
        cluster, 24, warmup_fraction=0.25)
    assert NUM_WORKERS * 24 > 4 * (r0 + think) / per_worker.max()
    assert result.throughput >= 0.9 / per_worker.max()
