"""Cluster model for the graph-database simulator (Appendix C).

The paper's JanusGraph deployment co-locates a query-execution instance
and a Cassandra storage instance on every worker; the working set fits in
memory, and a partitioning-aware router forwards each client query to the
worker owning its start vertex.  We model each worker as a single FIFO
storage server: a storage request reading ``r`` vertex records occupies
the server for ``base + r · per_read`` seconds, and a response to a
*remote* coordinator additionally pays a network round trip (which delays
the query but does not occupy the server).

The service-time constants are scaled to this repo's datasets the same
way the analytics cost model is — only ratios matter for the reproduced
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import check_finite_at_least


@dataclass(frozen=True)
class ServiceModel:
    """Service-time and network constants of the simulated cluster.

    Attributes
    ----------
    request_base_seconds:
        Fixed CPU cost of one storage request (parse, index probe, RPC
        handling) — this is what makes *fewer, larger* requests cheaper
        than many small ones, and hence what a low edge-cut ratio buys.
    per_read_seconds:
        Incremental cost per vertex record read.
    network_rtt_seconds:
        Round-trip latency added to a response crossing machines.
    coordinator_overhead_seconds:
        Per-phase bookkeeping on the coordinating worker.
    per_response_seconds:
        Coordinator CPU per response merged at the end of a phase.  This
        is what makes wide fan-out expensive: with more workers a query
        phase scatters into more requests, and merging their responses
        costs the coordinator proportionally — the mechanism behind the
        paper's throughput collapse beyond 16 workers (Fig. 12).
    """

    request_base_seconds: float = 3.0e-4
    per_read_seconds: float = 1.0e-5
    network_rtt_seconds: float = 1.0e-3
    coordinator_overhead_seconds: float = 1.0e-4
    per_response_seconds: float = 6.0e-5
    #: Client-side delay between receiving a response and issuing the next
    #: query (connection handling, client stack).  Keeps the paper's
    #: "medium load = high utilization without overload" regime: with
    #: zero think time a closed loop saturates at any client count.
    think_seconds: float = 1.0e-2
    #: Fractional growth of the per-request base cost per additional
    #: worker: connection pools, cluster metadata and replica coordination
    #: scale with cluster size in Cassandra-backed stores.  Together with
    #: per-query fan-out growing with k, this reproduces the paper's
    #: finding that performance "significantly degrades even on 32
    #: partitions" (Fig. 12 / Section 5.2.1).
    cluster_overhead_per_worker: float = 0.03

    def __post_init__(self):
        # Every constant is a finite duration or rate, at least 0.
        for spec in fields(self):
            check_finite_at_least(spec.name, getattr(self, spec.name), 0)

    def service_seconds(self, num_reads: int) -> float:
        """Server occupancy of a request reading *num_reads* records."""
        return self.request_base_seconds + num_reads * self.per_read_seconds

    def scaled(self, num_workers: int) -> "ServiceModel":
        """The effective model on a *num_workers*-machine cluster."""
        factor = 1.0 + self.cluster_overhead_per_worker * num_workers
        return ServiceModel(
            request_base_seconds=self.request_base_seconds * factor,
            per_read_seconds=self.per_read_seconds,
            network_rtt_seconds=self.network_rtt_seconds,
            coordinator_overhead_seconds=self.coordinator_overhead_seconds,
            per_response_seconds=self.per_response_seconds * factor,
            think_seconds=self.think_seconds,
            cluster_overhead_per_worker=0.0,
        )


@dataclass
class WorkerStats:
    """Counters accumulated by one worker during a simulation."""

    requests_served: int = 0
    vertices_read: int = 0
    busy_seconds: float = 0.0
    remote_requests: int = 0
    #: Requests that never got a response (worker crashed or wire drop) —
    #: populated only under fault injection (see :mod:`repro.faults`).
    requests_lost: int = 0
    #: Server seconds spent shipping migration batches — populated only
    #: when the online service schedules background work
    #: (see :mod:`repro.service`).
    migration_seconds: float = 0.0
    #: Migration batches this worker participated in.
    migration_batches: int = 0


class Worker:
    """One machine: a FIFO storage server with deterministic service.

    ``speed`` scales the machine's service rate: 1.0 is nominal, 0.5 is a
    straggler serving at half speed (failure injection for the tail-latency
    experiments), and larger values model faster hardware.
    """

    def __init__(self, worker_id: int, model: ServiceModel,
                 speed: float = 1.0):
        check_finite_at_least(f"worker {worker_id} speed", speed, 0,
                              strict=True)
        self.worker_id = worker_id
        self.model = model
        self.speed = speed
        self.busy_until = 0.0
        self.stats = WorkerStats()

    def service_seconds(self, num_reads: int) -> float:
        """This machine's occupancy for a request (speed-adjusted)."""
        return self.model.service_seconds(num_reads) / self.speed

    def reset(self) -> None:
        self.busy_until = 0.0
        self.stats = WorkerStats()


class Cluster:
    """A set of workers plus the vertex→worker ownership map."""

    def __init__(self, num_workers: int, vertex_owner,
                 model: ServiceModel | None = None,
                 worker_speeds=None):
        if num_workers < 1:
            raise ConfigurationError("cluster needs at least one worker")
        self.model = (model or ServiceModel()).scaled(num_workers)
        if worker_speeds is None:
            speeds = [1.0] * num_workers
        else:
            speeds = list(worker_speeds)
            if len(speeds) != num_workers:
                raise ConfigurationError(
                    "worker_speeds must have one entry per worker")
        self.workers = [Worker(i, self.model, speed)
                        for i, speed in enumerate(speeds)]
        self.vertex_owner = self._validated_owner(vertex_owner, num_workers)

    @staticmethod
    def _validated_owner(vertex_owner, num_workers: int) -> np.ndarray:
        """Check the ownership map covers every vertex with a real worker.

        Previously any object was accepted here and an invalid map only
        surfaced later as a raw ``IndexError``/``KeyError`` inside
        :meth:`owner` — mid-simulation, far from the mistake.  Validate up
        front instead and say what is wrong.
        """
        owner = np.asarray(vertex_owner)
        if owner.ndim != 1:
            raise ConfigurationError(
                "vertex_owner must be a 1-D array mapping each vertex to a "
                f"worker id, got an array of shape {owner.shape}")
        if owner.size and not np.issubdtype(owner.dtype, np.integer):
            raise ConfigurationError(
                "vertex_owner must contain integer worker ids, got dtype "
                f"{owner.dtype}")
        owner = owner.astype(np.int64, copy=False)
        if owner.size:
            invalid = (owner < 0) | (owner >= num_workers)
            if invalid.any():
                first = int(np.argmax(invalid))
                raise ConfigurationError(
                    f"vertex_owner leaves {int(invalid.sum())} of "
                    f"{owner.size} vertices without a valid worker: ids "
                    f"must be in [0, {num_workers}); first offender is "
                    f"vertex {first} -> {int(owner[first])} (negative "
                    "values usually mean an incomplete partitioning)")
        return owner

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def owner(self, vertex: int) -> int:
        """The worker storing *vertex* (partition-aware routing)."""
        return int(self.vertex_owner[vertex])

    def reset(self) -> None:
        for worker in self.workers:
            worker.reset()
