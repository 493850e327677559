"""Partition-aware query routing and plan → storage-request expansion.

Appendix C: "we implement a partitioning-aware query router in JanusGraph
so that client queries are forwarded to the partition that holds the
starting vertex of the query."  Given a :class:`~repro.database.queries.
QueryPlan` and the vertex→worker map, the router turns every plan phase
into one storage request per distinct owning worker (batching the reads
that co-locate) — so a better partitioning directly produces fewer,
larger, more-local requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.database.queries import QueryPlan


@dataclass(frozen=True)
class PhaseRequests:
    """One plan phase expanded against a placement: parallel requests."""

    #: (worker id, number of vertex reads) per request.
    requests: tuple[tuple[int, int], ...]

    @property
    def total_reads(self) -> int:
        return sum(reads for _w, reads in self.requests)


@dataclass(frozen=True)
class RoutedQuery:
    """A fully routed query: coordinator + per-phase request batches."""

    kind: str
    coordinator: int
    phases: tuple[PhaseRequests, ...]

    @property
    def total_reads(self) -> int:
        return sum(phase.total_reads for phase in self.phases)

    def remote_reads(self) -> int:
        """Vertex reads served by workers other than the coordinator —
        the simulator's network-I/O proxy (Figure 5's y-axis)."""
        return sum(reads for phase in self.phases
                   for worker, reads in phase.requests
                   if worker != self.coordinator)


def route_plan(plan: QueryPlan, vertex_owner: np.ndarray) -> RoutedQuery:
    """Expand *plan* into per-worker storage requests."""
    coordinator = int(vertex_owner[plan.start_vertex])
    phases = []
    for phase_vertices in plan.phases:
        counts = np.bincount(vertex_owner[phase_vertices])
        workers = counts.nonzero()[0]
        phases.append(PhaseRequests(tuple(
            zip(workers.tolist(), counts[workers].tolist()))))
    return RoutedQuery(plan.kind, coordinator, tuple(phases))


class FailoverRouter:
    """Replica-aware routing layer used under fault injection.

    Wraps the static :func:`route_plan` placement with a
    :class:`~repro.faults.ReplicaMap`: every partition's data is readable
    from a fixed fallback chain, so when the primary owner of a request is
    down the client's retry is sent to the next replica instead of
    hammering the crashed machine.  With the empty fault schedule every
    lookup degenerates to the primary owner — routing is unchanged.
    """

    def __init__(self, replica_map, fault_schedule):
        self.replica_map = replica_map
        self.fault_schedule = fault_schedule

    def target(self, primary: int, attempt: int) -> int:
        """Worker serving retry number *attempt* of a request whose data
        is primarily owned by *primary* (attempt 0 = the primary)."""
        return self.replica_map.replica(primary, attempt)

    def coordinator(self, routed: RoutedQuery, time: float) -> int | None:
        """Alive coordinator for *routed* at *time*.

        The session coordinator is the first worker in the start vertex's
        replica chain that is currently up; ``None`` means the entire
        chain is down and the query cannot even begin.
        """
        if not self.fault_schedule.is_crashed(routed.coordinator, time):
            return routed.coordinator
        return self.replica_map.alive_replica(
            routed.coordinator, self.fault_schedule, time)
