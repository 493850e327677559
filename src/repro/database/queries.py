"""Online graph queries (Section 5.2.3).

The paper's three online workload classes, executed against the stored
graph:

* **1-hop** — retrieve all adjacent vertices of a start vertex (">50% of
  Facebook's LinkBench"; what GraphJet optimises for);
* **2-hop** — the same expanded one more hop;
* **single-pair shortest path** — bidirectional BFS between two vertices.

A query's execution plan is a sequence of *phases*; each phase is a batch
of storage requests that run **in parallel** on the workers owning the
requested vertices (JanusGraph's storage backend is partition-aware, and
our router sends each read to the owner — Appendix C).  The simulator
replays these plans against the cluster; this module only computes the
exact read sets, so a plan depends on the graph and the binding alone,
never on the placement.  :class:`QueryPlanner` exploits that: it plans
each binding of one graph once, and every simulation of that graph —
whatever its partitioning, load or fault schedule — shares the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph

QUERY_KINDS = ("one_hop", "two_hop", "shortest_path")


@dataclass
class QueryPlan:
    """The storage footprint of one query execution.

    ``phases`` is a list of per-phase vertex-id arrays: every vertex in a
    phase is read (its adjacency list + properties) and the reads of one
    phase are independent, so they are issued in parallel; phases are
    sequential (hop 2 needs hop 1's results).
    """

    kind: str
    start_vertex: int
    phases: list[np.ndarray] = field(default_factory=list)

    @property
    def total_reads(self) -> int:
        return int(sum(phase.size for phase in self.phases))


def one_hop(graph: Graph, vertex: int) -> QueryPlan:
    """Adjacent-vertex retrieval: read v's adjacency, then each neighbour's
    vertex record (properties live with their owner partition)."""
    _check_vertex(graph, vertex)
    neighbors = np.unique(graph.neighbors(vertex))
    phases = [np.array([vertex], dtype=np.int64)]
    if neighbors.size:
        phases.append(neighbors)
    return QueryPlan("one_hop", vertex, phases)


def two_hop(graph: Graph, vertex: int, *, fanout_limit: int | None = None,
            seed: int = 0) -> QueryPlan:
    """Two-hop neighbourhood retrieval.

    ``fanout_limit`` optionally truncates the first-hop frontier (real
    systems paginate hub expansions); `None` expands everything.
    """
    _check_vertex(graph, vertex)
    _check_fanout_limit(fanout_limit)
    first = np.unique(graph.neighbors(vertex))
    if fanout_limit is not None and first.size > fanout_limit:
        # Deterministic truncation: take the lowest ids (stable across
        # partitionings, unlike sampling with stream randomness).
        first = first[:fanout_limit]
    phases = [np.array([vertex], dtype=np.int64)]
    if first.size:
        phases.append(first)
        # The frontier's adjacency lists in one gather from the CSR,
        # deduplicated once.
        indptr, indices = graph.undirected_csr()
        starts = indptr[first]
        lengths = indptr[first + 1] - starts
        ends = np.cumsum(lengths)
        slots = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths),
                                                lengths)
        second = np.unique(indices[slots])
        # Exclude vertices already read.
        second = second[np.isin(second, np.append(first, vertex),
                                invert=True)]
        if second.size:
            phases.append(second)
    return QueryPlan("two_hop", vertex, phases)


def shortest_path(graph: Graph, source: int, target: int, *,
                  max_depth: int = 16) -> QueryPlan:
    """Single-pair shortest path by bidirectional BFS (undirected).

    Each BFS level is one phase: the frontier's adjacency lists are read
    in parallel, alternating sides (the standard graph-database traversal
    strategy).  Stops when the frontiers meet or ``max_depth`` levels
    were explored.
    """
    _check_vertex(graph, source)
    _check_vertex(graph, target)
    phases: list[np.ndarray] = []
    if source == target:
        phases.append(np.array([source], dtype=np.int64))
        return QueryPlan("shortest_path", source, phases)

    seen_fwd = {source}
    seen_bwd = {target}
    frontier_fwd = np.array([source], dtype=np.int64)
    frontier_bwd = np.array([target], dtype=np.int64)
    last_side = "bwd"

    for _depth in range(max_depth):
        # Expand the smaller frontier; alternate sides on ties.
        if (frontier_fwd.size < frontier_bwd.size
                or (frontier_fwd.size == frontier_bwd.size
                    and last_side == "bwd")):
            frontier, seen, other_seen = frontier_fwd, seen_fwd, seen_bwd
            side = "fwd"
        else:
            frontier, seen, other_seen = frontier_bwd, seen_bwd, seen_fwd
            side = "bwd"
        if frontier.size == 0:
            break
        last_side = side
        phases.append(frontier)
        nxt_parts = [graph.neighbors(int(u)) for u in frontier.tolist()]
        nxt = np.unique(np.concatenate(nxt_parts)) if nxt_parts else \
            np.empty(0, dtype=np.int64)
        nxt = np.array([v for v in nxt.tolist() if v not in seen],
                       dtype=np.int64)
        seen.update(nxt.tolist())
        if any(v in other_seen for v in nxt.tolist()):
            # Frontiers met: the path is resolved after reading this level.
            break
        if side == "fwd":
            frontier_fwd = nxt
        else:
            frontier_bwd = nxt
    return QueryPlan("shortest_path", source, phases)


def plan_query(graph: Graph, kind: str, start_vertex: int, *,
               target_vertex: int | None = None, fanout_limit: int | None = None,
               ) -> QueryPlan:
    """Dispatch by query-kind name (the workload generator's entry point).

    Besides the three read kinds this also accepts the mutation kinds of
    :mod:`repro.database.mutations` so mixed read/write binding lists run
    through the same simulator.
    """
    if kind == "one_hop":
        return one_hop(graph, start_vertex)
    if kind == "two_hop":
        return two_hop(graph, start_vertex, fanout_limit=fanout_limit)
    if kind == "shortest_path":
        if target_vertex is None:
            raise ConfigurationError("shortest_path needs a target_vertex")
        return shortest_path(graph, start_vertex, target_vertex)
    if kind in ("insert_edge", "update_vertex", "delete_edge",
                "remove_vertex"):
        from repro.database.mutations import (
            delete_edge_plan,
            insert_edge_plan,
            remove_vertex_plan,
            update_vertex_plan,
        )
        if kind in ("insert_edge", "delete_edge"):
            if target_vertex is None:
                raise ConfigurationError(f"{kind} needs a target_vertex")
            maker = insert_edge_plan if kind == "insert_edge" \
                else delete_edge_plan
            return maker(graph, start_vertex, target_vertex)
        if kind == "remove_vertex":
            return remove_vertex_plan(graph, start_vertex)
        return update_vertex_plan(graph, start_vertex)
    raise ConfigurationError(f"unknown query kind {kind!r}; expected "
                             f"{QUERY_KINDS} or a mutation kind")


class QueryPlanner:
    """Memoised query plans for one graph.

    A plan depends on the graph and the binding only, so a planner plans
    each ``(kind, start_vertex, target_vertex)`` once and hands the same
    :class:`QueryPlan` to every simulation of :attr:`graph` — one fixed
    binding set served against many partitionings is the paper's online
    methodology.  The memoised phase arrays are read-only, so no caller
    can change a plan another simulation shares.  ``fanout_limit`` is
    the 2-hop frontier cap of :func:`two_hop`.
    """

    def __init__(self, graph: Graph, fanout_limit: int | None = 64):
        _check_fanout_limit(fanout_limit)
        self.graph = graph
        self.fanout_limit = fanout_limit
        self._plans: dict[tuple, QueryPlan] = {}

    def plan(self, kind: str, start_vertex: int, *,
             target_vertex: int | None = None) -> QueryPlan:
        """The plan :func:`plan_query` computes, memoised."""
        key = (kind, start_vertex, target_vertex)
        plan = self._plans.get(key)
        if plan is None:
            plan = plan_query(self.graph, kind, start_vertex,
                              target_vertex=target_vertex,
                              fanout_limit=self.fanout_limit)
            for phase in plan.phases:
                phase.flags.writeable = False
            self._plans[key] = plan
        return plan


def _check_fanout_limit(fanout_limit: object) -> None:
    """Reject a 2-hop frontier cap other than ``None`` or an int >= 1."""
    if fanout_limit is None:
        return
    if (isinstance(fanout_limit, bool)
            or not isinstance(fanout_limit, (int, np.integer))
            or fanout_limit < 1):
        raise ConfigurationError(
            f"fanout_limit must be None or an int >= 1, got {fanout_limit!r}")


def _check_vertex(graph: Graph, vertex: int) -> None:
    if not 0 <= vertex < graph.num_vertices:
        raise ConfigurationError(
            f"vertex {vertex} out of range for graph with "
            f"{graph.num_vertices} vertices"
        )
