"""Write operations for the online workload (LinkBench-style).

The paper's online motivation leans on Facebook's LinkBench, whose
workload is >50% 1-hop reads *plus a substantial write mix* (edge
inserts, vertex updates).  This module adds those mutations to the
simulated graph database:

* an **edge insert** touches both endpoint owners (forward adjacency at
  the source's partition, reverse adjacency at the target's) — under an
  edge-cut placement a co-located edge is a single-partition write;
* a **vertex update** touches the owner partition only;
* an **edge delete** mirrors the insert's dual write (tombstones at both
  endpoint owners);
* a **vertex removal** touches the vertex's own record plus the reverse
  adjacency entry at every neighbour's owner — the expensive cascading
  cleanup that makes entity deletion a wide write in real stores.

Mutations are expressed as :class:`~repro.database.queries.QueryPlan`
objects (each phase = records touched in parallel), so the closed-loop
simulator executes mixed read/write workloads unchanged, and
:class:`GraphMutationLog` collects the full ordered op stream — inserts,
deletes, vertex arrivals and removals — so the mutated graph can be
re-materialised for dynamic-partitioning experiments and the online
service (:mod:`repro.service`).
"""

from __future__ import annotations

import numpy as np

from repro.database.queries import QueryPlan
from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.rng import make_rng

MUTATION_KINDS = ("insert_edge", "update_vertex", "delete_edge",
                  "remove_vertex")


def insert_edge_plan(graph: Graph, src: int, dst: int) -> QueryPlan:
    """The storage footprint of inserting edge ``src -> dst``.

    One phase touching both endpoint records: the forward adjacency entry
    at ``src``'s owner and the reverse entry at ``dst``'s — issued in
    parallel like JanusGraph's dual writes.
    """
    _check(graph, src)
    _check(graph, dst)
    vertices = np.unique(np.array([src, dst], dtype=np.int64))
    return QueryPlan("insert_edge", src, [vertices])


def update_vertex_plan(graph: Graph, vertex: int) -> QueryPlan:
    """The storage footprint of updating one vertex's properties."""
    _check(graph, vertex)
    return QueryPlan("update_vertex", vertex,
                     [np.array([vertex], dtype=np.int64)])


def delete_edge_plan(graph: Graph, src: int, dst: int) -> QueryPlan:
    """The storage footprint of deleting edge ``src -> dst``.

    Symmetric to :func:`insert_edge_plan`: a tombstone at the source's
    forward adjacency and one at the target's reverse adjacency, written
    in parallel.
    """
    _check(graph, src)
    _check(graph, dst)
    vertices = np.unique(np.array([src, dst], dtype=np.int64))
    return QueryPlan("delete_edge", src, [vertices])


def remove_vertex_plan(graph: Graph, vertex: int) -> QueryPlan:
    """The storage footprint of removing a vertex and its incident edges.

    Phase 1 reads/tombstones the vertex's own record (which yields its
    adjacency); phase 2 cleans the reverse adjacency entry at every
    neighbour's owner in parallel — removal cost scales with degree.
    """
    _check(graph, vertex)
    phases = [np.array([vertex], dtype=np.int64)]
    neighbors = np.unique(graph.neighbors(vertex))
    neighbors = neighbors[neighbors != vertex]
    if neighbors.size:
        phases.append(neighbors)
    return QueryPlan("remove_vertex", vertex, phases)


def _check(graph: Graph, vertex: int) -> None:
    if not 0 <= vertex < graph.num_vertices:
        raise ConfigurationError(
            f"vertex {vertex} out of range for {graph.num_vertices} vertices")


class GraphMutationLog:
    """Ordered log of graph mutations, replayable into a materialised graph.

    Supports the full LinkBench-style op set: edge inserts, edge deletes,
    new-vertex arrivals (:meth:`add_vertex` grows the id space) and vertex
    removals (incident edges die; the id remains as an isolated vertex, a
    tombstone — ids are never recycled, matching log-structured stores).
    Replay is order-sensitive: a delete only kills edges logged (or in the
    base graph) *before* it, so delete-then-reinsert round-trips.

    The log is append-only, so :meth:`materialize` is incremental: it
    keeps the live edges of its last replay and applies only the ops
    logged since.

    The dynamic-partitioning experiments use this to measure how a stale
    partitioning degrades as the graph mutates, and how refinement
    (:func:`repro.partitioning.dynamic.hermes_refine`) recovers it.
    """

    def __init__(self, base: Graph):
        self.base = base
        #: Ordered ops: ``(kind, u, v)``; ``v`` is -1 for vertex ops.
        self._ops: list[tuple[str, int, int]] = []
        self._added_vertices = 0
        self._inserts = 0
        self._deletes = 0
        # Replay state: the live edges after the first ``_replayed`` ops,
        # in edge-id order, with the op index that created each (-1 for
        # base edges).  Dead edges never revive, so they are dropped.
        self._replayed = 0
        self._src = np.asarray(base.src, dtype=np.int64)
        self._dst = np.asarray(base.dst, dtype=np.int64)
        self._created = np.full(base.num_edges, -1, dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        """Current vertex-id space (base plus vertices added via the log)."""
        return self.base.num_vertices + self._added_vertices

    def _check_id(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise ConfigurationError(
                f"vertex {vertex} out of range for {self.num_vertices} "
                f"vertices")

    def insert_edge(self, src: int, dst: int) -> None:
        self._check_id(src)
        self._check_id(dst)
        self._ops.append(("insert_edge", src, dst))
        self._inserts += 1

    def delete_edge(self, src: int, dst: int) -> None:
        """Kill every live ``src -> dst`` edge logged or present so far."""
        self._check_id(src)
        self._check_id(dst)
        self._ops.append(("delete_edge", src, dst))
        self._deletes += 1

    def add_vertex(self) -> int:
        """Grow the id space by one; returns the new vertex's id."""
        vertex = self.num_vertices
        self._added_vertices += 1
        self._ops.append(("add_vertex", vertex, -1))
        return vertex

    def remove_vertex(self, vertex: int) -> None:
        """Kill every live edge incident to *vertex* (the id remains)."""
        self._check_id(vertex)
        self._ops.append(("remove_vertex", vertex, -1))
        self._deletes += 1

    @property
    def num_inserts(self) -> int:
        return self._inserts

    @property
    def num_deletes(self) -> int:
        return self._deletes

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def materialize(self, name: str | None = None) -> Graph:
        """Replay the log over the base graph and build the result.

        Deletes are applied in log order against everything created
        before them: base edges carry creation index -1, logged inserts
        their op index, and a delete at op index ``p`` only kills live
        matching edges with creation index ``< p``.  Edge ids are base
        edges first, then surviving inserts in op order.

        Only the ops logged since the previous call are replayed, in
        O(new ops + E): an edge dies when the largest index of a new
        ``delete_edge`` on its ``(src, dst)`` key, or of a new
        ``remove_vertex`` on either endpoint, exceeds its creation index.
        Both are resolved for all edges at once by a sort-join.
        """
        inserts: list[tuple[int, int, int]] = []
        deletes: list[tuple[int, int, int]] = []
        removes: list[tuple[int, int]] = []
        for index in range(self._replayed, len(self._ops)):
            kind, u, v = self._ops[index]
            if kind == "insert_edge":
                inserts.append((index, u, v))
            elif kind == "delete_edge":
                deletes.append((index, u, v))
            elif kind == "remove_vertex":
                removes.append((index, u))
        self._replayed = len(self._ops)
        if inserts:
            created, src, dst = np.array(inserts, dtype=np.int64).T
            self._src = np.concatenate([self._src, src])
            self._dst = np.concatenate([self._dst, dst])
            self._created = np.concatenate([self._created, created])
        if deletes or removes:
            killed_after = np.full(self._src.size, -1, dtype=np.int64)
            if deletes:
                index, u, v = np.array(deletes, dtype=np.int64).T
                # Op indices ascend, so after a stable sort by key the
                # last entry of each run holds that key's largest index.
                keys = (u << 32) | v
                order = np.argsort(keys, kind="stable")
                keys, index = keys[order], index[order]
                last = np.append(keys[1:] != keys[:-1], True)
                keys, index = keys[last], index[last]
                edge_keys = (self._src << 32) | self._dst
                slot = np.minimum(keys.searchsorted(edge_keys), keys.size - 1)
                hit = keys[slot] == edge_keys
                killed_after[hit] = index[slot[hit]]
            if removes:
                index, u = np.array(removes, dtype=np.int64).T
                removed = np.full(self.num_vertices, -1, dtype=np.int64)
                np.maximum.at(removed, u, index)
                np.maximum(killed_after, removed[self._src], out=killed_after)
                np.maximum(killed_after, removed[self._dst], out=killed_after)
            alive = killed_after <= self._created
            self._src = self._src[alive]
            self._dst = self._dst[alive]
            self._created = self._created[alive]
        return Graph(self.num_vertices, self._src, self._dst,
                     name=name or f"{self.base.name}+{self.num_ops}")


def mixed_read_write_bindings(generator, *, count: int = 1000,
                              write_fraction: float = 0.25,
                              seed_offset: int = 0):
    """LinkBench-flavoured binding mix: 1-hop reads plus edge inserts.

    ``generator`` is a :class:`~repro.database.workload.WorkloadGenerator`;
    write sources follow the same popularity distribution the reads use
    (hot entities attract both reads and writes) and targets follow
    triadic closure — new edges overwhelmingly connect friends-of-friends
    in social workloads — falling back to popularity sampling for sources
    with no 2-hop neighbourhood.
    Returns ``(bindings, inserts)`` where *inserts* lists the (src, dst)
    pairs behind the write bindings, for feeding a
    :class:`GraphMutationLog`.
    """
    from repro.database.workload import QueryBinding

    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError("write_fraction must lie in [0, 1]")
    num_writes = int(round(count * write_fraction))
    num_reads = count - num_writes
    bindings = list(generator.bindings("one_hop", num_reads)) if num_reads \
        else []
    inserts: list[tuple[int, int]] = []
    if num_writes:
        graph = generator.graph
        rng = make_rng(2000 + seed_offset)
        sources = generator.sample_vertices(num_writes)
        fallback = generator.sample_vertices(num_writes)
        for index, src in enumerate(sources.tolist()):
            dst = int(fallback[index])
            friends = graph.neighbors(src)
            if friends.size:
                friend = int(friends[rng.integers(0, friends.size)])
                candidates = graph.neighbors(friend)
                candidates = candidates[candidates != src]
                if candidates.size:
                    dst = int(candidates[rng.integers(0, candidates.size)])
            inserts.append((src, dst))
            bindings.append(QueryBinding("insert_edge", src, dst))
    # Interleave deterministically so writes spread over the run.
    rng = make_rng(1000 + seed_offset)
    order = rng.permutation(len(bindings))
    return [bindings[i] for i in order.tolist()], inserts
