"""PowerGraph's greedy vertex-cut — Gonzalez et al., OSDI 2012.

The classic oblivious/coordinated greedy placement rules, driven by the
replica sets ``A(u)`` of the two endpoints of each arriving edge:

1. ``A(u) ∩ A(v) ≠ ∅``  → least-loaded common partition;
2. both non-empty but disjoint → least-loaded partition among the replica
   set of the *higher-degree* endpoint gains the new replica (PowerGraph
   places the edge with the endpoint that has more unassigned edges; we
   use current partial degree);
3. exactly one non-empty → least-loaded member of it;
4. both empty → least-loaded partition overall.

The paper (Section 4.2.2) notes this formulation is sensitive to stream
order — a BFS-ordered stream can collapse into a single partition because
rule 1 always finds the previously used partition — which HDRF's λ term
fixes.  The ablation bench measures exactly that contrast.

Like HDRF, the scoring loop lives in a chunk-driven core
(:class:`GreedyCore`) over a pluggable degree state, so the same rules
run in-memory, out-of-core and sharded (:mod:`repro.ingest.shard`).
The replica sets are per-vertex bitmasks: each rule picks a mask, and
the edge goes to that mask's least-loaded set bit.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
)
from repro.partitioning.drivers import DegreeStatePartitioner
from repro.partitioning.kernels import ReplicaMasks, pick_least_loaded
from repro.rng import make_rng

#: Above every partition load: the scan's starting minimum.
_NO_LOAD = 1 << 63


def _place_edges(core: GreedyCore, srcs: list, dsts: list, d_u: list,
                 d_v: list, loads: list) -> list:
    """The four rules over one chunk; returns the chosen partitions.

    Each rule yields a candidate mask; the edge goes to its least-loaded
    member.  Members tied on that load collect in the ``tied`` mask and
    are settled by :func:`~repro.partitioning.kernels.pick_least_loaded`,
    off this loop.
    """
    rows = core.replicas.rows
    byte_tables = core.replicas.byte_tables
    bits = core.replicas.bits
    everyone = core.replicas.everyone
    choices = []
    for src, dst, du, dv in zip(srcs, dsts, d_u, d_v):
        mask_u = rows[src]
        mask_v = rows[dst]
        candidates = mask_u & mask_v
        if not candidates:
            if mask_u and mask_v:
                # Cut through the lower-degree endpoint: PowerGraph keeps
                # the endpoint with more remaining edges intact, so the
                # edge joins a replica of the one with the larger
                # partial degree.
                candidates = mask_u if du >= dv else mask_v
            else:
                candidates = mask_u | mask_v or everyone
        least = _NO_LOAD
        choice = -1
        tied = 0
        for table, shift in byte_tables:
            for p in table[candidates >> shift & 255]:
                load = loads[p]
                if load < least:
                    least = load
                    choice = p
                    tied = 0
                elif load == least:
                    tied |= bits[p]
        if tied:
            choice = pick_least_loaded(
                core.replicas.members(tied | bits[choice]), loads, core.rng)
        choices.append(choice)
        loads[choice] += 1
        bit = bits[choice]
        rows[src] = mask_u | bit
        rows[dst] = mask_v | bit
    return choices


class GreedyCore:
    """Incremental PowerGraph-greedy state, fed one edge chunk at a time.

    The replica sets are per-vertex bitmasks; a chunk runs on a
    Python-list copy of the loads and writes it back into ``sizes``.
    """

    algorithm = "greedy"

    def __init__(self, num_partitions: int, num_vertices: int, *,
                 degrees, rng: np.random.Generator | None) -> None:
        self.k = int(num_partitions)
        self.rng = rng
        self.degrees = degrees
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.replicas = ReplicaMasks(self.k, num_vertices)

    def rebase_sizes(self, global_sizes: np.ndarray) -> None:
        """Re-anchor the least-loaded comparisons on a synced snapshot."""
        np.copyto(self.sizes, global_sizes)

    def state_nbytes(self) -> int:
        return int(self.sizes.nbytes + self.replicas.nbytes +
                   self.degrees.nbytes)

    def process_chunk(self, edge_ids: np.ndarray, src_arr: np.ndarray,
                      dst_arr: np.ndarray, assignment: np.ndarray) -> None:
        d_u, d_v = self.degrees.push(src_arr, dst_arr)
        loads = self.sizes.tolist()
        assignment[edge_ids] = _place_edges(
            self, src_arr.tolist(), dst_arr.tolist(), d_u.tolist(),
            d_v.tolist(), loads)
        self.sizes[:] = loads


class GreedyVertexCutPartitioner(DegreeStatePartitioner):
    """PowerGraph-style greedy vertex-cut streaming partitioner."""

    name = "greedy"

    def __init__(self, seed=None, state: str = "exact",
                 sketch_width: int = DEFAULT_SKETCH_WIDTH,
                 sketch_depth: int = DEFAULT_SKETCH_DEPTH):
        super().__init__(state, sketch_width, sketch_depth)
        self.seed = seed

    def _make_core(self, k, num_vertices, num_edges, degrees):
        return GreedyCore(k, num_vertices, degrees=degrees,
                          rng=make_rng(self.seed))
