"""HDRF (High-Degree Replicated First) — Petroni et al., CIKM 2015.

Eq. 7 of the paper: a degree-aware greedy vertex-cut that replicates hub
vertices and preserves low-degree locality, using only *partial* degree
counts (no pre-processing pass):

    θ(u) = d(u) / (d(u) + d(v)),   θ(v) = 1 - θ(u)
    g(v, P_i) = (1 + (1 - θ(v))) · 1_{P_i ∈ A(v)}
    argmax_i  g(v, P_i) + g(u, P_i) + λ (1 - |e(P_i)| / C)

A partition already hosting the *lower*-degree endpoint scores higher
(``1 - θ`` is larger for the smaller degree), so cuts land on hubs.  The
balance term with ``λ > 1`` keeps HDRF well-defined on BFS-ordered streams
where plain greedy collapses (Section 4.2.2).

The scoring loop lives in :class:`HdrfCore`, which consumes the stream
one chunk at a time against a pluggable degree state (exact counters or
a count-min sketch, ``state="exact"|"sketch"``) — the same core the
sharded out-of-core driver (:mod:`repro.ingest.shard`) runs per stream
segment with periodic load-vector rebasing.  The replica sets are
per-vertex bitmasks, and each edge scores only the partitions in
``A(u) ∪ A(v)`` (as 2PS does, arXiv 2001.07086), falling back to all k
only when no candidate beats every partition's balance term; the
assignment is the k-wide argmax's, tie-break draws included.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.base import check_finite_at_least
from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
)
from repro.partitioning.drivers import DegreeStatePartitioner
from repro.partitioning.kernels import ReplicaMasks, pick_least_loaded
from repro.rng import make_rng
from repro.telemetry import get_tracer


def _place_edges(core: HdrfCore, srcs: list, dsts: list, thetas: list,
                 loads: list, balance: list) -> list:
    """The per-edge argmax of one chunk; returns the chosen partitions.

    Only the partitions in ``A(u) ∪ A(v)`` are scored, class by class:
    both endpoints (``(2-θ) + (1+θ)``), then ``A(u)`` (``2-θ``) and
    ``A(v)`` (``1+θ``), each plus the partition's balance term — the
    same IEEE operations, in the same order, as the k-wide
    ``(g_u + g_v) + balance``.  Every other partition scores exactly its
    balance term, so the candidates' argmax is the k-wide one whenever
    it beats ``top >= max(balance)``.  Rounding is monotone, so a class
    whose bonus plus ``top`` falls short of the best score so far cannot
    reach it and is skipped, and a partition in both replica sets that
    a single-endpoint class scores again, with the lower bonus, cannot
    beat the score it already had.  Ties collect in the ``tied`` mask,
    which holds each partition once.  An edge with no winner above
    ``top``, or with ties, is settled off this loop, which stays short
    because tracemalloc's per-allocation cost grows with the allocating
    instruction's offset in its function.
    """
    rows = core.replicas.rows
    byte_tables = core.replicas.byte_tables
    bits = core.replicas.bits
    step = core.balance_step
    top = max(balance)
    choices = []
    for src, dst, theta in zip(srcs, dsts, thetas):
        mask_u = rows[src]
        mask_v = rows[dst]
        g_u = 2.0 - theta
        g_v = 1.0 + theta
        common = mask_u & mask_v
        best = top
        choice = -1
        tied = -1                   # cleared once a candidate beats top
        for mask, bonus in ((common, g_u + g_v), (mask_u, g_u),
                            (mask_v, g_v)):
            if mask and bonus + top >= best:
                for table, shift in byte_tables:
                    for p in table[mask >> shift & 255]:
                        score = bonus + balance[p]
                        if score > best:
                            best = score
                            choice = p
                            tied = 0
                        elif score == best:
                            tied |= bits[p]
        if tied:
            choice, top = core.settle(choice, tied, mask_u, mask_v, g_u,
                                      g_v, loads, balance, top)
        choices.append(choice)
        loads[choice] += 1
        balance[choice] -= step
        bit = bits[choice]
        rows[src] = mask_u | bit
        rows[dst] = mask_v | bit
    return choices


class HdrfCore:
    """Incremental HDRF scoring state, fed one edge chunk at a time.

    Owns everything the per-arrival argmax reads: the replica sets (one
    bitmask per vertex), the per-partition edge counts, the
    incrementally maintained balance term and the degree state.  A chunk
    runs on Python-list copies of the loads and the balance term and
    writes them back into ``sizes``/``balance`` when it ends.
    ``rebase_sizes`` re-anchors the load vector on an externally synced
    snapshot, which is how the sharded ingest driver shares (stale) load
    information between stream segments.
    """

    algorithm = "hdrf"

    def __init__(self, num_partitions: int, num_vertices: int, *,
                 capacity: float, balance_weight: float, degrees,
                 rng: np.random.Generator | None, tracer=None) -> None:
        self.k = int(num_partitions)
        self.rng = rng
        self.degrees = degrees
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.replicas = ReplicaMasks(self.k, num_vertices)
        self.balance_weight = float(balance_weight)
        self.balance_step = float(balance_weight) / float(capacity)
        # The balance term only changes for the partition that last
        # gained an edge, so it is maintained incrementally.
        self.balance = np.full(self.k, self.balance_weight, dtype=np.float64)
        self._tracer = tracer
        self._trace_every = (tracer.decision_sample_every
                             if tracer is not None and tracer.enabled else 0)
        self._decision = 0
        #: Replicas placed so far — a traced decision's ``state_size``.
        self._replica_count = 0

    def rebase_sizes(self, global_sizes: np.ndarray) -> None:
        """Re-anchor loads (and the derived balance term) on a synced
        global snapshot — λ(1 - |e(P_i)|/C) recomputed from scratch."""
        np.copyto(self.sizes, global_sizes)
        np.multiply(self.sizes, -self.balance_step, out=self.balance)
        self.balance += self.balance_weight

    def state_nbytes(self) -> int:
        """Bytes of partitioner state held (the bounded-memory claim)."""
        return int(self.sizes.nbytes + self.replicas.nbytes +
                   self.balance.nbytes + self.degrees.nbytes)

    def process_chunk(self, edge_ids: np.ndarray, src_arr: np.ndarray,
                      dst_arr: np.ndarray, assignment: np.ndarray) -> None:
        """Place one chunk of arrivals, writing ``assignment[edge_id]``."""
        d_u, d_v = self.degrees.push(src_arr, dst_arr)
        thetas = (d_u / (d_u + d_v)).tolist()
        srcs = src_arr.tolist()
        dsts = dst_arr.tolist()
        loads = self.sizes.tolist()
        balance = self.balance.tolist()
        if self._trace_every:
            choices = self._place_traced(edge_ids.tolist(), srcs, dsts,
                                         thetas, loads, balance)
        else:
            choices = _place_edges(self, srcs, dsts, thetas, loads, balance)
        assignment[edge_ids] = choices
        self.sizes[:] = loads
        self.balance[:] = balance

    def scores(self, mask_u: int, mask_v: int, g_u: float, g_v: float,
               balance: list) -> list:
        """All k scores of one edge, as the k-wide ``(g_u + g_v) + balance``."""
        return [((g_u if mask_u >> p & 1 else 0.0)
                 + (g_v if mask_v >> p & 1 else 0.0)) + balance[p]
                for p in range(self.k)]

    def settle(self, choice: int, tied: int, mask_u: int, mask_v: int,
               g_u: float, g_v: float, loads: list, balance: list,
               top: float) -> tuple:
        """Place an edge the candidate scan left open; returns the choice
        and the (possibly lowered) bound on ``max(balance)``.

        ``choice < 0`` means no candidate beat *top*: score all k
        partitions, as the k-wide argmax would.  Otherwise the partitions
        in *tied* share *choice*'s score, and no other partition can.
        """
        if choice < 0:
            scores = self.scores(mask_u, mask_v, g_u, g_v, balance)
            best = max(scores)
            ties = [p for p in range(self.k) if scores[p] == best]
            top = max(balance)
        else:
            ties = self.replicas.members(tied | self.replicas.bits[choice])
        return pick_least_loaded(ties, loads, self.rng), top

    def _place_traced(self, edge_ids: list, srcs: list, dsts: list,
                      thetas: list, loads: list, balance: list) -> list:
        """:func:`_place_edges` one edge at a time, emitting every
        ``decision_sample_every``-th decision as an ``sgp.decision`` span."""
        rows = self.replicas.rows
        choices = []
        for edge_id, src, dst, theta in zip(edge_ids, srcs, dsts, thetas):
            mask_u = rows[src]
            mask_v = rows[dst]
            sampled = self._decision % self._trace_every == 0
            if sampled:
                scores = self.scores(mask_u, mask_v, 2.0 - theta,
                                     1.0 + theta, balance)
            choice, = _place_edges(self, [src], [dst], [theta], loads,
                                   balance)
            if sampled:
                self._tracer.point(
                    "sgp.decision", float(self._decision),
                    algorithm=self.algorithm, edge=edge_id, src=src,
                    dst=dst, chosen=choice,
                    ties=scores.count(max(scores)), scores=scores,
                    state_size=self._replica_count)
            self._decision += 1
            bit = self.replicas.bits[choice]
            self._replica_count += ((not mask_u & bit)
                                    + (src != dst and not mask_v & bit))
            choices.append(choice)
        return choices


class HdrfPartitioner(DegreeStatePartitioner):
    """HDRF vertex-cut streaming partitioner.

    Parameters
    ----------
    balance_weight:
        λ of Eq. 7.  The paper recommends λ > 1 so the balance term
        dominates when neighbourhood signals tie; 1.1 is the default here
        (the original paper's experiments use values near 1).
    balance_slack:
        β defining the capacity ``C = β m / k`` that normalises the
        balance term.
    seed:
        Tie-break randomness.
    state:
        ``"exact"`` (default, bit-identical to the original counters) or
        ``"sketch"`` — count-min degree estimates in fixed memory.
    sketch_width / sketch_depth:
        Count-min geometry when ``state="sketch"``.
    """

    name = "hdrf"

    def __init__(self, balance_weight: float = 1.1, balance_slack: float = 1.0,
                 seed=None, state: str = "exact",
                 sketch_width: int = DEFAULT_SKETCH_WIDTH,
                 sketch_depth: int = DEFAULT_SKETCH_DEPTH):
        super().__init__(state, sketch_width, sketch_depth)
        check_finite_at_least("balance_weight (lambda)", balance_weight, 0,
                              strict=True)
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.balance_weight = balance_weight
        self.balance_slack = balance_slack
        self.seed = seed

    def _make_core(self, k, num_vertices, num_edges, degrees):
        capacity = max(1.0, self.balance_slack * num_edges / k)
        return HdrfCore(k, num_vertices, capacity=capacity,
                        balance_weight=self.balance_weight, degrees=degrees,
                        rng=make_rng(self.seed), tracer=get_tracer())
