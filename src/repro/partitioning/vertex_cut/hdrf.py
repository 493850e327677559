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
segment with periodic load-vector rebasing.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.base import check_finite_at_least
from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
)
from repro.partitioning.drivers import DegreeStatePartitioner
from repro.partitioning.kernels import argmax_tie_least_loaded, zip_chunked
from repro.rng import make_rng
from repro.telemetry import get_tracer


class HdrfCore:
    """Incremental HDRF scoring state, fed one edge chunk at a time.

    Owns everything the per-arrival argmax reads: the replica sets, the
    per-partition edge counts, the incrementally maintained balance term
    and the degree state.  ``rebase_sizes`` re-anchors the load vector on
    an externally synced snapshot, which is how the sharded ingest
    driver shares (stale) load information between stream segments.
    """

    algorithm = "hdrf"

    def __init__(self, num_partitions: int, num_vertices: int, *,
                 capacity: float, balance_weight: float, degrees,
                 rng: np.random.Generator | None, tracer=None) -> None:
        self.k = int(num_partitions)
        self.rng = rng
        self.degrees = degrees
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.replicas = np.zeros((int(num_vertices), self.k), dtype=bool)
        self.balance_weight = float(balance_weight)
        self.balance_step = float(balance_weight) / float(capacity)
        # The balance term only changes for the partition that last
        # gained an edge, so it is maintained incrementally.
        self.balance = np.full(self.k, self.balance_weight, dtype=np.float64)
        self._scores = np.empty(self.k, dtype=np.float64)
        self._g_other = np.empty(self.k, dtype=np.float64)
        self._tracer = tracer
        self._trace_every = (tracer.decision_sample_every
                             if tracer is not None and tracer.enabled else 0)
        self._decision = 0

    def rebase_sizes(self, global_sizes: np.ndarray) -> None:
        """Re-anchor loads (and the derived balance term) on a synced
        global snapshot — λ(1 - |e(P_i)|/C) recomputed from scratch."""
        np.copyto(self.sizes, global_sizes)
        np.multiply(self.sizes, -self.balance_step, out=self.balance)
        self.balance += self.balance_weight

    def state_nbytes(self) -> int:
        """Bytes of partitioner state held (the bounded-memory claim)."""
        return int(self.sizes.nbytes + self.replicas.nbytes +
                   self.balance.nbytes + self._scores.nbytes +
                   self._g_other.nbytes + self.degrees.nbytes)

    def process_chunk(self, edge_ids: np.ndarray, src_arr: np.ndarray,
                      dst_arr: np.ndarray, assignment: np.ndarray) -> None:
        """Place one chunk of arrivals, writing ``assignment[edge_id]``."""
        d_u, d_v = self.degrees.push(src_arr, dst_arr)
        thetas = d_u / (d_u + d_v)
        replicas = self.replicas
        sizes = self.sizes
        balance = self.balance
        scores = self._scores
        g_other = self._g_other
        trace_every = self._trace_every
        for edge_id, src, dst, theta_u in zip_chunked(edge_ids, src_arr,
                                                      dst_arr, thetas):
            # Fused g(u,·) + g(v,·) + balance into preallocated buffers.
            np.multiply(replicas[src], 2.0 - theta_u, out=scores)
            np.multiply(replicas[dst], 1.0 + theta_u, out=g_other)
            scores += g_other                           # 1 + (1 - θ(·))
            scores += balance
            choice = argmax_tie_least_loaded(scores, sizes, self.rng)
            if trace_every:
                if self._decision % trace_every == 0:
                    self._tracer.point(
                        "sgp.decision", float(self._decision),
                        algorithm=self.algorithm, edge=int(edge_id),
                        src=int(src), dst=int(dst), chosen=int(choice),
                        ties=int(np.count_nonzero(scores == scores.max())),
                        scores=[float(s) for s in scores],
                        state_size=int(np.count_nonzero(replicas)))
                self._decision += 1
            assignment[edge_id] = choice
            sizes[choice] += 1
            balance[choice] -= self.balance_step
            replicas[src, choice] = True
            replicas[dst, choice] = True


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
