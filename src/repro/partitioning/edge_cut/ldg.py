"""Linear Deterministic Greedy (LDG) — Stanton & Kliot, KDD 2012.

Eq. 4 of the paper: assign vertex ``u`` to the partition with the most of
``u``'s already-placed neighbours, discounted multiplicatively by fullness:

    argmax_i  |P_i ∩ N(u)| * (1 - |P_i| / C),      C = β |V| / k

The multiplicative weight *strictly* enforces the capacity: a full
partition's score is <= 0, so it can only be chosen when every partition
is full (which β >= 1 prevents).  Ties break to the least-loaded partition
(Stanton & Kliot's convention), then randomly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.partitioning.base import (
    VertexPartition,
    VertexPartitioner,
    check_finite_at_least,
    check_num_partitions,
)
from repro.partitioning.kernels import (
    LdgKernel,
    argmax_tie_least_loaded,
    iter_vertex_arrivals,
)
from repro.rng import make_rng
from repro.telemetry import get_tracer


class LdgPartitioner(VertexPartitioner):
    """Linear Deterministic Greedy edge-cut streaming partitioner.

    Parameters
    ----------
    balance_slack:
        The paper's β: partition capacity is ``β |V| / k``.  ``1.0``
        requires exact balance (up to rounding).
    seed:
        Tie-break randomness.
    """

    name = "ldg"

    def __init__(self, balance_slack: float = 1.0, seed=None):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.balance_slack = balance_slack
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        capacity = max(1.0, math.ceil(self.balance_slack * num_vertices / k))
        kernel = LdgKernel(k, num_vertices, capacity)
        sizes = kernel.sizes
        # Decision tracing: one `if 0:` branch per vertex when disabled —
        # no tracer calls, no allocations (the overhead tests assert it).
        tracer = get_tracer()
        trace_every = tracer.decision_sample_every if tracer.enabled else 0
        decision = 0

        for vertex, neighbors in iter_vertex_arrivals(stream):
            scores = kernel.score(neighbors)
            target = argmax_tie_least_loaded(scores, sizes, rng)
            if trace_every:
                if decision % trace_every == 0:
                    tracer.point(
                        "sgp.decision", float(decision),
                        algorithm=self.name, vertex=int(vertex),
                        chosen=int(target),
                        ties=int(np.count_nonzero(scores == scores.max())),
                        scores=[float(s) for s in scores],
                        state_size=int(sizes.sum()))
                decision += 1
            kernel.place(vertex, target)
        return VertexPartition(k, kernel.export_assignment(),
                               algorithm=self.name)
