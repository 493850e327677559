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

from repro.partitioning.base import check_finite_at_least
from repro.partitioning.drivers import VertexStreamPartitioner
from repro.partitioning.kernels import LdgKernel


class LdgPartitioner(VertexStreamPartitioner):
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

    def _make_kernel(self, k, num_vertices, num_edges):
        capacity = max(1.0, math.ceil(self.balance_slack * num_vertices / k))
        return LdgKernel(k, num_vertices, capacity)
