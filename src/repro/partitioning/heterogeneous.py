"""Heterogeneity-aware streaming partitioning (Appendix A).

The algorithms of Section 4 assume a homogeneous cluster.  Appendix A
surveys two extensions this module implements:

* **Capacity-aware LDG / FENNEL** (LeBeane et al. [29], Xu et al.'s BMI
  [44]): each machine ``i`` gets a capacity share ``s_i`` (proportional to
  its compute power); the balance terms of Eqs. 4/5 are evaluated against
  per-partition capacities ``C_i = β·s_i·|V|`` instead of a uniform
  ``β·|V|/k``, so faster machines receive proportionally more vertices
  while the neighbour-affinity objective is unchanged.

The uniform algorithms are the special case ``shares = [1/k] * k``, which
the test suite verifies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import (
    UNASSIGNED,
    VertexPartition,
    VertexPartitioner,
    argmax_with_ties,
    check_finite_at_least,
    check_num_partitions,
)
from repro.rng import make_rng


def normalize_shares(shares, num_partitions: int) -> np.ndarray:
    """Validate capacity shares and normalise them to sum to 1."""
    arr = np.asarray(shares, dtype=np.float64)
    if arr.shape != (num_partitions,):
        raise ConfigurationError(
            f"expected {num_partitions} capacity shares, got {arr.shape}"
        )
    if (arr <= 0).any():
        raise ConfigurationError("capacity shares must be positive")
    return arr / arr.sum()


class HeterogeneousLdgPartitioner(VertexPartitioner):
    """LDG with per-machine capacity shares.

    Parameters
    ----------
    shares:
        Relative machine capacities, one per partition.  They need not be
        normalised.
    balance_slack:
        β, as in plain LDG.
    """

    name = "ldg-het"

    def __init__(self, shares, balance_slack: float = 1.0, seed=None):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.shares = np.asarray(shares, dtype=np.float64)
        self.balance_slack = balance_slack
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        shares = normalize_shares(self.shares, k)
        rng = make_rng(self.seed)
        capacities = np.maximum(
            np.ceil(self.balance_slack * shares * num_vertices), 1.0)
        assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)

        for vertex, neighbors in stream:
            placed = assignment[neighbors]
            placed = placed[placed != UNASSIGNED]
            if placed.size:
                counts = np.bincount(placed, minlength=k).astype(np.float64)
            else:
                counts = np.zeros(k, dtype=np.float64)
            scores = counts * (1.0 - sizes / capacities)
            # Tie-break toward the emptiest partition *relative to its
            # capacity*, so big machines fill first proportionally.
            fill = sizes / capacities
            target = argmax_with_ties(scores, tie_break=fill, rng=rng)
            assignment[vertex] = target
            sizes[target] += 1
        return VertexPartition(k, assignment, algorithm=self.name)


class HeterogeneousFennelPartitioner(VertexPartitioner):
    """FENNEL with per-machine capacity shares.

    The additive load penalty of Eq. 5 is evaluated on the partition's
    *fill fraction* ``|P_i| / (k·s_i)`` so a machine with twice the share
    pays the penalty of half the vertices.
    """

    name = "fennel-het"

    def __init__(self, shares, gamma: float = 1.5, alpha: float | None = None,
                 load_cap: float = 1.1, seed=None):
        if gamma <= 1.0:
            raise ConfigurationError("gamma must be > 1")
        check_finite_at_least("load_cap (nu)", load_cap, 1)
        self.shares = np.asarray(shares, dtype=np.float64)
        self.gamma = gamma
        self.alpha = alpha
        self.load_cap = load_cap
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        shares = normalize_shares(self.shares, k)
        rng = make_rng(self.seed)
        if num_edges is None:
            graph = getattr(stream, "graph", None)
            num_edges = graph.num_edges if graph is not None else None
        if self.alpha is not None:
            alpha = self.alpha
        elif num_edges is not None:
            alpha = float(np.sqrt(k) * num_edges / max(num_vertices, 1) ** 1.5)
        else:
            raise ConfigurationError(
                "heterogeneous FENNEL needs num_edges or an explicit alpha")
        capacities = np.maximum(self.load_cap * shares * num_vertices, 1.0)
        # Effective size for the penalty: scale each partition's count to
        # what it would be on a uniform cluster.
        scale = 1.0 / (k * shares)
        assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)

        for vertex, neighbors in stream:
            placed = assignment[neighbors]
            placed = placed[placed != UNASSIGNED]
            if placed.size:
                counts = np.bincount(placed, minlength=k).astype(np.float64)
            else:
                counts = np.zeros(k, dtype=np.float64)
            effective = sizes * scale
            scores = counts - alpha * self.gamma * effective ** (self.gamma - 1.0)
            scores[sizes >= capacities] = -np.inf
            target = argmax_with_ties(scores, tie_break=sizes / capacities,
                                      rng=rng)
            assignment[vertex] = target
            sizes[target] += 1
        return VertexPartition(k, assignment, algorithm=self.name)
