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

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import check_finite_entries
from repro.partitioning.edge_cut.fennel import FennelPartitioner
from repro.partitioning.edge_cut.ldg import LdgPartitioner
from repro.partitioning.kernels import FennelKernel, LdgKernel


def normalize_shares(shares, num_partitions: int) -> np.ndarray:
    """Validate capacity shares and normalise them to sum to 1."""
    arr = check_finite_entries("capacity share", shares, positive=True)
    if arr.shape != (num_partitions,):
        raise ConfigurationError(
            f"expected {num_partitions} capacity shares, got {arr.shape}"
        )
    return arr / arr.sum()


class CapacityLdgKernel(LdgKernel):
    """LDG against per-partition capacities ``C_i`` (Eq. 4, C → C_i).

    Ties go to the lowest fill ``|P_i| / C_i`` rather than the lowest
    size, so big machines fill first proportionally.
    """

    def __init__(self, num_partitions: int, num_vertices: int,
                 capacities: np.ndarray) -> None:
        # The uniform capacity goes unused: place() reads capacities.
        super().__init__(num_partitions, num_vertices, capacity=math.inf)
        self.capacities = capacities
        self.tie_key = np.zeros(self.k)

    def place(self, vertex: int, target: int) -> None:
        self.slots[vertex] = target
        size = int(self.sizes[target]) + 1
        self.sizes[target] = size
        fill = size / self.capacities[target]
        self.tie_key[target] = fill
        self._availability[target] = 1.0 - fill


class CapacityFennelKernel(FennelKernel):
    """FENNEL against per-partition capacities ``C_i``.

    The penalty is taken on the size a partition would have on a uniform
    cluster, ``|P_i| / (k s_i)``, and ties go to the lowest fill
    ``|P_i| / C_i``.  ``place`` recomputes the whole penalty vector with
    numpy's vectorised ``**``: it differs from the scalar power of
    :class:`FennelKernel` in the last ulp for some inputs, and this
    variant's pinned assignments were taken with the vector form.
    """

    def __init__(self, num_partitions: int, num_vertices: int, alpha: float,
                 gamma: float, capacities: np.ndarray,
                 shares: np.ndarray) -> None:
        # The uniform capacity goes unused: place() reads capacities.
        super().__init__(num_partitions, num_vertices, alpha, gamma,
                         capacity=math.inf)
        self.capacities = capacities
        self._scale = 1.0 / (self.k * shares)
        self.tie_key = np.zeros(self.k)

    def place(self, vertex: int, target: int) -> None:
        self.slots[vertex] = target
        self.sizes[target] += 1
        sizes = self.sizes
        penalty = self._coefficient * (sizes * self._scale) ** self._exponent
        penalty[sizes >= self.capacities] = np.inf
        self._penalty = penalty
        self.tie_key[target] = sizes[target] / self.capacities[target]


class HeterogeneousLdgPartitioner(LdgPartitioner):
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
        super().__init__(balance_slack=balance_slack, seed=seed)
        self.shares = check_finite_entries("capacity share", shares,
                                           positive=True)

    def _make_kernel(self, k, num_vertices, num_edges):
        shares = normalize_shares(self.shares, k)
        capacities = np.maximum(
            np.ceil(self.balance_slack * shares * num_vertices), 1.0)
        return CapacityLdgKernel(k, num_vertices, capacities)


class HeterogeneousFennelPartitioner(FennelPartitioner):
    """FENNEL with per-machine capacity shares.

    The additive load penalty of Eq. 5 is evaluated on the partition's
    *fill fraction* ``|P_i| / (k·s_i)`` so a machine with twice the share
    pays the penalty of half the vertices.
    """

    name = "fennel-het"

    def __init__(self, shares, gamma: float = 1.5, alpha: float | None = None,
                 load_cap: float = 1.1, seed=None):
        super().__init__(gamma=gamma, alpha=alpha, load_cap=load_cap,
                         seed=seed)
        self.shares = check_finite_entries("capacity share", shares,
                                           positive=True)

    def _make_kernel(self, k, num_vertices, num_edges):
        shares = normalize_shares(self.shares, k)
        alpha = self._resolve_alpha(k, num_vertices, num_edges)
        capacities = np.maximum(self.load_cap * shares * num_vertices, 1.0)
        return CapacityFennelKernel(k, num_vertices, alpha, self.gamma,
                                    capacities, shares)
