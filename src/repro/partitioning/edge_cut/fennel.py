"""FENNEL — Tsourakakis et al., WSDM 2014.

Eq. 5 of the paper: modularity-style streaming objective with an *additive*
load penalty instead of LDG's multiplicative one:

    argmax_i  |P_i ∩ N(u)| - α γ |P_i|^(γ-1)

The original paper recommends ``γ = 1.5`` and
``α = sqrt(k) * m / n^1.5`` (their Theorem/parameter analysis as a function
of m and k), and additionally caps partitions at ``ν n / k`` so the additive
relaxation cannot run away; we implement both with the same defaults.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import check_finite_at_least
from repro.partitioning.drivers import VertexStreamPartitioner
from repro.partitioning.kernels import FennelKernel


def fennel_alpha(k: int, num_vertices: int, num_edges: int) -> float:
    """The original paper's load-term scale ``α = sqrt(k) m / n^1.5``."""
    return float(np.sqrt(k) * num_edges / max(num_vertices, 1) ** 1.5)


class FennelPartitioner(VertexStreamPartitioner):
    """FENNEL edge-cut streaming partitioner.

    Parameters
    ----------
    gamma:
        Exponent of the load term (γ in Eq. 5); 1.5 per the original paper.
    alpha:
        Scaling of the load term; when ``None`` (default) it is computed as
        ``sqrt(k) * m / n^1.5`` at stream time, which requires the stream
        to know the total edge count — the in-memory convenience path
        provides it, and external callers can pass ``num_edges``.
    load_cap:
        Hard capacity multiplier ν: no partition may exceed ``ν n / k``.
    seed:
        Tie-break randomness.
    """

    name = "fennel"

    def __init__(self, gamma: float = 1.5, alpha: float | None = None,
                 load_cap: float = 1.1, seed=None):
        check_finite_at_least("gamma", gamma, 1, strict=True)
        check_finite_at_least("load_cap (nu)", load_cap, 1)
        if alpha is not None:
            check_finite_at_least("alpha", alpha, 0)
        self.gamma = gamma
        self.alpha = alpha
        self.load_cap = load_cap
        self.seed = seed

    def _resolve_alpha(self, k: int, num_vertices: int, num_edges: int | None) -> float:
        if self.alpha is not None:
            return self.alpha
        if num_edges is None:
            raise ConfigurationError(
                "FENNEL needs num_edges to derive alpha; pass alpha= explicitly "
                "for streams of unknown size"
            )
        return fennel_alpha(k, num_vertices, num_edges)

    def _make_kernel(self, k, num_vertices, num_edges):
        alpha = self._resolve_alpha(k, num_vertices, num_edges)
        capacity = max(1.0, self.load_cap * num_vertices / k)
        return FennelKernel(k, num_vertices, alpha, self.gamma, capacity)
