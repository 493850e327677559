"""PageRank — the paper's flagship offline workload.

"In PowerLyra implementation of PageRank, vertex weights are iteratively
updated based on each vertex's incoming links for a fixed number of
iterations (20 in our experiments). As every vertex is active at each
iteration and must propagate information to all its neighbors, PageRank
demonstrates uniform and stable computation and communication costs"
(Section 5.1.3).  Communication is uni-directional: ranks flow along
out-edges only.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analytics.workloads.base import (
    IterationActivity,
    Workload,
    check_at_least_one,
)
from repro.errors import ConfigurationError
from repro.graph.digraph import Graph


class PageRank(Workload):
    """Fixed-iteration PageRank (all-active, uni-directional).

    Parameters
    ----------
    num_iterations:
        Super-steps to run; the paper uses 20.
    damping:
        Standard damping factor.
    """

    name = "pagerank"
    direction = "uni"

    def __init__(self, num_iterations: int = 20, damping: float = 0.85):
        check_at_least_one("num_iterations", num_iterations)
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must lie in (0, 1)")
        self.num_iterations = num_iterations
        self.damping = damping
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        src, dst = graph.src, graph.dst
        out_degree = graph.out_degree
        dangling = out_degree == 0
        safe_degree = np.maximum(out_degree, 1)
        ranks = np.full(n, 1.0 / n)
        all_vertices = np.ones(n, dtype=bool)

        for _step in range(self.num_iterations):
            contribution = ranks / safe_degree
            # bincount(weights=...) sums in input order, exactly like the
            # np.add.at it replaced (kept in ReferencePageRank) — same
            # bits, one fused C pass instead of a buffered scatter.
            incoming = np.bincount(dst, weights=contribution[src],
                                   minlength=n)
            # Dangling vertices redistribute their rank uniformly, the
            # standard correction that keeps Σ ranks = 1.
            incoming += ranks[dangling].sum() / n
            ranks = (1.0 - self.damping) / n + self.damping * incoming
            self._values = ranks
            yield IterationActivity(
                sends_forward=all_vertices,
                sends_reverse=None,
                changed=all_vertices,
            )
