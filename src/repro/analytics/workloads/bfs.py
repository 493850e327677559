"""Breadth-First Search — level-synchronous frontier expansion.

Not one of the paper's three headline workloads, but the canonical
traversal kernel of graph-analytics benchmarks (Graph500) and the
building block SSSP reduces to on unit weights.  Its communication
profile is the paper's "ordered activation" pattern in its purest form:
the frontier grows geometrically and then collapses, stressing
partitionings whose balance only holds under all-active workloads.
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


class BreadthFirstSearch(Workload):
    """Level-synchronous BFS from a fixed source (uni-directional).

    Produces hop distances along out-edges; ``result()`` is the level per
    vertex (-1 = unreachable).
    """

    name = "bfs"
    direction = "uni"

    def __init__(self, source: int = 0, max_iterations: int = 100_000):
        if source < 0:
            raise ConfigurationError("source must be a valid vertex id")
        check_at_least_one("max_iterations", max_iterations)
        self.source = source
        self.max_iterations = max_iterations
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        if self.source >= n:
            raise ConfigurationError(
                f"source {self.source} out of range for {n} vertices")
        src, dst = graph.src, graph.dst
        level = np.full(n, -1, dtype=np.int64)
        level[self.source] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[self.source] = True

        for depth in range(1, self.max_iterations + 1):
            if not frontier.any():
                break
            sends = frontier.copy()
            active_edges = frontier[src]
            discovered = np.zeros(n, dtype=bool)
            if active_edges.any():
                targets = dst[active_edges]
                fresh = level[targets] < 0
                discovered[targets[fresh]] = True
            level[discovered] = depth
            self._values = level
            yield IterationActivity(
                sends_forward=sends,
                sends_reverse=None,
                changed=discovered,
            )
            frontier = discovered
