"""k-core decomposition by iterative peeling.

A vertex belongs to the k-core if it survives repeated removal of all
vertices with (undirected) degree < k.  The distributed implementation is
a shrinking-activity workload like WCC, but with *elimination* semantics:
a removed vertex notifies its neighbours, whose effective degrees drop,
possibly cascading — an aggressive test of partitionings under rapidly
shifting load.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analytics.workloads.base import (
    IterationActivity,
    Workload,
    check_at_least_one,
)
from repro.graph.digraph import Graph


class KCore(Workload):
    """Membership in the k-core (bi-directional propagation).

    ``result()`` is a boolean array: True for vertices in the k-core.
    """

    name = "kcore"
    direction = "bi"

    def __init__(self, k: int = 3, max_iterations: int = 100_000):
        check_at_least_one("k", k)
        check_at_least_one("max_iterations", max_iterations)
        self.k = k
        self.max_iterations = max_iterations
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        src, dst = graph.src, graph.dst
        effective = graph.degree.astype(np.int64).copy()
        alive = np.ones(n, dtype=bool)

        for _step in range(self.max_iterations):
            removing = alive & (effective < self.k)
            if not removing.any():
                break
            alive &= ~removing
            # Removed vertices notify both endpoints of their edges.
            # bincount == the np.add.at scatter it replaced (kept in
            # ReferenceKCore), integer-exact and single-pass.
            drop = np.zeros(n, dtype=np.int64)
            fwd = removing[src]
            if fwd.any():
                drop += np.bincount(dst[fwd], minlength=n)
            rev = removing[dst]
            if rev.any():
                drop += np.bincount(src[rev], minlength=n)
            effective -= drop
            self._values = alive.copy()
            yield IterationActivity(
                sends_forward=removing,
                sends_reverse=removing,
                changed=removing,
            )
        self._values = alive.copy()
