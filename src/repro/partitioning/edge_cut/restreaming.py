"""Restreaming partitioners — Nishimura & Ugander, KDD 2013.

re-LDG and re-FENNEL iterate their one-pass counterparts: pass ``t`` streams
the whole graph again, scoring each vertex against a *mixed* view of
neighbour placements — neighbours already re-assigned in the current pass
use their fresh assignment, everyone else uses the previous pass's.  Loads
are the current pass's (partitions refill from empty each pass).  A handful
of passes closes most of the quality gap to offline multilevel
partitioning, which Table 1 of the paper records as these algorithms'
distinguishing feature.

Both variants share one multi-pass driver over the fused scoring kernels
of :mod:`repro.partitioning.kernels`; since restreaming multiplies the
per-element cost by the pass count, the kernel speedup compounds here.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import (
    VertexPartition,
    VertexPartitioner,
    check_finite_at_least,
    check_num_partitions,
)
from repro.partitioning.edge_cut.fennel import FennelPartitioner
from repro.partitioning.kernels import (
    FennelKernel,
    LdgKernel,
    argmax_tie_least_loaded,
    iter_vertex_arrivals,
)
from repro.rng import make_rng


class _RestreamingBase(VertexPartitioner):
    """Shared multi-pass driver; subclasses provide the scoring kernel."""

    def __init__(self, num_passes: int = 5, seed=None):
        if num_passes < 1:
            raise ConfigurationError("num_passes must be >= 1")
        self.num_passes = num_passes
        self.seed = seed

    def _make_kernel(self, k: int, num_vertices: int,
                     num_edges: int | None):
        raise NotImplementedError

    def _begin_pass(self, kernel, pass_index: int) -> None:
        kernel.begin_pass()

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        if num_edges is None:
            graph = getattr(stream, "graph", None)
            num_edges = graph.num_edges if graph is not None else None
        kernel = self._make_kernel(k, num_vertices, num_edges)
        sizes = kernel.sizes

        # Slot-encoded placements of the previous pass (k = unplaced).
        previous = np.full(num_vertices, k, dtype=np.int64)
        for pass_index in range(self.num_passes):
            self._begin_pass(kernel, pass_index)
            for vertex, neighbors in iter_vertex_arrivals(stream):
                counts = kernel.mixed_counts(neighbors, previous)
                scores = kernel.score_counts(counts)
                target = argmax_tie_least_loaded(scores, sizes, rng)
                kernel.place(vertex, target)
            previous = kernel.slots.copy()
        return VertexPartition(k, kernel.export_assignment(),
                               algorithm=self.name)


class RestreamingLdgPartitioner(_RestreamingBase):
    """re-LDG: LDG's multiplicative objective, restreamed.

    Table 1 of the paper marks re-LDG as the restreaming algorithm with
    update support (a changed graph can simply be streamed again starting
    from the previous assignment).
    """

    name = "re-ldg"

    def __init__(self, num_passes: int = 5, balance_slack: float = 1.0, seed=None):
        super().__init__(num_passes=num_passes, seed=seed)
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.balance_slack = balance_slack

    def _make_kernel(self, k, num_vertices, num_edges):
        capacity = max(1.0, math.ceil(self.balance_slack * num_vertices / k))
        return LdgKernel(k, num_vertices, capacity)


class RestreamingFennelPartitioner(_RestreamingBase):
    """re-FENNEL: FENNEL's additive objective, restreamed.

    Follows the original restreaming paper in annealing α upward across
    passes (``alpha_growth`` multiplier per pass) so later passes weigh
    balance more heavily.
    """

    name = "re-fennel"

    def __init__(self, num_passes: int = 5, gamma: float = 1.5,
                 alpha: float | None = None, load_cap: float = 1.1,
                 alpha_growth: float = 1.5, seed=None):
        super().__init__(num_passes=num_passes, seed=seed)
        # Parameter template only (never streams); seeded anyway so the
        # seed lane is complete end to end.
        self._template = FennelPartitioner(gamma=gamma, alpha=alpha,
                                           load_cap=load_cap, seed=seed)
        self.alpha_growth = alpha_growth
        self._alpha = 0.0
        self._gamma = gamma

    def _make_kernel(self, k, num_vertices, num_edges):
        self._alpha = self._template._resolve_alpha(k, num_vertices, num_edges)
        capacity = max(1.0, self._template.load_cap * num_vertices / k)
        return FennelKernel(k, num_vertices, self._alpha, self._gamma,
                            capacity)

    def _begin_pass(self, kernel, pass_index):
        kernel.begin_pass(self._alpha * (self.alpha_growth ** pass_index))
