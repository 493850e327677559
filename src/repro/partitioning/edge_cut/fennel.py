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
from repro.partitioning.base import (
    VertexPartition,
    VertexPartitioner,
    check_finite_at_least,
    check_num_partitions,
)
from repro.partitioning.kernels import (
    FennelKernel,
    argmax_tie_least_loaded,
    iter_vertex_arrivals,
)
from repro.rng import make_rng
from repro.telemetry import get_tracer


class FennelPartitioner(VertexPartitioner):
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
        if gamma <= 1.0:
            raise ConfigurationError("gamma must be > 1")
        check_finite_at_least("load_cap (nu)", load_cap, 1)
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
        n = max(num_vertices, 1)
        return float(np.sqrt(k) * num_edges / n ** 1.5)

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        if num_edges is None:
            graph = getattr(stream, "graph", None)
            num_edges = graph.num_edges if graph is not None else None
        alpha = self._resolve_alpha(k, num_vertices, num_edges)
        capacity = max(1.0, self.load_cap * num_vertices / k)
        kernel = FennelKernel(k, num_vertices, alpha, self.gamma, capacity)
        sizes = kernel.sizes
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
                        # -inf marks capacity-masked partitions; JSON-ify
                        # the mask as null so traces stay standard JSON.
                        scores=[float(s) if np.isfinite(s) else None
                                for s in scores],
                        state_size=int(sizes.sum()))
                decision += 1
            kernel.place(vertex, target)
        return VertexPartition(k, kernel.export_assignment(),
                               algorithm=self.name)
