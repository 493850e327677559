"""Partition-quality drift detection over simulated time.

The monitor tracks the three quality metrics of
:mod:`repro.metrics.quality` against a baseline snapshot taken at start
(and re-taken after every migration): edge-cut fraction (Eq. 3), load
imbalance, and the replication factor of the induced edge placement
(out-edges live with their source's owner, the Appendix-B storage
layout, so the vertex-cut metric measures how many partitions hold a
vertex's incident edges).  The drift *score* is the cut's degradation
plus a weighted imbalance degradation; migration fires when the score
crosses the configured threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.digraph import Graph
from repro.metrics.quality import (
    edge_cut_ratio,
    load_imbalance,
    replication_factor,
)
from repro.partitioning.base import (
    EdgePartition,
    VertexPartition,
    check_finite_at_least,
)


@dataclass(frozen=True)
class DriftSample:
    """One drift observation at the end of an epoch."""

    epoch: int
    time: float
    edge_cut: float
    imbalance: float
    replication: float
    drift: float
    fired: bool


def quality_snapshot(graph: Graph,
                     partition: VertexPartition) -> tuple[float, float, float]:
    """(edge-cut ratio, load imbalance, replication factor) of a placement."""
    cut = edge_cut_ratio(graph, partition)
    imbalance = load_imbalance(partition.sizes())
    if graph.num_edges:
        induced = EdgePartition(partition.num_partitions,
                                partition.assignment[graph.src],
                                algorithm=partition.algorithm)
        replication = replication_factor(graph, induced)
    else:
        replication = 1.0
    return cut, imbalance, replication


class DriftMonitor:
    """Threshold trigger over partition-quality drift.

    Parameters
    ----------
    threshold:
        Drift score at which :meth:`observe` reports ``fired=True``;
        ``None`` never fires (incremental-only mode).
    imbalance_weight:
        Weight of the imbalance term:
        ``drift = max(0, cut - cut0) + weight * max(0, imb - imb0)``.
    """

    def __init__(self, threshold: float | None = 0.04,
                 imbalance_weight: float = 0.25):
        if threshold is not None:
            check_finite_at_least("threshold", threshold, 0)
        check_finite_at_least("imbalance_weight", imbalance_weight, 0)
        self.threshold = threshold
        self.imbalance_weight = imbalance_weight
        self._baseline_cut = 0.0
        self._baseline_imbalance = 1.0

    @property
    def baseline(self) -> tuple[float, float]:
        """(edge-cut ratio, load imbalance) the monitor drifts against."""
        return self._baseline_cut, self._baseline_imbalance

    def rebase(self, graph: Graph, partition: VertexPartition) -> None:
        """Take a fresh quality baseline (at start and after migration)."""
        cut, imbalance, _ = quality_snapshot(graph, partition)
        self._baseline_cut = cut
        self._baseline_imbalance = imbalance

    def observe(self, epoch: int, time: float, graph: Graph,
                partition: VertexPartition) -> DriftSample:
        """Measure quality and report whether the threshold is crossed."""
        cut, imbalance, replication = quality_snapshot(graph, partition)
        drift = max(0.0, cut - self._baseline_cut) \
            + self.imbalance_weight \
            * max(0.0, imbalance - self._baseline_imbalance)
        fired = self.threshold is not None and drift >= self.threshold
        return DriftSample(epoch=epoch, time=time, edge_cut=cut,
                           imbalance=imbalance, replication=replication,
                           drift=drift, fired=fired)
