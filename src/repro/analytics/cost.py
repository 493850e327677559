"""Cost model turning message/work counts into simulated time and bytes.

The paper measures three runtime quantities on its PowerLyra cluster:
total network I/O (GB), the per-machine computation-time distribution, and
end-to-end execution time.  The engine produces exact *counts* (edges
processed per machine, messages exchanged); this model converts them to
seconds and bytes with constants calibrated to commodity hardware — the
absolute values are arbitrary, but every comparison in the reproduced
figures depends only on ratios, which the counts determine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.partitioning.base import check_finite_at_least


@dataclass(frozen=True)
class CostModel:
    """Calibration constants for the synchronous GAS engine.

    Attributes
    ----------
    seconds_per_edge:
        CPU time to process one edge in gather/scatter (~50M edges/s/core
        on one in-memory machine).
    seconds_per_vertex_op:
        CPU time for one apply / partial-aggregate combine.
    bytes_per_message:
        Wire size of one vertex-value message (value + ids + framing).
        PowerLyra messages carry an 8-byte value plus headers.
    bandwidth_bytes_per_sec:
        Per-machine effective NIC bandwidth.  Set below 10 GbE line rate
        to absorb serialisation/RPC overhead per byte.
    barrier_seconds:
        Synchronisation overhead per super-step (BSP barrier + RPC
        latency); this is what makes over-partitioning lose (Fig. 3's
        flattening beyond 64 partitions).

    The defaults are calibrated for this repo's *scaled-down* datasets
    (10^5–10^6 edges standing in for the paper's 10^9): the barrier is
    shrunk in proportion so the compute : network : overhead ratios of a
    billion-edge cluster run are preserved.  Absolute seconds are not
    meaningful — every reproduced comparison depends on ratios only.
    """

    seconds_per_edge: float = 2.0e-8
    seconds_per_vertex_op: float = 5.0e-8
    bytes_per_message: float = 32.0
    bandwidth_bytes_per_sec: float = 2.5e8
    barrier_seconds: float = 5.0e-5
    #: Fault-tolerance constants (exercised only when a fault schedule is
    #: supplied to the engine — they never affect fault-free runs).
    #: Cost of writing one coordinated checkpoint (all machines flush
    #: their vertex state; scaled down with the barrier).
    checkpoint_seconds: float = 2.0e-4
    #: State re-fetched during recovery, per lost master vertex …
    bytes_per_vertex_state: float = 64.0
    #: … and per edge stored on the failed machine (edges are re-read
    #: from the replicas' adjacency data).
    bytes_per_edge_state: float = 16.0

    def __post_init__(self):
        # Every constant is finite and at least 0; bandwidth divides.
        for spec in fields(self):
            check_finite_at_least(
                spec.name, getattr(self, spec.name), 0,
                strict=spec.name == "bandwidth_bytes_per_sec")

    def recovery_bytes(self, lost_vertices: int, lost_edges: int) -> float:
        """Bytes migrated to re-home a failed machine's graph state."""
        return (lost_vertices * self.bytes_per_vertex_state
                + lost_edges * self.bytes_per_edge_state)

    def compute_seconds(self, edge_ops: float, vertex_ops: float) -> float:
        """CPU seconds for one machine in one super-step."""
        return (edge_ops * self.seconds_per_edge
                + vertex_ops * self.seconds_per_vertex_op)

    def network_seconds(self, bytes_in_max_machine: float) -> float:
        """Wire time of a super-step, gated by the busiest NIC."""
        return bytes_in_max_machine / self.bandwidth_bytes_per_sec

    def message_bytes(self, num_messages: float) -> float:
        """Total bytes for *num_messages* vertex-value messages."""
        return num_messages * self.bytes_per_message


#: Shared default used by the experiment harness.
DEFAULT_COST_MODEL = CostModel()
