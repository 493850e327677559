"""Configuration of the online partitioning service.

One frozen dataclass holds every knob of the service loop — traffic mix,
drift thresholds, migration budget and bandwidth, backpressure bounds,
fault-schedule composition — so a service run is fully described by
``(base graph, ServiceConfig)`` and therefore seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.partitioning.base import check_finite_at_least


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of one :class:`~repro.service.PartitionedGraphService` run.

    Attributes
    ----------
    num_partitions:
        Cluster size; doubles as the worker count of the per-epoch query
        simulation.
    epochs / epoch_duration:
        The service advances simulated time in epochs: each epoch applies
        admitted mutations, serves ``epoch_duration`` seconds of
        closed-loop queries, then evaluates drift.
    mutations_per_epoch:
        Offered write load per epoch (before admission control).
    edge_add_fraction / edge_delete_fraction / vertex_add_fraction /
    vertex_remove_fraction:
        Mutation mix; the remainder is vertex property updates.
    query_bindings_per_epoch:
        Distinct query bindings generated per epoch (closed-loop clients
        cycle through them for the whole epoch).
    drift_threshold:
        Drift score at which the monitor fires (see
        :class:`~repro.service.drift.DriftMonitor`).  ``None`` disables
        drift-triggered migration entirely — the incremental-only mode.
    imbalance_weight:
        Weight of the load-imbalance term in the drift score.
    migration_budget:
        Maximum vertices moved per migration event (the ``max_moves``
        handed to :func:`~repro.partitioning.dynamic.hermes_refine`).
        ``0`` also disables migration.
    migration_batch_vertices / migration_bandwidth_bytes_per_second /
    state_bytes_per_vertex:
        Rate limiting: a migration ships in batches of at most
        ``migration_batch_vertices`` vertices, each charging
        ``vertices x state_bytes / bandwidth`` seconds of worker time
        into the query simulation of the *next* epoch.
    migration_wait_seconds:
        Retry wait paid by a query whose start vertex is double-homed
        mid-move.
    migration_cooldown_epochs:
        Minimum epochs between two migration triggers.
    mutation_queue_bound / mutation_service_rate:
        Admission control: at most ``mutation_queue_bound`` writes may be
        queued; overflow is shed (writes shed before reads, and counted).
        Up to ``mutation_service_rate`` queued writes are applied per
        epoch.
    read_queue_bound:
        Reads are shed only past this (much larger) bound — under nominal
        load zero reads are ever dropped.
    fault_schedule:
        Optional global :class:`~repro.faults.FaultSchedule`; each epoch
        sees its window, so worker failures and drift-triggered migration
        compose in one run.
    slo_sampling:
        Sample the service registry into per-epoch
        :class:`~repro.telemetry.timeseries.MetricSample` records and
        evaluate SLO burn rates over them (``docs/slo.md``).  Sampling
        never enters :meth:`~repro.service.core.ServiceResult.timeline`
        — digests are identical with it on or off.  ``False`` restores
        the zero-overhead contract: no extra registry calls at all.
    slos:
        The objectives to evaluate; ``None`` means
        :func:`~repro.telemetry.slo.default_service_slos`.
    slo_degradation:
        Feed page alerts back into admission control: while any SLO
        pages, the next epoch's mutation queue bound is multiplied by
        ``degraded_queue_fraction``.  Default **off** — turning it on
        changes shed counts and therefore the digest.
    degraded_queue_fraction:
        The admission multiplier applied while paging (in ``(0, 1]``).
    """

    num_partitions: int = 8
    epochs: int = 12
    epoch_duration: float = 0.25
    clients_per_worker: int = 4
    seed: int = 7
    # Traffic.
    mutations_per_epoch: int = 400
    query_bindings_per_epoch: int = 50
    workload_skew: float = 0.6
    edge_add_fraction: float = 0.55
    edge_delete_fraction: float = 0.15
    vertex_add_fraction: float = 0.12
    vertex_remove_fraction: float = 0.05
    # Drift detection.
    drift_threshold: float | None = 0.02
    imbalance_weight: float = 0.25
    migration_cooldown_epochs: int = 1
    # Bounded migration.
    migration_budget: int = 300
    migration_batch_vertices: int = 64
    state_bytes_per_vertex: float = 512.0
    migration_bandwidth_bytes_per_second: float = 2.0e6
    migration_wait_seconds: float = 2.0e-3
    balance_slack: float = 1.1
    refine_passes: int = 4
    # Graceful degradation.
    mutation_queue_bound: int = 1000
    mutation_service_rate: int = 400
    read_queue_bound: int = 100_000
    # Fault composition.
    k_safety: int = 2
    fault_schedule: FaultSchedule | None = None
    # Observability (docs/slo.md).
    slo_sampling: bool = True
    slos: tuple | None = None
    slo_degradation: bool = False
    degraded_queue_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        check_finite_at_least("epoch_duration", self.epoch_duration, 0,
                              strict=True)
        if self.clients_per_worker < 1:
            raise ConfigurationError("clients_per_worker must be >= 1")
        if self.mutations_per_epoch < 0:
            raise ConfigurationError("mutations_per_epoch must be >= 0")
        if self.query_bindings_per_epoch < 1:
            raise ConfigurationError("query_bindings_per_epoch must be >= 1")
        check_finite_at_least("workload_skew", self.workload_skew, 0)
        fractions = (self.edge_add_fraction, self.edge_delete_fraction,
                     self.vertex_add_fraction, self.vertex_remove_fraction)
        if any(not 0.0 <= f <= 1.0 for f in fractions) or sum(fractions) > 1.0:
            raise ConfigurationError(
                "mutation mix fractions must lie in [0, 1] and sum to <= 1 "
                "(the remainder is vertex updates)")
        if self.drift_threshold is not None:
            check_finite_at_least("drift_threshold", self.drift_threshold, 0)
        check_finite_at_least("imbalance_weight", self.imbalance_weight, 0)
        if self.migration_budget < 0:
            raise ConfigurationError("migration_budget must be >= 0")
        if self.migration_batch_vertices < 1:
            raise ConfigurationError("migration_batch_vertices must be >= 1")
        check_finite_at_least("state_bytes_per_vertex",
                              self.state_bytes_per_vertex, 0, strict=True)
        check_finite_at_least("migration_bandwidth_bytes_per_second",
                              self.migration_bandwidth_bytes_per_second, 0,
                              strict=True)
        check_finite_at_least("migration_wait_seconds",
                              self.migration_wait_seconds, 0)
        if self.migration_cooldown_epochs < 0:
            raise ConfigurationError("migration_cooldown_epochs must be >= 0")
        check_finite_at_least("balance_slack", self.balance_slack, 1)
        if self.refine_passes < 1:
            raise ConfigurationError("refine_passes must be >= 1")
        if self.mutation_queue_bound < 0:
            raise ConfigurationError("mutation_queue_bound must be >= 0")
        if self.mutation_service_rate < 1:
            raise ConfigurationError("mutation_service_rate must be >= 1")
        if self.read_queue_bound < 1:
            raise ConfigurationError("read_queue_bound must be >= 1")
        if self.k_safety < 1:
            raise ConfigurationError("k_safety must be >= 1")
        if self.fault_schedule is not None:
            self.fault_schedule.check_workers(self.num_partitions)
        if self.slo_degradation and not self.slo_sampling:
            raise ConfigurationError(
                "slo_degradation needs slo_sampling=True — the hook is "
                "driven by the sampled burn rates")
        if not 0.0 < self.degraded_queue_fraction <= 1.0:
            raise ConfigurationError(
                "degraded_queue_fraction must lie in (0, 1]")
        if self.slos is not None and len(self.slos) == 0:
            raise ConfigurationError(
                "slos must be None (defaults) or a non-empty tuple")

    @property
    def update_fraction(self) -> float:
        """The vertex-update share (whatever the explicit mix leaves)."""
        return 1.0 - (self.edge_add_fraction + self.edge_delete_fraction
                      + self.vertex_add_fraction + self.vertex_remove_fraction)

    @property
    def migration_enabled(self) -> bool:
        """True when drift can ever trigger a repartitioning."""
        return self.drift_threshold is not None and self.migration_budget > 0
