"""repro.service — the online partitioning service (ROADMAP item #1).

A long-lived :class:`PartitionedGraphService` consumes an interleaved,
seed-deterministic stream of mutations and queries, places new arrivals
incrementally, watches partition quality drift over simulated time, and
— past a configurable threshold — repartitions *under a migration
budget*, charging the state transfer into the query simulation so the
cut improvement is bought at an honest latency price.  Robustness is
the design goal: bounded queues shed writes before reads, migration
ships in rate-limited batches that never stall the query path, queries
racing a move pay a bounded retry wait, and the global
:class:`~repro.faults.FaultSchedule` composes with all of it.

See ``docs/online_service.md`` for the drift metrics, budget semantics
and backpressure policy; ``python -m repro serve-sim`` runs a scenario
from the command line.
"""

from repro.service.config import ServiceConfig
from repro.service.core import EpochRecord, PartitionedGraphService, ServiceResult
from repro.service.drift import DriftMonitor, DriftSample, quality_snapshot
from repro.service.migration import (
    MigrationBatch,
    MigrationEvent,
    MigrationPlan,
    plan_migration,
)
from repro.service.traffic import EpochTraffic, Mutation, TrafficModel

#: Every telemetry span name the service emits.  The test suite traces
#: a ``serve-sim --epochs 10`` run and checks that its ``service.*``
#: span names are exactly these.
SPAN_NAMES = (
    "service.run",
    "service.epoch",
    "service.mutation",
    "service.migration",
    "service.shed",
)

__all__ = [
    "ServiceConfig",
    "PartitionedGraphService",
    "ServiceResult",
    "EpochRecord",
    "DriftMonitor",
    "DriftSample",
    "quality_snapshot",
    "MigrationBatch",
    "MigrationEvent",
    "MigrationPlan",
    "plan_migration",
    "EpochTraffic",
    "Mutation",
    "TrafficModel",
    "SPAN_NAMES",
]
