"""Named counters, gauges and histograms behind one registry.

Before this module, every substrate grew its own ad-hoc counter fields
(``timeouts``/``retries``/``dropped_requests`` in the database simulator,
``checkpoint_seconds_total`` on the analytics run).  The registry gives
those numbers names in one flat namespace (``db.timeouts``,
``gas.checkpoint_seconds_total``), so reports, benchmarks and tests read
them uniformly; the old attribute spellings survive as properties on the
result objects.

Histograms summarise into the same
:class:`~repro.metrics.runtime.DistributionSummary` the paper's figures
use, so a registry snapshot speaks the repo's existing vocabulary.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.metrics.runtime import DistributionSummary, summarize

#: Every metric name the repo emits, in one place — the export schema.
#: :class:`MetricsRegistry` refuses to create a metric whose name is not
#: covered here, and the test suite checks that a quick run of every
#: experiment creates every entry.  Entries ending in ``.*`` cover
#: dynamic families (the orchestrator's cache outcome counters).  Keep
#: the tuple sorted, so diffs against the schema stay one line.
METRIC_NAMES = (
    "cache.*",
    "db.migration.busy_seconds",
    "db.migration.waits",
    "db.network_bytes",
    "db.queries.completed",
    "db.queries.failed",
    "db.query.latency_seconds",
    "db.reads.remote",
    "db.reads.total",
    "db.requests.dropped",
    "db.retries",
    "db.timeouts",
    "db.worker.busy_seconds",
    "db.worker.vertices_read",
    "gas.checkpoint_seconds_total",
    "gas.checkpoints",
    "gas.gather_messages",
    "gas.machine.compute_seconds",
    "gas.mirror_update_messages",
    "gas.network_bytes",
    "gas.recoveries",
    "gas.reexecuted_supersteps",
    "gas.supersteps",
    "ingest.edges",
    "ingest.peak_bytes",
    "ingest.spilled_edges",
    "ingest.sync_rounds",
    "orchestrator.computed.*",
    "orchestrator.job.wall_seconds",
    "service.epoch.applied_mutations",
    "service.epoch.completed_queries",
    "service.epoch.drift",
    "service.epoch.edge_cut",
    "service.epoch.failed_queries",
    "service.epoch.imbalance",
    "service.epoch.mean_latency_ms",
    "service.epoch.migration_waits",
    "service.epoch.num_edges",
    "service.epoch.num_vertices",
    "service.epoch.offered_mutations",
    "service.epoch.p99_latency_ms",
    "service.epoch.pending_mutations",
    "service.epoch.retries",
    "service.epoch.shed_reads",
    "service.epoch.shed_writes",
    "service.epoch.timeouts",
    "service.migration.bytes",
    "service.migration.vertices",
    "service.migrations",
    "service.mutations.applied",
    "service.queries.completed",
    "service.queries.failed",
    "service.shed.reads",
    "service.shed.writes",
)


def registered_metric_name(name: str) -> bool:
    """True when *name* is covered by :data:`METRIC_NAMES` (wildcards
    match whole dotted prefixes: ``cache.*`` covers ``cache.hit.x``)."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(entry[:-1])
               for entry in METRIC_NAMES if entry.endswith(".*"))


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value!r})"


class Gauge:
    """A named value that can move both ways (e.g. partitioner state size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value!r})"


class Histogram:
    """A named sample collection summarised as a DistributionSummary."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def observe_many(self, values) -> None:
        self._values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def summary(self) -> DistributionSummary:
        """Five-number + mean + p95/p99 summary (the Fig. 4/7/15 shape)."""
        return summarize(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Names are dotted paths (``db.timeouts``, ``gas.gather_messages``)
    registered in :data:`METRIC_NAMES`; creating an unregistered name
    raises :class:`~repro.errors.ConfigurationError`.  A name belongs to
    exactly one metric kind — asking for a counter under an existing
    histogram name raises, catching wiring mistakes early.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            if not registered_metric_name(name):
                raise ConfigurationError(
                    f"metric {name!r} is not registered in METRIC_NAMES "
                    f"(repro/telemetry/metrics.py)")
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (*default* when absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use summary()")
        return metric.value

    def summary(self, name: str) -> DistributionSummary:
        """Summary of histogram *name* (empty summary when absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            return summarize([])
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is not a histogram")
        return metric.summary()

    def snapshot(self) -> dict:
        """JSON-ready snapshot: scalars flat, histograms summarised."""
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                summary = metric.summary()
                histograms[name] = {
                    "count": metric.count,
                    "min": summary.minimum, "p25": summary.p25,
                    "p50": summary.p50,
                    "median": summary.median, "p75": summary.p75,
                    "p95": summary.p95, "p99": summary.p99,
                    "max": summary.maximum, "mean": summary.mean,
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"
