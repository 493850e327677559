"""The observability layer: sampling, SLO burn rates, canonical exports.

Three contracts under test:

1. **Zero overhead when disabled.**  A disabled sampler makes zero
   registry calls, and a service run with ``slo_sampling=False`` has the
   same timeline digest as one with it on — observability never touches
   the simulation.
2. **Burn-rate math and alert ordering.**  The multi-window construction
   pages only when both windows corroborate, tickets on the slow window
   alone, resolves when the burn subsides, and consumes budget at the
   documented rate — all on hand-built sample series with known answers.
3. **Byte-identical exports.**  Two same-seed service runs — under an
   active fault schedule *and* a triggered migration — produce identical
   OpenMetrics text, JSONL series and alert timelines.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import ldbc_like
from repro.service import PartitionedGraphService, ServiceConfig
from repro.telemetry import (
    METRIC_NAMES,
    MetricsRegistry,
    MetricSample,
    Slo,
    SloEvaluator,
    TimeSeriesSampler,
    default_service_slos,
    evaluate_slos,
    registered_metric_name,
    samples_to_jsonl,
    to_openmetrics,
)
from repro.telemetry.export import format_value, openmetrics_name

#: Mirror of test_service.FIRING_CONFIG: drift fires within 6 epochs.
FIRING_CONFIG = ServiceConfig(
    num_partitions=4,
    epochs=6,
    epoch_duration=0.1,
    seed=11,
    mutations_per_epoch=300,
    query_bindings_per_epoch=24,
    drift_threshold=0.004,
    migration_cooldown_epochs=0,
    migration_budget=120,
    migration_batch_vertices=32,
    mutation_queue_bound=600,
    mutation_service_rate=300,
)


@pytest.fixture(scope="module")
def base_graph():
    return ldbc_like(num_vertices=800, avg_degree=10.0, seed=11)


def _sample(index, *, time=None, counters=None, gauges=None,
            histograms=None, deltas=None):
    counters = counters or {}
    return MetricSample(
        index=index, time=float(index) if time is None else time,
        counters=counters,
        deltas=dict(counters) if deltas is None else deltas,
        gauges=gauges or {}, histograms=histograms or {})


# ----------------------------------------------------------------------
# TimeSeriesSampler
# ----------------------------------------------------------------------
class TestSampler:
    def test_samples_carry_counters_deltas_gauges_quantiles(self):
        registry = MetricsRegistry()
        sampler = TimeSeriesSampler(registry)
        registry.counter("db.timeouts").inc(3)
        registry.gauge("service.epoch.drift").set(0.25)
        registry.histogram("db.query.latency_seconds").observe_many(
            [0.1, 0.2, 0.3])
        sampler.sample(1.0)
        registry.counter("db.timeouts").inc(2)
        sampler.sample(2.0, index=7)

        first, second = sampler.samples
        assert first.value("db.timeouts") == 3
        assert first.delta("db.timeouts") == 3
        assert second.delta("db.timeouts") == 2
        assert second.value("db.timeouts") == 5
        assert second.index == 7 and first.index == 0
        assert first.value("service.epoch.drift") == 0.25
        assert first.quantile("db.query.latency_seconds", "p50") == \
            pytest.approx(0.2)
        assert sampler.series("db.timeouts") == [3.0, 5.0]
        assert sampler.delta_series("db.timeouts") == [3.0, 2.0]
        assert sampler.times() == [1.0, 2.0]
        assert "service.epoch.drift" in sampler.names()

    def test_samples_are_immutable(self):
        registry = MetricsRegistry()
        registry.counter("db.timeouts").inc()
        sample = TimeSeriesSampler(registry).sample(0.0)
        with pytest.raises(TypeError):
            sample.counters["db.timeouts"] = 99.0

    def test_out_of_order_time_rejected(self):
        sampler = TimeSeriesSampler(MetricsRegistry())
        sampler.sample(2.0)
        with pytest.raises(ConfigurationError, match="time order"):
            sampler.sample(1.0)

    def test_disabled_sampler_makes_zero_registry_calls(self):
        calls = []

        class CountingRegistry(MetricsRegistry):
            def snapshot(self):
                calls.append("snapshot")
                return super().snapshot()

        sampler = TimeSeriesSampler(CountingRegistry(), enabled=False)
        assert sampler.sample(0.0) is None
        assert sampler.sample(1.0) is None
        assert calls == []
        assert sampler.samples == []


# ----------------------------------------------------------------------
# SLO burn-rate math (hand-built series with known answers)
# ----------------------------------------------------------------------
def _latency_slo(**overrides):
    settings = dict(name="latency", description="p99 under bound",
                    objective=0.9, indicator="threshold",
                    metric="lat", bound=100.0, fast_window=1,
                    slow_window=3, page_burn=8.0, ticket_burn=2.0)
    settings.update(overrides)
    return Slo(**settings)


class TestSloMath:
    def test_threshold_indicator_is_all_or_nothing(self):
        slo = _latency_slo()
        assert slo.bad_fraction(_sample(0, gauges={"lat": 150.0})) == 1.0
        assert slo.bad_fraction(_sample(1, gauges={"lat": 100.0})) == 0.0
        assert slo.budget == pytest.approx(0.1)

    def test_ratio_indicator_uses_deltas_and_summed_total(self):
        slo = Slo(name="avail", description="", objective=0.99,
                  indicator="ratio", metric="failed",
                  total_metric="done+failed")
        sample = _sample(0, counters={"failed": 5.0, "done": 95.0})
        assert slo.bad_fraction(sample) == pytest.approx(0.05)
        # Zero denominator means "no events", which is a good epoch.
        assert slo.bad_fraction(_sample(1, counters={}, deltas={})) == 0.0

    def test_histogram_quantile_address(self):
        slo = _latency_slo(metric="lat_hist:p99")
        sample = _sample(0, histograms={"lat_hist": {"p99": 150.0}})
        assert slo.bad_fraction(sample) == 1.0

    def test_budget_consumption_rate(self):
        # Budget 0.1 over a 10-epoch horizon tolerates exactly one bad
        # epoch: one consumes 100%, two overspend to 200%.
        slo = _latency_slo()

        def consumed(bad_epochs):
            samples = [
                _sample(i,
                        gauges={"lat": 150.0 if i in bad_epochs else 50.0})
                for i in range(10)]
            return evaluate_slos(samples, [slo],
                                 horizon=10).statuses[0]

        assert consumed({3}).consumed == pytest.approx(1.0)
        over = consumed({3, 7})
        assert over.consumed == pytest.approx(2.0)
        assert over.breached

    def test_page_requires_both_windows(self):
        # One isolated bad epoch: the fast window (2 epochs) averages
        # the blip down to burn 5 < page_burn 8 — a blip cannot page,
        # but the same series sustained over both windows does.
        slo = _latency_slo(fast_window=2, slow_window=6, page_burn=8.0)
        blip = [_sample(i, gauges={"lat": 150.0 if i == 8 else 50.0})
                for i in range(12)]
        assert evaluate_slos(blip, [slo], horizon=12).statuses[0].pages == 0
        sustained = [
            _sample(i, gauges={"lat": 150.0 if i >= 6 else 50.0})
            for i in range(12)]
        assert evaluate_slos(sustained, [slo],
                             horizon=12).statuses[0].pages == 1

    def test_sustained_burn_pages_then_resolves(self):
        slo = _latency_slo(fast_window=1, slow_window=3, page_burn=8.0)
        lat = [50.0] * 2 + [150.0] * 3 + [50.0] * 5
        samples = [_sample(i, gauges={"lat": v}) for i, v in enumerate(lat)]
        evaluator = evaluate_slos(samples, [slo], horizon=len(lat))
        events = [(a.severity, a.kind, a.epoch)
                  for a in evaluator.statuses[0].alerts]
        assert ("page", "fire", 2) in events
        fire = events.index(("page", "fire", 2))
        resolves = [e for e in events if e[:2] == ("page", "resolve")]
        assert resolves and events.index(resolves[0]) > fire

    def test_slow_leak_raises_ticket_without_page(self):
        # Every 3rd epoch bad (starting at 2 so startup windows never
        # see consecutive badness): slow-window burn ~3.3 >= ticket_burn
        # 2 but far below page_burn 8 — ticket fires, page never does.
        slo = _latency_slo(fast_window=2, slow_window=6)
        samples = [
            _sample(i, gauges={"lat": 150.0 if i % 3 == 2 else 50.0})
            for i in range(12)]
        evaluator = evaluate_slos(samples, [slo], horizon=12)
        status = evaluator.statuses[0]
        assert status.tickets >= 1
        assert status.pages == 0

    def test_alert_order_is_declaration_order_page_first(self):
        # Two SLOs on the same always-bad series: alerts come out in
        # declaration order, and page precedes ticket within one SLO.
        slos = [_latency_slo(name="a"), _latency_slo(name="b")]
        samples = [_sample(i, gauges={"lat": 150.0}) for i in range(6)]
        evaluator = evaluate_slos(samples, slos, horizon=6)
        first_epoch = [a for a in evaluator.alerts
                       if a.epoch == evaluator.alerts[0].epoch]
        assert [(a.slo, a.severity) for a in first_epoch] == \
            [("a", "page"), ("a", "ticket"), ("b", "page"), ("b", "ticket")]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _latency_slo(objective=1.0)
        with pytest.raises(ConfigurationError):
            _latency_slo(indicator="ratio", total_metric="")
        with pytest.raises(ConfigurationError):
            _latency_slo(fast_window=4, slow_window=2)
        with pytest.raises(ConfigurationError):
            SloEvaluator([_latency_slo(), _latency_slo()])
        with pytest.raises(ConfigurationError):
            SloEvaluator([_latency_slo()], horizon=0)

    def test_default_service_slos_read_registered_metrics(self):
        for slo in default_service_slos():
            for name in [slo.metric] + slo.total_metric.split("+"):
                name = name.strip()
                if not name:
                    continue
                assert registered_metric_name(name.split(":")[0]), name


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
class TestExport:
    def test_openmetrics_grammar(self):
        sample = _sample(
            0, time=2.5,
            counters={"db.timeouts": 3.0},
            gauges={"service.epoch.drift": 0.25},
            histograms={"db.query.latency_seconds":
                        {"count": 2.0, "min": 0.1, "p50": 0.2,
                         "median": 0.2, "p95": 0.3, "p99": 0.3,
                         "max": 0.3, "mean": 0.2}})
        text = to_openmetrics(sample)
        assert "# TYPE repro_db_timeouts counter" in text
        assert "repro_db_timeouts_total 3 2.5" in text
        assert "repro_service_epoch_drift 0.25 2.5" in text
        assert 'repro_db_query_latency_seconds{quantile="0.5"} 0.2' in text
        # p50 and median share quantile 0.5 — emitted exactly once.
        assert text.count('quantile="0.5"') == 1
        assert 'quantile="0"' in text and 'quantile="1"' in text
        assert "repro_db_query_latency_seconds_count 2 2.5" in text
        assert "repro_db_query_latency_seconds_sum 0.4 2.5" in text
        assert text.endswith("# EOF\n")

    def test_name_mapping_and_values(self):
        assert openmetrics_name("service.epoch.p99_latency_ms") == \
            "repro_service_epoch_p99_latency_ms"
        with pytest.raises(ValueError):
            openmetrics_name("bad name!")
        assert format_value(3.0) == "3"
        assert format_value(0.1) == "0.1"
        assert format_value(1e16) == "1e+16"

    def test_jsonl_is_canonical(self):
        samples = [_sample(0, counters={"db.timeouts": 1.0}),
                   _sample(1, counters={"db.timeouts": 2.0})]
        text = samples_to_jsonl(samples)
        lines = text.splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["counters"] == {"db.timeouts": 1.0}
        # Canonical: sorted keys, no whitespace.
        assert lines[0] == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))


# ----------------------------------------------------------------------
# Service integration: digests, byte-identity, degradation hook
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_sampling_never_changes_the_timeline(self, base_graph):
        on = PartitionedGraphService(base_graph, config=FIRING_CONFIG).run()
        off_config = dataclasses.replace(FIRING_CONFIG, slo_sampling=False)
        off = PartitionedGraphService(base_graph, config=off_config).run()
        assert on.digest() == off.digest()
        assert len(on.samples) == FIRING_CONFIG.epochs
        assert off.samples == [] and off.slo_status is None

    def test_exports_byte_identical_under_faults_and_migration(
            self, base_graph):
        from repro.faults import FaultSchedule, SlowdownInterval

        schedule = FaultSchedule(
            slowdowns=(SlowdownInterval(worker=0, start=0.0, end=0.3,
                                        factor=0.5),),
            seed=5)
        config = dataclasses.replace(FIRING_CONFIG,
                                     fault_schedule=schedule)
        first = PartitionedGraphService(base_graph, config=config).run()
        second = PartitionedGraphService(base_graph, config=config).run()
        assert first.migrations, "scenario must trigger a migration"
        assert to_openmetrics(first.samples[-1]) == \
            to_openmetrics(second.samples[-1])
        assert samples_to_jsonl(first.samples) == \
            samples_to_jsonl(second.samples)
        assert [a.to_dict() for a in first.alerts] == \
            [a.to_dict() for a in second.alerts]
        assert first.observability_digest() == second.observability_digest()

    def test_every_sampled_metric_is_registered(self, base_graph):
        result = PartitionedGraphService(base_graph,
                                         config=FIRING_CONFIG).run()
        final = result.samples[-1]
        for name in (list(final.counters) + list(final.gauges)
                     + list(final.histograms)):
            assert registered_metric_name(name), name

    def test_degradation_hook_tightens_admission(self, base_graph):
        # Starve the apply rate so the backlog SLO pages, then compare
        # the same scenario with and without the feedback hook: the hook
        # must shed more writes and keep a smaller backlog.
        starved = dataclasses.replace(
            FIRING_CONFIG, epochs=8, mutation_service_rate=60,
            mutation_queue_bound=400,
            slos=default_service_slos(backlog_bound=50.0))
        hooked = dataclasses.replace(starved, slo_degradation=True,
                                     degraded_queue_fraction=0.25)
        plain_result = PartitionedGraphService(base_graph,
                                               config=starved).run()
        hook_result = PartitionedGraphService(base_graph,
                                              config=hooked).run()
        assert any(a.severity == "page" for a in plain_result.alerts)
        assert hook_result.shed_writes > plain_result.shed_writes
        assert hook_result.epochs[-1].pending_mutations <= \
            plain_result.epochs[-1].pending_mutations

    def test_degradation_requires_sampling(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(slo_sampling=False, slo_degradation=True)
        with pytest.raises(ConfigurationError):
            ServiceConfig(degraded_queue_fraction=0.0)


# ----------------------------------------------------------------------
# Substrate sampling: DES ticks and GAS supersteps
# ----------------------------------------------------------------------
class TestSubstrateSampling:
    def test_des_run_emits_interval_ticks(self, base_graph):
        from repro.database import WorkloadGenerator, simulate_workload
        from repro.partitioning import make_partitioner

        partition = make_partitioner("ldg", seed=3).partition(base_graph, 4)
        bindings = WorkloadGenerator(base_graph, seed=3).bindings(
            "one_hop", 60)
        sampler = TimeSeriesSampler(MetricsRegistry())
        result = simulate_workload(base_graph, partition, bindings,
                                   duration=2.0, sampler=sampler)
        assert result is not None
        assert sampler.times()[-1] == 2.0
        assert len(sampler.samples) >= 2
        assert sampler.times() == sorted(sampler.times())
        # Only the horizon sample carries the end-of-run histograms.
        assert sampler.samples[-1].histograms

    def test_gas_run_samples_each_superstep(self, base_graph):
        from repro.analytics import PageRank, run_workload
        from repro.partitioning import make_partitioner

        partition = make_partitioner("ldg", seed=3).partition(base_graph, 4)
        sampler = TimeSeriesSampler(MetricsRegistry())
        run_workload(base_graph, partition, PageRank(num_iterations=4),
                     sampler=sampler)
        assert len(sampler.samples) >= 2
        assert sampler.series("gas.supersteps")[-1] >= 2


# ----------------------------------------------------------------------
# The health dashboard CLI
# ----------------------------------------------------------------------
#: Small fast scenario shared by the CLI smoke tests.
_HEALTH_ARGS = ["--vertices", "600", "--epochs", "4",
                "--mutations-per-epoch", "200", "--bindings-per-epoch",
                "16", "--service-rate", "200", "--queue-bound", "400",
                "--migration-budget", "100"]


class TestHealthCli:
    def test_dashboard_renders(self, capsys):
        from repro.tools.health_cli import main

        assert main(_HEALTH_ARGS) == 0
        out = capsys.readouterr().out
        assert "service health — 4 epochs" in out
        assert "p99 latency (ms)" in out
        assert "budget used" in out
        assert "query-latency-p99" in out
        assert "timeline digest:" in out
        assert "observability digest:" in out

    def test_artifacts_written_and_byte_stable(self, tmp_path, capsys):
        from repro.tools.health_cli import main

        first, second = tmp_path / "a", tmp_path / "b"
        assert main(_HEALTH_ARGS + ["--out", str(first)]) == 0
        assert main(_HEALTH_ARGS + ["--out", str(second)]) == 0
        capsys.readouterr()
        names = ["metrics.openmetrics", "samples.jsonl", "alerts.jsonl",
                 "health.json"]
        for name in names:
            assert (first / name).read_bytes() == \
                (second / name).read_bytes(), name
        assert (first / "metrics.openmetrics").read_text().endswith(
            "# EOF\n")
        payload = json.loads((first / "health.json").read_text())
        assert payload["schema"] == "repro.health/1"
        assert len(payload["observability"]["samples"]) == 4

    def test_json_to_stdout_is_pure(self, capsys):
        from repro.tools.health_cli import main

        assert main(_HEALTH_ARGS + ["--json", "-"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout must parse as JSON
        assert payload["timeline_digest"]
        assert "service health" in captured.err  # dashboard on stderr

    def test_bad_config_fails_cleanly(self, capsys):
        from repro.tools.health_cli import main

        assert main(["--epochs", "0"]) == 2
        assert "health:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The metric-name registry itself
# ----------------------------------------------------------------------
class TestMetricNameRegistry:
    def test_sorted_and_wildcardable(self):
        assert list(METRIC_NAMES) == sorted(METRIC_NAMES)
        assert registered_metric_name("cache.hits")
        assert registered_metric_name("orchestrator.computed.partition")
        assert registered_metric_name("db.timeouts")
        assert not registered_metric_name("made.up.metric")

    def test_every_entry_is_created_by_a_quick_run(self, quick_run):
        """Each entry names a metric the code really creates: a quick run
        of every experiment asks a registry for it (a ``.*`` entry, for a
        name under its prefix).  The other direction needs no test, as
        a registry refuses to create an unregistered name."""
        created = quick_run.metric_names
        never_created = [
            entry for entry in METRIC_NAMES
            if not (any(name.startswith(entry[:-1]) for name in created)
                    if entry.endswith(".*") else entry in created)]
        assert never_created == []
