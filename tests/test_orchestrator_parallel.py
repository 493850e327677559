"""Tests for the job DAG and serial/parallel scheduler equivalence."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import telemetry
from repro.errors import OrchestratorError
from repro.experiments.report import ExperimentReport, Table
from repro.orchestrator import (
    ArtifactCache,
    JobGraph,
    build_plan,
    report_digest,
    run_experiments,
)

#: A subset that exercises partitions (with a stream order and partitioner
#: parameters: ablation-fennel-gamma), bindings, analytics, simulations
#: and an active fault schedule (ablation-fault-tolerance) while staying
#: fast at the quick scale.
NAMES = ["table4", "figure7", "ablation-fault-tolerance",
         "ablation-fennel-gamma"]

#: The derived runs each experiment builds from an earlier result and so
#: computes inside its own job: the only artifacts the plan leaves out.
DERIVED = {
    "ablation-straggler": {"simulation": 4},
    "ablation-fault-tolerance": {"analytics": 4, "simulation": 3},
    "scale-sweep": {"ingest": 8},
}


@pytest.fixture
def metrics():
    registry = telemetry.MetricsRegistry()
    previous = telemetry.set_metrics(registry)
    yield registry
    telemetry.set_metrics(previous)


@pytest.fixture
def cache(tmp_path, metrics):
    return ArtifactCache(tmp_path / "cache", fingerprint="test-fp")


class TestPlan:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(OrchestratorError, match="figure99"):
            build_plan(["figure99"], "quick")

    def test_shared_partitions_deduplicated(self):
        plan = build_plan(["figure1", "figure3"], "quick")
        counts = plan.counts()
        # Both figures sweep the same twitter analytics runs; the DAG
        # holds each partition/analytics artifact once.
        single = build_plan(["figure1"], "quick").counts()
        assert counts["partition"] == single["partition"]
        assert counts["analytics"] == single["analytics"]
        assert counts["experiment"] == 2

    def test_topological_order_is_stage_stratified(self):
        plan = build_plan(NAMES, "quick")
        order = plan.topological_order()
        seen = set()
        for job in order:
            assert all(dep in seen for dep in job.deps), job.job_id
            seen.add(job.job_id)

    def test_every_experiment_has_a_job(self):
        from repro.experiments import EXPERIMENTS
        plan = build_plan(list(EXPERIMENTS), "quick")
        for name in EXPERIMENTS:
            assert f"experiment:{name}" in plan.jobs

    def test_plan_is_complete(self, quick_run):
        """Every artifact an experiment job reads is one its own
        declaration plans, except its derived runs, which it computes."""
        from repro.experiments import EXPERIMENTS

        problems = []
        for name in EXPERIMENTS:
            job_id = f"experiment:{name}"
            planned = set().union(*(
                quick_run.reads[dep]
                for dep in build_plan([name], "quick").jobs if dep != job_id))
            unplanned = dict(Counter(
                kind for kind, _ in quick_run.reads[job_id] - planned))
            expected = DERIVED.get(name, {})
            if unplanned != expected:
                problems.append(f"{name} reads unplanned artifacts "
                                f"{unplanned}, expected {expected}")
            if quick_run.computed[job_id] != expected:
                problems.append(f"{name} computes {quick_run.computed[job_id]}"
                                f", expected {expected}")
        assert not problems, "\n".join(problems)

    def test_missing_dependency_detected(self):
        graph = JobGraph()
        graph.add("experiment", {"name": "x"}, deps=["partition:nope"])
        with pytest.raises(OrchestratorError, match="unknown job"):
            graph.topological_order()


class TestReportDigest:
    def _report(self):
        report = ExperimentReport("x1", "Title")
        table = report.add_table(Table("T", ["A", "B"]))
        table.add_row(1, 2.5)
        report.add_note("note")
        report.data["values"] = {"a": [1.0, 2.0]}
        return report

    def test_equal_reports_equal_digests(self):
        assert report_digest(self._report()) == report_digest(self._report())

    def test_content_change_changes_digest(self):
        changed = self._report()
        changed.tables[0].rows[0][1] = 2.6
        assert report_digest(self._report()) != report_digest(changed)

    def test_provenance_excluded(self):
        stamped = self._report()
        stamped.stamp_provenance(wall_seconds=12.5, telemetry_spans=42)
        assert report_digest(self._report()) == report_digest(stamped)

    def test_numpy_payloads_hash_stably(self):
        import numpy as np
        a, b = self._report(), self._report()
        a.data["arr"] = np.arange(5, dtype=np.int64)
        b.data["arr"] = np.arange(5, dtype=np.int64)
        assert report_digest(a) == report_digest(b)
        b.data["arr"] = np.arange(5, dtype=np.float64)
        assert report_digest(a) != report_digest(b)


class TestSerialRuns:
    def test_cold_then_warm(self, tmp_path, metrics):
        from repro.orchestrator import scheduler
        cache = ArtifactCache(tmp_path / "cache", fingerprint="test-fp")
        cold = run_experiments(NAMES, scale="quick", jobs=1, cache=cache)
        assert cold.cached_reports == 0
        assert cold.executed["experiment"] == len(NAMES)
        assert set(cold.reports) == set(NAMES)

        # Simulate a fresh process: drop contexts and counters.
        scheduler.reset_process_state()
        registry = telemetry.set_metrics(telemetry.MetricsRegistry())
        try:
            warm = run_experiments(NAMES, scale="quick", jobs=1,
                                   cache=ArtifactCache(tmp_path / "cache",
                                                       fingerprint="test-fp"))
            fresh = telemetry.get_metrics()
            # The warm-run acceptance criterion: no jobs executed, no
            # substrate computation, everything a cache hit.
            assert warm.executed == {}
            assert warm.cached_reports == len(NAMES)
            computed = [n for n in fresh.names()
                        if n.startswith("orchestrator.computed.")]
            assert computed == []
            assert fresh.value("cache.hits") == len(NAMES)
            assert warm.digests == cold.digests
        finally:
            telemetry.set_metrics(registry)

    def test_interrupted_run_resumes(self, tmp_path, metrics):
        from repro.orchestrator import scheduler
        cache = ArtifactCache(tmp_path / "cache", fingerprint="test-fp")
        run_experiments(["table4"], scale="quick", jobs=1, cache=cache)

        scheduler.reset_process_state()
        registry = telemetry.set_metrics(telemetry.MetricsRegistry())
        try:
            result = run_experiments(["table4", "figure7"], scale="quick",
                                     jobs=1,
                                     cache=ArtifactCache(tmp_path / "cache",
                                                         fingerprint="test-fp"))
            assert result.cached_reports == 1
            # Only figure7's own jobs ran; table4's partitions were not
            # rebuilt (they are a subset of figure7's online partitions,
            # which themselves hit the disk cache where shared).
            assert result.executed["experiment"] == 1
            assert "experiment" in result.executed
        finally:
            telemetry.set_metrics(registry)

    def test_uncached_run(self, metrics):
        result = run_experiments(["table4"], scale="quick", jobs=1,
                                 cache=False)
        assert result.cache_stats is None
        assert result.reports["table4"].experiment_id == "table4"

    def test_corrupt_report_blob_recomputed(self, tmp_path, metrics):
        cache = ArtifactCache(tmp_path / "cache", fingerprint="test-fp")
        cold = run_experiments(["table4"], scale="quick", jobs=1, cache=cache)
        key = cache.key("report", {"experiment": "table4", "scale": "quick"})
        cache._blob_path(key).write_bytes(b"garbage")
        again = run_experiments(["table4"], scale="quick", jobs=1,
                                cache=cache)
        assert again.digests == cold.digests


class TestParallelEquivalence:
    def test_jobs4_matches_jobs1(self, tmp_path, metrics):
        serial = run_experiments(
            NAMES, scale="quick", jobs=1,
            cache=ArtifactCache(tmp_path / "serial", fingerprint="test-fp"))
        parallel = run_experiments(
            NAMES, scale="quick", jobs=4,
            cache=ArtifactCache(tmp_path / "parallel", fingerprint="test-fp"))
        assert parallel.digests == serial.digests
        for name in NAMES:
            assert (parallel.reports[name].render()
                    == serial.reports[name].render())

    def test_parallel_warm_reuses_serial_cache(self, tmp_path, metrics):
        from repro.orchestrator import scheduler
        cache_dir = tmp_path / "shared"
        run_experiments(NAMES, scale="quick", jobs=1,
                        cache=ArtifactCache(cache_dir, fingerprint="test-fp"))
        scheduler.reset_process_state()
        warm = run_experiments(NAMES, scale="quick", jobs=4,
                               cache=ArtifactCache(cache_dir,
                                                   fingerprint="test-fp"))
        assert warm.executed == {}
        assert warm.cached_reports == len(NAMES)

    def test_progress_callback_sees_every_job(self, tmp_path, metrics):
        seen = []
        result = run_experiments(
            ["table4"], scale="quick", jobs=2,
            cache=ArtifactCache(tmp_path / "cache", fingerprint="test-fp"),
            progress=lambda done, total, job_id: seen.append((done, total)))
        executed = sum(result.executed.values())
        assert len(seen) == executed
        assert seen[-1] == (executed, executed)
