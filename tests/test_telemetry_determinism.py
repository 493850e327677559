"""Same seed, same trace — byte for byte, on both substrates.

Traces carry only simulated time (cost-model clocks, event-loop times,
stream positions), sequential span ids and completion-order export, so a
recorded run is as reproducible as the run itself.  These tests assert
the strongest version of that claim: two identical runs serialise to
**identical JSONL bytes**, including under a non-empty FaultSchedule.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.analytics import PageRank, run_workload
from repro.database import WorkloadGenerator, simulate_workload
from repro.faults import FaultSchedule
from repro.graph.generators import ldbc_like
from repro.partitioning import (
    HeterogeneousLdgPartitioner,
    RestreamingLdgPartitioner,
    make_partitioner,
)


@pytest.fixture(scope="module")
def setup():
    graph = ldbc_like(num_vertices=800, avg_degree=10, seed=31)
    partition = make_partitioner("ldg").partition(graph, 4)
    bindings = WorkloadGenerator(graph, skew=0.5, seed=3).bindings(
        "one_hop", 150)
    return graph, partition, bindings


def _record(fn) -> str:
    with telemetry.recording(decision_sample_every=16) as tracer:
        fn()
    return tracer.to_jsonl()


class TestAnalyticsTraces:
    def test_same_seed_byte_identical(self, setup):
        graph, partition, _ = setup

        def run():
            run_workload(graph, partition, PageRank(num_iterations=4))

        a, b = _record(run), _record(run)
        assert a == b
        names = {s.name for s in telemetry.read_jsonl(a)}
        assert {"gas.run", "gas.superstep", "gas.compute",
                "gas.sync"} <= names

    def test_fault_run_byte_identical(self, setup):
        graph, partition, _ = setup
        healthy = run_workload(graph, partition, PageRank(num_iterations=6))
        schedule = FaultSchedule.single_crash(
            1, 0.5 * healthy.execution_seconds,
            0.1 * healthy.execution_seconds, seed=5)

        def run():
            run_workload(graph, partition, PageRank(num_iterations=6),
                         fault_schedule=schedule, checkpoint_interval=2)

        a, b = _record(run), _record(run)
        assert a == b
        names = {s.name for s in telemetry.read_jsonl(a)}
        assert "gas.recovery" in names
        assert "gas.checkpoint" in names


class TestDatabaseTraces:
    def test_same_seed_byte_identical(self, setup):
        graph, partition, bindings = setup

        def run():
            simulate_workload(graph, partition, bindings, duration=0.3)

        a, b = _record(run), _record(run)
        assert a == b
        names = {s.name for s in telemetry.read_jsonl(a)}
        assert {"db.run", "db.query", "db.route", "db.hop",
                "db.request"} <= names

    def test_fault_run_byte_identical(self, setup):
        graph, partition, bindings = setup
        schedule = FaultSchedule.single_crash(1, 0.05, 0.1, seed=9)

        def run():
            simulate_workload(graph, partition, bindings, duration=0.3,
                              fault_schedule=schedule)

        a, b = _record(run), _record(run)
        assert a == b
        spans = telemetry.read_jsonl(a)
        assert spans, "fault run must produce a non-empty trace"
        names = {s.name for s in spans}
        assert "db.request.lost" in names or "db.retry" in names


class TestPartitionerTraces:
    @pytest.mark.parametrize("algorithm", ["ldg", "fennel", "hdrf"])
    def test_decision_spans_byte_identical(self, setup, algorithm):
        graph, _, _ = setup

        def run():
            make_partitioner(algorithm, seed=7).partition(graph, 4, seed=7)

        a, b = _record(run), _record(run)
        assert a == b
        decisions = [s for s in telemetry.read_jsonl(a)
                     if s.name == "sgp.decision"]
        assert decisions, f"{algorithm} must emit sampled decision spans"
        for span in decisions:
            assert span.attrs["algorithm"] == algorithm
            assert "chosen" in span.attrs
            assert "scores" in span.attrs
            assert span.attrs["state_size"] >= 0

    @pytest.mark.parametrize("build,passes", [
        (lambda: RestreamingLdgPartitioner(num_passes=2, seed=7), 2),
        (lambda: HeterogeneousLdgPartitioner([1, 2, 3, 4], seed=7), 1),
    ], ids=["re-ldg", "ldg-het"])
    def test_variant_decision_spans_byte_identical(self, setup, build,
                                                   passes):
        """Restreamed and capacity-aware LDG trace through the same
        driver; the decision index keeps counting across passes."""
        graph, _, _ = setup

        def run():
            build().partition(graph, 4, seed=7)

        a, b = _record(run), _record(run)
        assert a == b
        decisions = [s for s in telemetry.read_jsonl(a)
                     if s.name == "sgp.decision"]
        assert {s.attrs["algorithm"] for s in decisions} == {build().name}
        assert [s.start for s in decisions] == [
            float(i) for i in range(0, passes * graph.num_vertices, 16)]

    def test_sampling_knob_controls_density(self, setup):
        graph, _, _ = setup

        def count(every: int) -> int:
            with telemetry.recording(decision_sample_every=every) as tracer:
                make_partitioner("ldg", seed=7).partition(graph, 4, seed=7)
            return sum(1 for s in tracer.spans if s.name == "sgp.decision")

        dense, sparse = count(8), count(64)
        assert dense > sparse
        assert dense == pytest.approx(8 * sparse, rel=0.05)


class TestMixedRunTrace:
    def test_full_pipeline_byte_identical(self, setup):
        """Partitioning + analytics + database in one recording session."""
        graph, partition, bindings = setup
        schedule = FaultSchedule.single_crash(1, 0.05, 0.1, seed=9)

        def run():
            make_partitioner("ldg", seed=7).partition(graph, 4, seed=7)
            run_workload(graph, partition, PageRank(num_iterations=3))
            simulate_workload(graph, partition, bindings, duration=0.2,
                              fault_schedule=schedule)

        a, b = _record(run), _record(run)
        assert a == b
