"""Tests for the sharded parallel ingest driver (`repro.ingest.shard`).

The determinism contracts (``docs/scaling.md``): single-shard runs
anchor to the plain partitioners, worker count never changes bytes,
chunk geometry never changes bytes, and the spec-driven pipeline
returns byte-identical summaries run-to-run.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError, IngestError
from repro.graph.generators.rmat import rmat
from repro.ingest import (
    EdgeStreamFile,
    ShardConfig,
    file_partition_quality,
    run_ingest_spec,
    shard_segments,
    sharded_partition,
    spill_graph_edges,
)
from repro.partitioning.vertex_cut.dbh import DbhPartitioner
from repro.partitioning.vertex_cut.hdrf import HdrfPartitioner
from repro.rng import splitmix64

K = 8
SEED = 5


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    """One spilled R-MAT graph shared by the module: (graph, path)."""
    graph = rmat(9, 8.0, seed=3)
    path = spill_graph_edges(
        graph, tmp_path_factory.mktemp("shard") / "g.redg", chunk_edges=997)
    return graph, path


def config(**overrides) -> ShardConfig:
    fields = {"algorithm": "hdrf", "num_partitions": K, "seed": SEED,
              "num_shards": 4, "sync_interval": 500}
    fields.update(overrides)
    return ShardConfig(**fields)


class TestShardSegments:
    def test_covers_stream_contiguously(self):
        segments = shard_segments(10, 3)
        assert segments == [(0, 4), (4, 7), (7, 10)]

    def test_near_equal(self):
        lengths = [stop - start for start, stop in shard_segments(103, 8)]
        assert max(lengths) - min(lengths) <= 1
        assert sum(lengths) == 103

    def test_more_shards_than_edges(self):
        segments = shard_segments(2, 4)
        assert segments == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_invalid_shard_count(self):
        with pytest.raises(IngestError):
            shard_segments(10, 0)


class TestShardConfig:
    @pytest.mark.parametrize("overrides", [
        {"algorithm": "metis"}, {"state": "fuzzy"}, {"num_partitions": 0},
        {"num_shards": 0}, {"sync_interval": 0}, {"workers": 0},
        {"chunk_edges": 0},
    ])
    def test_validation(self, overrides):
        with pytest.raises(IngestError):
            config(**overrides)

    @pytest.mark.parametrize("field,value", [
        ("balance_weight", -1.0), ("balance_weight", 0.0),
        ("balance_weight", float("nan")), ("balance_weight", float("inf")),
        ("balance_slack", 0.25), ("balance_slack", float("nan")),
        ("sketch_width", 0), ("sketch_depth", 0),
        ("sketch_depth", float("inf")),
    ])
    def test_core_parameters_checked_at_construction(self, field, value):
        """The sharded path builds its cores directly; a bad HDRF or
        sketch parameter must still fail here, naming the field, not
        deep inside the loop (or not at all)."""
        with pytest.raises(ConfigurationError, match=field):
            config(**{field: value})

    def test_to_fields_excludes_workers(self):
        fields = config(workers=4).to_fields()
        assert "workers" not in fields
        assert fields["algorithm"] == "hdrf"
        assert fields["num_shards"] == 4
        # Identical except for workers → identical cache identity.
        assert fields == config(workers=1).to_fields()


class TestSingleShardAnchors:
    """One shard, one sync round ≡ the plain streaming partitioners."""

    def test_hdrf_matches_plain_partitioner_with_derived_seed(self, spilled):
        graph, path = spilled
        result = sharded_partition(path, config(num_shards=1,
                                                sync_interval=1 << 30))
        # Shard 0's tie-break rng derives from splitmix64(0, seed).
        plain = HdrfPartitioner(seed=int(splitmix64(0, SEED))).partition(
            graph, K, order="natural")
        assert np.array_equal(result.assignment, plain.assignment)

    def test_dbh_matches_plain_partial_mode(self, spilled):
        graph, path = spilled
        result = sharded_partition(
            path, config(algorithm="dbh", num_shards=1,
                         sync_interval=1 << 30))
        plain = DbhPartitioner(degrees="partial").partition(graph, K,
                                                            order="natural")
        assert np.array_equal(result.assignment, plain.assignment)


class TestDeterminism:
    def test_worker_count_never_changes_bytes(self, spilled):
        _, path = spilled
        serial = sharded_partition(path, config(workers=1))
        parallel = sharded_partition(path, config(workers=2))
        assert serial.digest() == parallel.digest()
        assert serial.rounds == parallel.rounds

    def test_repeat_runs_are_identical(self, spilled):
        _, path = spilled
        assert (sharded_partition(path, config()).digest()
                == sharded_partition(path, config()).digest())

    def test_file_chunk_geometry_never_changes_bytes(self, spilled, tmp_path):
        graph, path = spilled
        refined = spill_graph_edges(graph, tmp_path / "fine.redg",
                                    chunk_edges=64)
        assert (sharded_partition(path, config()).digest()
                == sharded_partition(refined, config()).digest())

    def test_read_chunk_size_never_changes_bytes(self, spilled):
        _, path = spilled
        coarse = sharded_partition(path, config())
        fine = sharded_partition(path, config(chunk_edges=37))
        assert np.array_equal(coarse.assignment, fine.assignment)

    def test_shard_count_is_semantic(self, spilled):
        """Unlike workers, num_shards legitimately changes the result."""
        _, path = spilled
        one = sharded_partition(path, config(num_shards=1))
        four = sharded_partition(path, config(num_shards=4))
        assert one.digest() != four.digest()


class TestResultSurface:
    def test_complete_partition_and_sizes(self, spilled):
        _, path = spilled
        result = sharded_partition(path, config())
        partition = result.partition()
        assert partition.is_complete()
        assert int(result.sizes().sum()) == result.num_edges
        assert result.rounds >= 1
        assert result.peak_tracked_bytes > 0
        assert len(result.shard_stats) == 4

    @pytest.mark.parametrize("algorithm", ["hdrf", "greedy", "dbh"])
    @pytest.mark.parametrize("state", ["exact", "sketch"])
    def test_every_algorithm_and_state_completes(self, spilled, algorithm,
                                                 state):
        _, path = spilled
        result = sharded_partition(
            path, config(algorithm=algorithm, state=state, num_shards=2,
                         sketch_width=256, sketch_depth=2))
        assert result.partition().is_complete()

    def test_peak_bytes_gauge_matches_driver(self, spilled):
        _, path = spilled
        result = sharded_partition(path, config())
        metrics = telemetry.get_metrics()
        assert int(metrics.value("ingest.peak_bytes")) == \
            result.peak_tracked_bytes

    def test_quality_off_the_file(self, spilled):
        graph, path = spilled
        result = sharded_partition(path, config())
        quality = file_partition_quality(EdgeStreamFile(path),
                                         result.assignment, K)
        assert 1.0 <= quality["replication_factor"] <= K
        assert quality["load_imbalance"] >= 1.0
        assert quality["sizes"] == result.sizes().tolist()

    def test_quality_rejects_incomplete_assignment(self, spilled):
        _, path = spilled
        stream_file = EdgeStreamFile(path)
        with pytest.raises(IngestError, match="incomplete"):
            file_partition_quality(
                stream_file,
                np.full(stream_file.num_edges, -1, dtype=np.int32), K)
        with pytest.raises(IngestError, match="shape"):
            file_partition_quality(stream_file,
                                   np.zeros(3, dtype=np.int32), K)


class TestIngestSpecPipeline:
    SPEC = {
        "stream": {"generator": "powerlaw", "num_vertices": 400,
                   "avg_out_degree": 6.0, "seed": 4},
        "shard": {"algorithm": "hdrf", "num_partitions": 4, "num_shards": 2,
                  "sync_interval": 256, "seed": 1},
    }

    def test_summary_is_deterministic(self):
        first = run_ingest_spec(self.SPEC)
        second = run_ingest_spec(self.SPEC)
        assert first == second

    def test_summary_shape(self):
        summary = run_ingest_spec(self.SPEC)
        for key in ("config", "digest", "rounds", "replication_factor",
                    "load_imbalance", "peak_tracked_bytes",
                    "full_materialization_bytes", "stream"):
            assert key in summary, key
        assert "workers" not in summary["config"]
        # No wall times or RSS — cached payloads must be byte-identical.
        assert not any("seconds" in key or "rss" in key for key in summary)

    def test_unknown_generator_rejected(self):
        with pytest.raises(IngestError):
            run_ingest_spec({"stream": {"generator": "barabasi"},
                             "shard": {}})

    def test_unknown_stream_keys_rejected(self):
        with pytest.raises(IngestError, match="unknown rmat stream keys"):
            run_ingest_spec({"stream": {"generator": "rmat", "scale": 5,
                                        "fanout": 2}, "shard": {}})

    def test_experiment_context_caches_by_spec(self, tmp_path):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext()
        spec = {"stream": {"generator": "rmat", "scale": 6,
                           "edge_factor": 4.0, "seed": 2},
                "shard": {"algorithm": "dbh", "num_partitions": 4,
                          "num_shards": 2, "sync_interval": 128}}
        first = ctx.ingest_run(spec)
        # workers is execution detail: same cache slot, same payload.
        second = ctx.ingest_run(
            {"stream": dict(spec["stream"]),
             "shard": {**spec["shard"], "workers": 1}})
        assert first is second


class TestScaleSweepRegistration:
    def test_experiment_is_registered(self):
        from repro.experiments import EXPERIMENTS
        from repro.orchestrator.dag import build_plan

        assert "scale-sweep" in EXPERIMENTS
        # No plannable prerequisites: it spills its own streams.
        plan = build_plan(["scale-sweep"], scale="quick")
        job = next(job for job in plan.jobs.values()
                   if job.params.get("name") == "scale-sweep")
        assert job.deps == ()
