"""Scale sweep: quality vs memory vs parallelism for out-of-core ingest.

The paper partitions graphs that fit in memory; the ingest subsystem
(``docs/scaling.md``) removes that ceiling with file-backed streams,
sketch-backed partitioner state and sharded parallel ingest.  Each of
those knobs trades partition quality or determinism guarantees for
resident memory or wall-clock, and this experiment maps the surface:

* **shards × sync interval** — more shards partition against staler
  load vectors between syncs; replication factor and balance degrade
  gracefully as the sync interval grows;
* **exact vs sketch state** — the count-min degree sketch caps state at
  ``width × depth`` counters per shard; quality loss only appears once
  distinct-vertex counts overflow the sketch width;
* **memory** — every cell reports the driver's tracked peak bytes next
  to what full materialisation would have cost.

Every cell is one deterministic :meth:`ExperimentContext.ingest_run`;
the summaries carry assignment digests, so any quality drift across
refactors is byte-regressable.  Throughput is deliberately absent here
(summaries must be cache-stable); the ``scale`` suite of
``benchmarks/bench.py`` measures the same surface with timers on.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import ExperimentContext, requires

#: Seed for every spilled stream and shard run in this experiment.
SWEEP_SEED = 19

#: R-MAT scale (log2 vertices) of the swept stream, per scale profile.
STREAM_SCALES = {"quick": 11, "default": 13, "large": 15}

#: (num_shards, sync_interval) grid; 1 shard with an effectively
#: infinite sync interval is the sequential baseline.
SHARD_GRID = ((1, 1 << 30), (4, 4096), (4, 65536), (8, 16384))


def _stream_spec(profile_name: str) -> dict:
    return {
        "generator": "rmat",
        "scale": STREAM_SCALES.get(profile_name, 13),
        "edge_factor": 16.0,
        "seed": SWEEP_SEED,
    }


# Every ingest spills its own synthetic stream and is computed inside the
# experiment job (through the cache); nothing is plannable up front.
@requires(lambda profile: [])
def scale_sweep(ctx: ExperimentContext | None = None) -> ExperimentReport:
    """Shards × sync-interval × degree-state quality/memory surface."""
    ctx = ctx or ExperimentContext()
    stream = _stream_spec(ctx.profile.name)

    report = ExperimentReport(
        "scale-sweep",
        f"Out-of-core ingest of an R-MAT scale-{stream['scale']} stream: "
        "sharding and sketch-state ablation",
    )
    table = report.add_table(Table(
        "Partition quality and peak memory by ingest configuration",
        ["State", "Shards", "SyncEvery", "Rounds", "RF", "Imbalance",
         "PeakKiB", "FullKiB"],
    ))
    data = {}
    for state in ("exact", "sketch"):
        for num_shards, sync_interval in SHARD_GRID:
            summary = ctx.ingest_run({
                "stream": stream,
                "shard": {
                    "algorithm": "hdrf",
                    "num_partitions": 8,
                    "state": state,
                    "num_shards": num_shards,
                    "sync_interval": sync_interval,
                    "seed": SWEEP_SEED,
                },
            })
            label = f"{state}/s{num_shards}/i{sync_interval}"
            data[label] = summary
            table.add_row(
                state, num_shards, sync_interval, summary["rounds"],
                round(summary["replication_factor"], 3),
                round(summary["load_imbalance"], 3),
                summary["peak_tracked_bytes"] // 1024,
                summary["full_materialization_bytes"] // 1024,
            )
    report.data["results"] = data
    report.data["stream"] = stream
    report.add_note("Expected: the single-shard run matches the sequential "
                    "partitioner's quality; more shards with longer sync "
                    "intervals raise the replication factor modestly; the "
                    "sketch state matches exact quality until the stream's "
                    "distinct-vertex count approaches the sketch width, and "
                    "peak tracked memory stays well under the full-"
                    "materialisation footprint throughout.")
    return report
