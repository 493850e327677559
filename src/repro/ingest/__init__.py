"""Out-of-core ingest: file-backed edge streams, bounded-memory state,
sharded parallel partitioning.

The in-memory path caps experiments at what fits in RAM; this subsystem
removes that ceiling along three axes (see ``docs/scaling.md``):

* **file-backed streams** — generators spill straight to the versioned
  binary ``.redg`` format (:mod:`repro.ingest.writer`); memory-mapped
  readers replay them through the existing ``EdgeArrival`` /
  ``VertexArrival`` interfaces without ever building a ``Graph``
  (:mod:`repro.ingest.reader`);
* **bounded partitioner state** — the vertex-cut family accepts
  ``state="sketch"``, swapping exact partial-degree tables for a
  deterministic count-min sketch
  (:mod:`repro.partitioning.degree_state`);
* **sharded ingest** — contiguous stream segments partitioned in
  parallel worker processes against a periodically synced load vector,
  deterministically for any worker count (:mod:`repro.ingest.shard`).
"""

from repro.ingest.format import FLAG_ADJACENCY, FORMAT_VERSION, HEADER_SIZE, MAGIC, Header
from repro.ingest.memory import (
    MemoryMeter,
    full_materialization_bytes,
    peak_rss_bytes,
)
from repro.ingest.pipeline import (
    STREAM_GENERATORS,
    run_file_ingest,
    run_ingest_spec,
    spill_spec,
)
from repro.ingest.quality import file_partition_quality
from repro.ingest.reader import EdgeStreamFile, FileVertexStream
from repro.ingest.shard import (
    DEFAULT_SYNC_INTERVAL,
    SHARD_ALGORITHMS,
    ShardConfig,
    ShardIngestResult,
    shard_segments,
    sharded_partition,
)
from repro.ingest.writer import (
    EdgeStreamWriter,
    iter_powerlaw_chunks,
    iter_rmat_chunks,
    spill_adjacency,
    spill_edges,
    spill_graph_edges,
    spill_powerlaw,
    spill_rmat,
)

__all__ = [
    "DEFAULT_SYNC_INTERVAL",
    "FLAG_ADJACENCY",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "SHARD_ALGORITHMS",
    "STREAM_GENERATORS",
    "EdgeStreamFile",
    "EdgeStreamWriter",
    "FileVertexStream",
    "Header",
    "MemoryMeter",
    "ShardConfig",
    "ShardIngestResult",
    "file_partition_quality",
    "full_materialization_bytes",
    "iter_powerlaw_chunks",
    "iter_rmat_chunks",
    "peak_rss_bytes",
    "run_file_ingest",
    "run_ingest_spec",
    "shard_segments",
    "sharded_partition",
    "spill_adjacency",
    "spill_edges",
    "spill_graph_edges",
    "spill_powerlaw",
    "spill_rmat",
    "spill_spec",
]
