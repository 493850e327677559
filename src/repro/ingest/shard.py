"""Sharded parallel ingest over file-backed edge streams.

The stream is split into ``num_shards`` contiguous segments; each shard
runs its own partitioner core (HDRF / greedy / DBH-partial, exact or
sketch degree state) over its segment and the shards share one *global
load vector* synchronised every ``sync_interval`` arrivals — the
bulk-synchronous analogue of distributed loaders that partition against
periodically gossiped partition sizes.  Between syncs a shard scores
against **stale** loads; the quality cost of that staleness as a
function of shard count and sync interval is exactly what the
scale-sweep experiment and ``BENCH_scale.json`` measure (the framing of
"(Re)partitioning for stream-enabled computation", arXiv 1310.8211).

Determinism: rounds are lockstep — in round ``r`` every live shard
processes its next ``sync_interval`` arrivals against the same global
snapshot, then the parent adds up the per-shard ``int64`` load deltas
(commutative, so summation order cannot matter) and publishes the next
snapshot.  Shards are *logical*: ``workers`` only controls how many OS
processes execute them, so any worker count produces byte-identical
assignments — the scale-smoke CI job asserts ``workers=1 ≡ workers=4``.

Each shard's tie-break RNG is derived as
``make_rng(splitmix64(shard_index, seed))`` so results are also
independent of which worker hosts which shard.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import IngestError
from repro.ingest.memory import MemoryMeter, peak_rss_bytes
from repro.ingest.reader import EdgeStreamFile
from repro.partitioning.base import (
    UNASSIGNED,
    EdgePartition,
    check_finite_at_least,
)
from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
    DEGREE_STATES,
    make_degree_state,
)
from repro.partitioning.kernels import DEFAULT_EDGE_CHUNK
from repro.partitioning.vertex_cut.dbh import DbhCore
from repro.partitioning.vertex_cut.greedy import GreedyCore
from repro.partitioning.vertex_cut.hdrf import HdrfCore
from repro.rng import make_rng, splitmix64
from repro.tools import sanitize

__all__ = [
    "SHARD_ALGORITHMS",
    "ShardConfig",
    "ShardIngestResult",
    "shard_segments",
    "sharded_partition",
]

#: Vertex-cut cores the sharded driver can run.
SHARD_ALGORITHMS = ("hdrf", "greedy", "dbh")

#: Default arrivals a shard processes between load-vector syncs.
DEFAULT_SYNC_INTERVAL = 65536


@dataclass(frozen=True)
class ShardConfig:
    """Everything that identifies a sharded ingest run (JSON-safe)."""

    algorithm: str = "hdrf"
    num_partitions: int = 8
    state: str = "exact"
    num_shards: int = 1
    sync_interval: int = DEFAULT_SYNC_INTERVAL
    workers: int = 1
    seed: int = 0
    chunk_edges: int = DEFAULT_EDGE_CHUNK
    sketch_width: int = DEFAULT_SKETCH_WIDTH
    sketch_depth: int = DEFAULT_SKETCH_DEPTH
    balance_weight: float = 1.1
    balance_slack: float = 1.0
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in SHARD_ALGORITHMS:
            raise IngestError(
                f"unknown shard algorithm {self.algorithm!r}; expected one "
                f"of {SHARD_ALGORITHMS}")
        if self.state not in DEGREE_STATES:
            raise IngestError(
                f"unknown degree state {self.state!r}; expected one of "
                f"{DEGREE_STATES}")
        if self.num_partitions < 1:
            raise IngestError("num_partitions must be >= 1")
        if self.num_shards < 1:
            raise IngestError("num_shards must be >= 1")
        if self.sync_interval < 1:
            raise IngestError("sync_interval must be >= 1")
        if self.workers < 1:
            raise IngestError("workers must be >= 1")
        if self.chunk_edges < 1:
            raise IngestError("chunk_edges must be >= 1")
        # The cores are built directly, so check what HdrfPartitioner and
        # DegreeStatePartitioner would.
        check_finite_at_least("balance_weight (lambda)", self.balance_weight,
                              0, strict=True)
        check_finite_at_least("balance_slack (beta)", self.balance_slack, 1)
        check_finite_at_least("sketch_width", self.sketch_width, 1)
        check_finite_at_least("sketch_depth", self.sketch_depth, 1)

    def to_fields(self) -> dict:
        """JSON-serialisable identity (cache keys, provenance stamps).

        ``workers`` is excluded on purpose: it changes wall-clock only,
        never bytes, and cache keys must agree across worker counts.
        """
        fields = asdict(self)
        del fields["workers"]
        return fields


@dataclass
class ShardIngestResult:
    """Assignment + provenance of one sharded ingest run."""

    config: ShardConfig
    num_vertices: int
    num_edges: int
    rounds: int
    assignment: np.ndarray
    peak_tracked_bytes: int
    peak_rss: int
    shard_stats: tuple = field(default_factory=tuple)

    def digest(self) -> str:
        """SHA-256 of the assignment bytes — the determinism contract."""
        return hashlib.sha256(
            np.ascontiguousarray(self.assignment, dtype=np.int32).tobytes()
        ).hexdigest()

    def partition(self) -> EdgePartition:
        return EdgePartition(self.config.num_partitions, self.assignment,
                             algorithm=f"sharded-{self.config.algorithm}")

    def sizes(self) -> np.ndarray:
        assigned = self.assignment[self.assignment != UNASSIGNED]
        return np.bincount(
            assigned, minlength=self.config.num_partitions).astype(np.int64)


def shard_segments(num_edges: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` segments covering the
    stream (the first ``num_edges % num_shards`` shards get one extra)."""
    if num_shards < 1:
        raise IngestError("num_shards must be >= 1")
    base, extra = divmod(int(num_edges), num_shards)
    segments = []
    start = 0
    for index in range(num_shards):
        length = base + (1 if index < extra else 0)
        segments.append((start, start + length))
        start += length
    return segments


def _make_core(config: ShardConfig, num_vertices: int, num_edges: int,
               shard_index: int):
    """Build the per-shard partitioner core (tie-break RNG derived from
    the shard index so placement never depends on worker assignment)."""
    k = config.num_partitions
    degrees = make_degree_state(config.state, num_vertices,
                                sketch_width=config.sketch_width,
                                sketch_depth=config.sketch_depth)
    rng = make_rng(int(splitmix64(shard_index, config.seed)))
    if config.algorithm == "hdrf":
        capacity = max(1.0, config.balance_slack * num_edges / k)
        return HdrfCore(k, num_vertices, capacity=capacity,
                        balance_weight=config.balance_weight,
                        degrees=degrees, rng=rng)
    if config.algorithm == "greedy":
        return GreedyCore(k, num_vertices, degrees=degrees, rng=rng)
    return DbhCore(k, config.hash_seed, degrees=degrees)


class _ShardRunner:
    """One logical shard: a partitioner core walking its segment."""

    def __init__(self, path: str, shard_index: int,
                 segment: tuple[int, int], num_vertices: int,
                 num_edges: int, config: ShardConfig) -> None:
        self.file = EdgeStreamFile(path)
        self.shard_index = shard_index
        self.start, self.stop = segment
        self.cursor = self.start
        self.config = config
        self.core = _make_core(config, num_vertices, num_edges, shard_index)
        # Local slice indexed by (edge_id - start); merged by the parent.
        self.assignment = np.full(self.stop - self.start, UNASSIGNED,
                                  dtype=np.int32)
        self.rounds = 0
        self.peak_bytes = 0

    def exhausted(self) -> bool:
        return self.cursor >= self.stop

    def run_round(self, global_sizes: np.ndarray) -> np.ndarray | None:
        """Process up to ``sync_interval`` arrivals against *global_sizes*;
        returns this round's int64 load delta (``None`` when already
        done)."""
        if self.exhausted():
            return None
        core = self.core
        core.rebase_sizes(global_sizes)
        round_stop = min(self.cursor + self.config.sync_interval, self.stop)
        chunk_bytes = 0
        for edge_ids, src, dst in self.file.iter_chunks(
                self.config.chunk_edges, start=self.cursor, stop=round_stop):
            core.process_chunk(edge_ids - self.start, src, dst,
                               self.assignment)
            nbytes = edge_ids.nbytes + src.nbytes + dst.nbytes
            if nbytes > chunk_bytes:
                chunk_bytes = nbytes
        self.cursor = round_stop
        self.rounds += 1
        footprint = (core.state_nbytes() + self.assignment.nbytes
                     + chunk_bytes)
        if footprint > self.peak_bytes:
            self.peak_bytes = footprint
        return core.sizes - global_sizes

    def stats(self) -> dict:
        return {
            "shard": self.shard_index,
            "start": self.start,
            "stop": self.stop,
            "rounds": self.rounds,
            "peak_bytes": self.peak_bytes,
        }


def _worker_loop(conn, path: str, num_vertices: int, num_edges: int,
                 config: ShardConfig, shard_items) -> None:
    """Worker-process entry: host a fixed set of logical shards."""
    if sanitize.ACTIVE:
        # Shard order decides round interleaving; a set here would make
        # it hash-seed dependent per worker process.
        sanitize.check_not_set(shard_items, "ingest.shard._worker_loop")
    runners = [_ShardRunner(path, index, segment, num_vertices, num_edges,
                            config) for index, segment in shard_items]
    try:
        while True:
            message = conn.recv()
            if message[0] == "round":
                global_sizes = message[1]
                delta = np.zeros(config.num_partitions, dtype=np.int64)
                live = 0
                for runner in runners:
                    contribution = runner.run_round(global_sizes)
                    if contribution is not None:
                        delta += contribution
                    if not runner.exhausted():
                        live += 1
                conn.send((delta, live))
            elif message[0] == "collect":
                conn.send([(runner.shard_index, runner.start, runner.stop,
                            runner.assignment, runner.stats())
                           for runner in runners])
                return
    finally:
        conn.close()


def _run_serial(path, num_vertices, num_edges, config, segments,
                global_sizes):
    """All shards in-process — the same lockstep protocol, one host."""
    runners = [_ShardRunner(path, index, segment, num_vertices, num_edges,
                            config) for index, segment in enumerate(segments)]
    rounds = 0
    while any(not runner.exhausted() for runner in runners):
        delta = np.zeros(config.num_partitions, dtype=np.int64)
        for runner in runners:
            contribution = runner.run_round(global_sizes)
            if contribution is not None:
                delta += contribution
        global_sizes += delta
        if sanitize.ACTIVE:
            sanitize.check_delta_merge(global_sizes, delta,
                                       "ingest.shard._run_serial")
        rounds += 1
    payload = [(runner.shard_index, runner.start, runner.stop,
                runner.assignment, runner.stats()) for runner in runners]
    return rounds, payload


def _run_parallel(path, num_vertices, num_edges, config, segments,
                  global_sizes):
    """Shards spread round-robin over worker processes, synced per round."""
    workers = min(config.workers, len(segments))
    items = [[] for _ in range(workers)]
    for index, segment in enumerate(segments):
        items[index % workers].append((index, segment))
    context = multiprocessing.get_context("spawn")
    pipes = []
    processes = []
    try:
        for worker_items in items:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_loop,
                args=(child_conn, path, num_vertices, num_edges, config,
                      worker_items),
                daemon=True)
            process.start()
            child_conn.close()
            pipes.append(parent_conn)
            processes.append(process)
        rounds = 0
        live = sum(1 for start, stop in segments if stop > start)
        while live:
            for conn in pipes:
                conn.send(("round", global_sizes))
            live = 0
            delta = np.zeros(config.num_partitions, dtype=np.int64)
            for conn in pipes:
                worker_delta, worker_live = conn.recv()
                delta += worker_delta
                live += worker_live
            global_sizes += delta
            if sanitize.ACTIVE:
                sanitize.check_delta_merge(global_sizes, delta,
                                           "ingest.shard._run_parallel")
            rounds += 1
        payload = []
        for conn in pipes:
            conn.send(("collect",))
            payload.extend(conn.recv())
        return rounds, payload
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join()


def sharded_partition(path, config: ShardConfig) -> ShardIngestResult:
    """Partition a ``.redg`` stream under *config*; deterministic for any
    ``workers`` value (see module docstring for the protocol)."""
    stream_file = EdgeStreamFile(path)
    num_vertices = stream_file.num_vertices
    num_edges = stream_file.num_edges
    segments = shard_segments(num_edges, config.num_shards)
    global_sizes = np.zeros(config.num_partitions, dtype=np.int64)

    if config.workers <= 1 or config.num_shards <= 1:
        rounds, payload = _run_serial(stream_file.path, num_vertices,
                                      num_edges, config, segments,
                                      global_sizes)
    else:
        rounds, payload = _run_parallel(stream_file.path, num_vertices,
                                        num_edges, config, segments,
                                        global_sizes)

    assignment = np.full(num_edges, UNASSIGNED, dtype=np.int32)
    meter = MemoryMeter()
    meter.track("assignment", assignment.nbytes)
    meter.track("load_vector", global_sizes.nbytes)
    stats = []
    for shard_index, start, stop, shard_assignment, shard_stats in sorted(
            payload, key=lambda item: item[0]):
        assignment[start:stop] = shard_assignment
        meter.track(f"shard{shard_index}", shard_stats["peak_bytes"])
        stats.append(shard_stats)

    metrics = telemetry.get_metrics()
    metrics.counter("ingest.edges").inc(num_edges)
    metrics.counter("ingest.sync_rounds").inc(rounds)
    metrics.gauge("ingest.peak_bytes").set(meter.peak_bytes)

    return ShardIngestResult(
        config=config,
        num_vertices=num_vertices,
        num_edges=num_edges,
        rounds=rounds,
        assignment=assignment,
        peak_tracked_bytes=meter.peak_bytes,
        peak_rss=peak_rss_bytes(),
        shard_stats=tuple(stats),
    )
