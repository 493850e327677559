"""The repository's micro-benchmarks, behind one entry point.

Each suite measures one layer, checks that what it measured is right
(it raises ``AssertionError`` otherwise), and writes
``benchmarks/output/BENCH_<suite>.json`` stamped with ``schema`` and
``profile``.  ``benchmarks/compare.py`` gates the gated suites' files
against the copies blessed under ``benchmarks/baselines/``::

    python benchmarks/bench.py                          # gated suites, quick profile
    python benchmarks/bench.py --profile smoke          # what CI gates
    python benchmarks/bench.py partitioning --profile full
    python benchmarks/bench.py telemetry                # the tracked reports
    python benchmarks/bench.py orchestrator --profile quick

Gated suites (run when no suite is named): ``partitioning``,
``substrates``, ``service`` and ``scale``.  The others are
``orchestrator`` and ``telemetry``.  Each suite's docstring says what
it measures and asserts; ``PROFILES`` sizes every suite per profile.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry  # noqa: E402
from repro.analytics import (  # noqa: E402
    GasEngine, KCore, PageRank, Placement, WeaklyConnectedComponents,
)
from repro.analytics._reference import (  # noqa: E402
    ReferenceGasEngine, ReferenceKCore, ReferencePageRank,
)
from repro.database import WorkloadGenerator  # noqa: E402
from repro.database._reference import (  # noqa: E402
    ReferenceClosedLoopSimulation,
)
from repro.database.simulation import ClosedLoopSimulation  # noqa: E402
from repro.experiments import EXPERIMENTS, ExperimentContext  # noqa: E402
from repro.graph.generators import ldbc_like, twitter_like  # noqa: E402
from repro.ingest import (  # noqa: E402
    EdgeStreamFile,
    ShardConfig,
    file_partition_quality,
    full_materialization_bytes,
    sharded_partition,
    spill_rmat,
)
from repro.orchestrator import (  # noqa: E402
    ArtifactCache, reset_process_state, run_experiments,
)
from repro.partitioning import accepts_seed, make_partitioner  # noqa: E402
from repro.partitioning._reference import REFERENCE_FACTORIES  # noqa: E402
from repro.partitioning.registry import make_seeded_partitioner  # noqa: E402
from repro.service import PartitionedGraphService, ServiceConfig  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

#: Version of the ``BENCH_<suite>.json`` layout.
SCHEMA = 1

#: Suites run when none is named: the ones with committed baselines.
GATED = ("partitioning", "substrates", "service", "scale")

#: The suites that run experiments use the experiments' own scales;
#: quick is the smallest.
EXPERIMENT_SCALES = {
    "smoke": {"scale": "quick"},
    "quick": {"scale": "quick"},
    "full": {"scale": "default"},
}

#: Workload size per suite and profile: smoke keeps the CI job in
#: seconds; full is for numbers worth quoting in docs/performance.md.
#: ``scale`` grid rows are ``(state, num_shards, sync_interval)``; every
#: row runs the same algorithm so the surface isolates the
#: sharding/state axes.  Its full profile's scale-20 stream is ≥10^7
#: edges, the out-of-core acceptance bar, so that grid stays small to
#: keep the run minutes-scale.
PROFILES = {
    "partitioning": {
        "smoke": {"num_vertices": 2_000, "repeats": 1},
        "quick": {"num_vertices": 10_000, "repeats": 2},
        "full": {"num_vertices": 50_000, "repeats": 3},
    },
    "substrates": {
        "smoke": {"des_vertices": 800, "des_queries": (60, 20),
                  "des_duration": 0.3, "gas_vertices": 2_000,
                  "pagerank_iterations": 6, "repeats": 1},
        "quick": {"des_vertices": 2_000, "des_queries": (150, 50),
                  "des_duration": 1.0, "gas_vertices": 8_000,
                  "pagerank_iterations": 12, "repeats": 2},
        "full": {"des_vertices": 4_000, "des_queries": (300, 100),
                 "des_duration": 2.0, "gas_vertices": 20_000,
                 "pagerank_iterations": 20, "repeats": 3},
    },
    "service": {
        "smoke": {"num_vertices": 1_000, "epochs": 6, "mutations": 300},
        "quick": {"num_vertices": 2_000, "epochs": 12, "mutations": 600},
        "full": {"num_vertices": 8_000, "epochs": 16, "mutations": 2_400},
    },
    "scale": {
        "smoke": {
            "scale": 14, "edge_factor": 16.0, "max_fraction": 0.75,
            "grid": (("exact", 1, 1 << 30), ("exact", 4, 16384),
                     ("sketch", 4, 16384)),
        },
        "quick": {
            "scale": 16, "edge_factor": 16.0, "max_fraction": 0.5,
            "grid": (("exact", 1, 1 << 30), ("exact", 4, 16384),
                     ("exact", 8, 65536), ("sketch", 4, 16384),
                     ("sketch", 8, 65536)),
        },
        "full": {
            "scale": 20, "edge_factor": 16.0, "max_fraction": 0.35,
            "grid": (("exact", 4, 65536), ("sketch", 4, 65536),
                     ("sketch", 8, 262144)),
        },
    },
    "orchestrator": EXPERIMENT_SCALES,
    "telemetry": EXPERIMENT_SCALES,
}


def _best_of(fn, repeats: int = 1) -> tuple[float, object]:
    """Minimum wall time over *repeats* runs (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
K = 16
STREAM_SEED = 1

#: (label, registry name, constructor kwargs, stream unit).
PARTITIONING_CONFIGS = (
    ("ldg", "ldg", {}, "vertices"),
    ("fennel", "fennel", {}, "vertices"),
    ("re-ldg", "re-ldg", {"num_passes": 2}, "vertices"),
    ("re-fennel", "re-fennel", {"num_passes": 2}, "vertices"),
    ("hdrf", "hdrf", {}, "edges"),
    ("dbh", "dbh", {}, "edges"),
    ("dbh-partial", "dbh", {"degrees": "partial"}, "edges"),
    ("greedy", "greedy", {}, "edges"),
    ("grid", "grid", {}, "edges"),
)

#: Rows without a reference loop: (label, registry name, stream unit).
PARTITIONING_AFTER_ONLY = (
    ("hg", "hg", "edges"),
    ("mts", "mts", "vertices"),
)


def _assignment_digest(assignment: np.ndarray) -> str:
    data = np.ascontiguousarray(assignment, dtype=np.int32).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _constructor_kwargs(algorithm: str, kwargs: dict) -> dict:
    ctor = dict(kwargs)
    if accepts_seed(algorithm):
        ctor["seed"] = 100
    return ctor


def run_partitioning(params: dict) -> dict:
    """Before/after throughput of the kernelized streaming partitioners.

    Times every streaming algorithm twice on the same graph and stream
    order: the scalar pre-kernel loop snapshotted in
    :mod:`repro.partitioning._reference` ("before") and the kernelized
    registry implementation ("after"), asserting the two agree
    bit-for-bit before trusting the timings.  Ginger (HG) and the
    multilevel MTS baseline have no frozen loop, so they are timed
    "after" only and pinned by a ``digest`` of their assignment instead.
    Records vertices/sec (edge-cut family) and edges/sec (vertex-cut
    family) per algorithm plus the before→after speedup.
    """
    graph = twitter_like(num_vertices=params["num_vertices"], seed=7)
    repeats = params["repeats"]
    results = {}
    for label, algorithm, kwargs, unit in PARTITIONING_CONFIGS:
        ctor = _constructor_kwargs(algorithm, kwargs)
        before_partitioner = REFERENCE_FACTORIES[algorithm](**ctor)
        after_partitioner = make_partitioner(algorithm, **ctor)
        before_seconds, before_result = _best_of(
            lambda p=before_partitioner: p.partition(graph, K,
                                                     order="random",
                                                     seed=STREAM_SEED),
            repeats)
        after_seconds, after_result = _best_of(
            lambda p=after_partitioner: p.partition(graph, K,
                                                    order="random",
                                                    seed=STREAM_SEED),
            repeats)
        if not np.array_equal(before_result.assignment,
                              after_result.assignment):
            raise AssertionError(
                f"{label}: kernelized output diverged from reference")
        elements = (graph.num_vertices if unit == "vertices"
                    else graph.num_edges)
        results[label] = {
            "unit": unit,
            "before_seconds": round(before_seconds, 4),
            "after_seconds": round(after_seconds, 4),
            f"before_{unit}_per_second": round(elements / before_seconds, 1),
            f"after_{unit}_per_second": round(elements / after_seconds, 1),
            "speedup": round(before_seconds / after_seconds, 2),
        }
        print(f"{label:12s} {unit:8s} before {before_seconds:7.3f}s  "
              f"after {after_seconds:7.3f}s  "
              f"x{results[label]['speedup']:.2f}")
    for label, algorithm, unit in PARTITIONING_AFTER_ONLY:
        partitioner = make_partitioner(algorithm,
                                       **_constructor_kwargs(algorithm, {}))
        after_seconds, after_result = _best_of(
            lambda p=partitioner: p.partition(graph, K, order="random",
                                              seed=STREAM_SEED),
            repeats)
        elements = (graph.num_vertices if unit == "vertices"
                    else graph.num_edges)
        results[label] = {
            "unit": unit,
            "after_seconds": round(after_seconds, 4),
            f"after_{unit}_per_second": round(elements / after_seconds, 1),
            "digest": _assignment_digest(after_result.assignment),
        }
        print(f"{label:12s} {unit:8s} after {after_seconds:7.3f}s  "
              f"digest {results[label]['digest']}")
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_partitions": K,
        "order": "random",
        "results": results,
    }


# ----------------------------------------------------------------------
# substrates
# ----------------------------------------------------------------------
NUM_WORKERS = 16


def _des_digest(result) -> tuple:
    """Byte-level identity of everything a DES run reports."""
    return (
        result.latencies.tobytes(),
        result.vertices_read_per_worker.tobytes(),
        result.requests_per_worker.tobytes(),
        result.busy_seconds_per_worker.tobytes(),
        result.requests_lost_per_worker.tobytes(),
        json.dumps(result.metrics.snapshot(), sort_keys=True, default=str),
    )


def _gas_digest(run) -> tuple:
    """Byte-level identity of everything a GAS run reports."""
    return (
        tuple((it.iteration, it.gather_messages, it.mirror_update_messages,
               it.network_bytes, it.compute_seconds.tobytes(),
               it.wall_seconds) for it in run.iterations),
        json.dumps(run.metrics.snapshot(), sort_keys=True, default=str),
    )


def _bench_des(params: dict) -> dict:
    graph = ldbc_like(params["des_vertices"], avg_degree=12, seed=42)
    partition = make_seeded_partitioner("ldg", seed=31).partition(
        graph, NUM_WORKERS, seed=47)
    generator = WorkloadGenerator(graph, skew=0.4, seed=5)
    one_hop, two_hop = params["des_queries"]
    bindings = (generator.bindings("one_hop", one_hop)
                + generator.bindings("two_hop", two_hop))
    duration = params["des_duration"]

    # One sim per implementation, with an untimed warm-up run: query
    # plans are routed and compiled once per instance and cached, and
    # both implementations share that cost — the benchmark measures
    # event-loop throughput, not plan compilation.
    ref_sim = ReferenceClosedLoopSimulation(graph, partition.assignment,
                                            NUM_WORKERS)
    new_sim = ClosedLoopSimulation(graph, partition.assignment, NUM_WORKERS)
    ref_sim.run(bindings=bindings, duration=duration)
    new_sim.run(bindings=bindings, duration=duration)
    before_seconds, before = _best_of(
        lambda: ref_sim.run(bindings=bindings, duration=duration),
        params["repeats"])
    after_seconds, after = _best_of(
        lambda: new_sim.run(bindings=bindings, duration=duration),
        params["repeats"])
    if _des_digest(before) != _des_digest(after):
        raise AssertionError(
            "DES: vectorized event loop diverged from reference")
    # Only the reference counts processed events; it is the shared
    # denominator, so the rate ratio equals the wall-time ratio.
    events = ref_sim.events_processed
    return {
        "unit": "events",
        "events": events,
        "queries_completed": int(after.completed_queries),
        "before_seconds": round(before_seconds, 4),
        "after_seconds": round(after_seconds, 4),
        "before_events_per_second": round(events / before_seconds, 1),
        "after_events_per_second": round(events / after_seconds, 1),
        "speedup": round(before_seconds / after_seconds, 2),
    }


def _bench_gas(params: dict) -> dict:
    graph = ldbc_like(params["gas_vertices"], avg_degree=16, seed=42)
    placement = Placement(graph, make_seeded_partitioner("ldg", seed=31)
                          .partition(graph, NUM_WORKERS, seed=47))
    iterations = params["pagerank_iterations"]

    def run(engine_cls, workloads):
        return [engine_cls().run(graph, placement, w) for w in workloads]

    before_seconds, before = _best_of(
        lambda: run(ReferenceGasEngine,
                    [ReferencePageRank(iterations), ReferenceKCore(4),
                     WeaklyConnectedComponents()]),
        params["repeats"])
    after_seconds, after = _best_of(
        lambda: run(GasEngine,
                    [PageRank(iterations), KCore(4),
                     WeaklyConnectedComponents()]),
        params["repeats"])
    for ref_run, new_run in zip(before, after):
        if _gas_digest(ref_run) != _gas_digest(new_run):
            raise AssertionError(
                f"GAS/{ref_run.workload}: vectorized superstep passes "
                "diverged from reference")
    supersteps = sum(r.num_iterations for r in after)
    return {
        "unit": "supersteps",
        "supersteps": supersteps,
        "workloads": [r.workload for r in after],
        "before_seconds": round(before_seconds, 4),
        "after_seconds": round(after_seconds, 4),
        "before_supersteps_per_second": round(supersteps / before_seconds, 1),
        "after_supersteps_per_second": round(supersteps / after_seconds, 1),
        "speedup": round(before_seconds / after_seconds, 2),
    }


def run_substrates(params: dict) -> dict:
    """Before/after throughput of the two vectorized simulation substrates.

    Runs each substrate twice on identical inputs: the scalar
    pre-rewrite loops snapshotted in :mod:`repro.database._reference` /
    :mod:`repro.analytics._reference` ("before") and the production
    batched implementations ("after").  Every run pair doubles as an
    **equivalence gate** — latencies, per-worker accounting, iteration
    statistics and metric snapshots must agree byte-for-byte before the
    timings are trusted — so this suite is also the second line of
    defence (after ``tests/test_substrate_equivalence.py``) against the
    vectorized paths drifting from the reference semantics.

    Records DES events/sec, GAS supersteps/sec and the before→after
    speedups.  Both rates share one denominator per substrate (the
    reference loop's processed-event count, and the workloads' superstep
    count), so the speedup is a pure wall-time ratio.
    """
    results = {"des": _bench_des(params), "gas": _bench_gas(params)}
    for label, row in results.items():
        print(f"{label:4s} {row['unit']:10s} "
              f"before {row['before_seconds']:7.3f}s  "
              f"after {row['after_seconds']:7.3f}s  "
              f"x{row['speedup']:.2f}")
    return {"num_workers": NUM_WORKERS, "results": results}


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def _service_config(params: dict, *, migration: bool) -> ServiceConfig:
    return ServiceConfig(
        num_partitions=8,
        epochs=params["epochs"],
        epoch_duration=0.2,
        seed=7,
        mutations_per_epoch=params["mutations"],
        query_bindings_per_epoch=40,
        drift_threshold=0.01 if migration else None,
        migration_cooldown_epochs=1,
        migration_budget=max(100, params["num_vertices"] // 8),
        mutation_queue_bound=params["mutations"] * 2,
        mutation_service_rate=params["mutations"],
    )


def _measure_service(graph, config: ServiceConfig) -> dict:
    wall, result = _best_of(
        lambda: PartitionedGraphService(graph, config=config).run())
    applied = sum(r.applied_mutations for r in result.epochs)
    migration_epochs = {m.execute_epoch for m in result.migrations}
    p99_all = [r.p99_latency_ms for r in result.epochs]
    p99_migrating = [r.p99_latency_ms for r in result.epochs
                     if r.epoch in migration_epochs]
    p99_steady = [r.p99_latency_ms for r in result.epochs
                  if r.epoch not in migration_epochs]
    return {
        "wall_seconds": round(wall, 3),
        "mutations_applied": applied,
        "mutations_per_second_wall": round(applied / wall, 1),
        "completed_queries": result.total_completed_queries,
        "failed_queries": result.total_failed_queries,
        "shed_writes": result.shed_writes,
        "shed_reads": result.shed_reads,
        "migrations": len(result.migrations),
        "vertices_migrated": result.vertices_migrated,
        "bytes_shipped": sum(m.bytes_shipped for m in result.migrations),
        "busy_seconds_charged": round(
            sum(m.busy_seconds_charged for m in result.migrations), 4),
        "worst_p99_ms": round(max(p99_all), 2),
        "p99_ms_migration_epochs": round(max(p99_migrating), 2)
        if p99_migrating else None,
        "p99_ms_steady_epochs": round(max(p99_steady), 2)
        if p99_steady else None,
        "final_edge_cut": round(result.drift[-1].edge_cut, 4),
        "digest": result.digest(),
    }


def run_service(params: dict) -> dict:
    """Throughput and latency of the online partitioning service.

    Runs the seeded service loop twice on the same graph — migration
    disabled vs. migration enabled — and records what robustness costs:
    sustained mutations/sec of the epoch loop (wall clock), the worst
    per-epoch p99 query latency with and without a migration in flight,
    shed-operation counts, and the migration bill (vertices moved, bytes
    shipped, simulated worker-seconds charged).  A same-seed re-run must
    be byte-identical.
    """
    graph = ldbc_like(num_vertices=params["num_vertices"],
                      avg_degree=10.0, seed=7)
    results = {}
    for label, migration in (("no_migration", False), ("migration", True)):
        config = _service_config(params, migration=migration)
        results[label] = _measure_service(graph, config)
        row = results[label]
        print(f"{label:13s} {row['mutations_per_second_wall']:>9.1f} mut/s "
              f"p99 {row['worst_p99_ms']:6.2f}ms  cut "
              f"{row['final_edge_cut']:.3f}  "
              f"moved {row['vertices_migrated']}")
    repeat = _measure_service(graph, _service_config(params, migration=True))
    if repeat["digest"] != results["migration"]["digest"]:
        raise AssertionError("same-seed service runs diverged: "
                             f"{repeat['digest']} != "
                             f"{results['migration']['digest']}")
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "config": {
            k: v for k, v in dataclasses.asdict(
                _service_config(params, migration=True)).items()
            if k != "fault_schedule"},
        "results": results,
    }


# ----------------------------------------------------------------------
# scale
# ----------------------------------------------------------------------
#: Seed for the spilled stream and every shard run.
SCALE_SEED = 23

#: The sharded configuration re-run with 2 workers for the determinism
#: assertion (must appear in every profile's grid).
PARITY_ROW = ("exact", 4, None)


def _shard_config(state: str, num_shards: int, sync_interval: int, *,
                  workers: int = 1) -> ShardConfig:
    return ShardConfig(algorithm="hdrf", num_partitions=8, state=state,
                       num_shards=num_shards, sync_interval=sync_interval,
                       workers=workers, seed=SCALE_SEED)


def _measure_shards(path: str, config: ShardConfig,
                    max_fraction: float) -> dict:
    wall, result = _best_of(lambda: sharded_partition(path, config))
    gauge_peak = int(telemetry.get_metrics().value("ingest.peak_bytes"))
    if gauge_peak != result.peak_tracked_bytes:
        raise AssertionError(
            f"ingest.peak_bytes gauge ({gauge_peak}) disagrees with the "
            f"driver's tracked peak ({result.peak_tracked_bytes})")
    full = full_materialization_bytes(result.num_vertices, result.num_edges)
    if result.peak_tracked_bytes >= full * max_fraction:
        raise AssertionError(
            f"peak tracked bytes {result.peak_tracked_bytes:,} not well "
            f"below full materialisation {full:,} "
            f"(state={config.state}, shards={config.num_shards})")
    quality = file_partition_quality(EdgeStreamFile(path), result.assignment,
                                     config.num_partitions)
    return {
        "wall_seconds": round(wall, 3),
        "edges_per_second": round(result.num_edges / wall, 1),
        "rounds": result.rounds,
        "peak_tracked_bytes": result.peak_tracked_bytes,
        "peak_fraction_of_full": round(result.peak_tracked_bytes / full, 4),
        "replication_factor": round(quality["replication_factor"], 4),
        "load_imbalance": round(quality["load_imbalance"], 4),
        "digest": result.digest()[:16],
    }


def run_scale(params: dict) -> dict:
    """Out-of-core ingest at scale: quality vs memory vs throughput.

    Spills one R-MAT stream to the on-disk ``.redg`` format, then sweeps
    the sharded bounded-memory partitioner over it — shards ×
    sync-interval × {exact, sketch} degree state — and records the full
    surface: partition throughput (edges/sec, wall clock), peak tracked
    resident bytes next to what full in-memory materialisation would
    cost, and the replication factor / balance each configuration pays
    for its memory bound.

    Three properties are asserted, not just measured:

    * **worker-count determinism** — the same sharded configuration run
      with 1 and 2 worker processes produces identical assignment
      digests;
    * **sketch quality bound** — the count-min degree state's
      replication factor stays within 50% of the exact table's on the
      same stream;
    * **bounded memory** — every configuration's peak tracked bytes
      (also published on the ``ingest.peak_bytes`` gauge) stays under a
      profile-scaled fraction of the full-materialisation footprint: 35%
      at the full profile, which exercises a ≥10⁷-edge stream end-to-end
      (the floor is ~20% — the merged assignment plus the per-shard
      slices it is gathered from), looser at the toy profiles where the
      fixed-width sketch and chunk buffers have not amortised yet.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        spill_wall, path = _best_of(
            lambda: spill_rmat(f"{tmp}/stream.redg", params["scale"],
                               params["edge_factor"], seed=SCALE_SEED))
        stream = EdgeStreamFile(path)
        print(f"spilled {stream.num_edges:,} edges "
              f"(scale {params['scale']}) in {spill_wall:.2f}s")

        results = {}
        for state, num_shards, sync_interval in params["grid"]:
            label = f"{state}/s{num_shards}/i{sync_interval}"
            row = _measure_shards(
                path, _shard_config(state, num_shards, sync_interval),
                params["max_fraction"])
            results[label] = row
            print(f"{label:22s} {row['edges_per_second']:>12,.0f} edges/s  "
                  f"rf {row['replication_factor']:.3f}  peak "
                  f"{row['peak_tracked_bytes']:,} "
                  f"({row['peak_fraction_of_full']:.1%} of full)")

        # Worker-count determinism: same config, 2 processes, same bytes.
        state, num_shards, _ = PARITY_ROW
        sync = next(s for st, n, s in params["grid"]
                    if st == state and n == num_shards)
        serial = results[f"{state}/s{num_shards}/i{sync}"]
        parallel = _measure_shards(
            path, _shard_config(state, num_shards, sync, workers=2),
            params["max_fraction"])
        if parallel["digest"] != serial["digest"]:
            raise AssertionError(
                f"worker-count determinism violated: workers=2 digest "
                f"{parallel['digest']} != workers=1 {serial['digest']}")
        print(f"workers=2 parity OK ({parallel['edges_per_second']:,.0f} "
              f"edges/s parallel)")

        # Sketch quality bound against the exact run at the same sharding.
        exact_rf = {label.split("/", 1)[1]: row["replication_factor"]
                    for label, row in results.items()
                    if label.startswith("exact/")}
        for label, row in results.items():
            if not label.startswith("sketch/"):
                continue
            partner = exact_rf.get(label.split("/", 1)[1])
            if partner is not None and row["replication_factor"] > 1.5 * partner:
                raise AssertionError(
                    f"sketch quality bound violated at {label}: rf "
                    f"{row['replication_factor']} vs exact {partner}")

    return {
        "stream": {"generator": "rmat", "scale": params["scale"],
                   "edge_factor": params["edge_factor"], "seed": SCALE_SEED},
        "num_vertices": stream.num_vertices,
        "num_edges": stream.num_edges,
        "full_materialization_bytes": full_materialization_bytes(
            stream.num_vertices, stream.num_edges),
        "spill": {
            "wall_seconds": round(spill_wall, 3),
            "edges_per_second": round(stream.num_edges / spill_wall, 1),
        },
        "parallel_edges_per_second": parallel["edges_per_second"],
        "results": results,
    }


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
#: Covers partitions, bindings, analytics, simulations and an active
#: fault schedule while staying minutes-scale even at default scale.
ORCHESTRATOR_NAMES = ["table4", "figure7", "ablation-fault-tolerance"]


def run_orchestrator(params: dict) -> dict:
    """The orchestrator: cold serial vs warm vs parallel wall time.

    Runs a representative experiment subset three ways — cold serial
    (``jobs=1``, empty cache), warm serial (same cache, fresh process
    state) and cold parallel (``jobs=2``, empty cache) — and asserts
    that the three produce identical report digests and that the warm
    run executes zero jobs.  Records the wall times and cache counters.
    Run it as the only suite for a cold number: an earlier suite in the
    same process leaves the datasets it loaded in memory.
    """
    def run(jobs, cache_dir):
        cache = ArtifactCache(cache_dir, fingerprint="bench-fp")
        return _best_of(lambda: run_experiments(
            ORCHESTRATOR_NAMES, scale=params["scale"], jobs=jobs,
            cache=cache))

    with tempfile.TemporaryDirectory(prefix="repro-bench-orch-") as tmp:
        cold_seconds, cold_result = run(1, f"{tmp}/serial")

        # Warm re-run against the same cache, with per-process state
        # dropped so every read genuinely goes through the disk cache.
        reset_process_state()
        previous = telemetry.set_metrics(telemetry.MetricsRegistry())
        try:
            warm_seconds, warm_result = run(1, f"{tmp}/serial")
            warm_hits = int(telemetry.get_metrics().value("cache.hits"))
        finally:
            telemetry.set_metrics(previous)
        if warm_result.executed != {}:
            raise AssertionError("warm run must execute zero jobs, ran "
                                 f"{warm_result.executed}")
        if warm_hits <= 0:
            raise AssertionError("warm run produced no cache hits")
        if warm_result.digests != cold_result.digests:
            raise AssertionError("warm digests differ from cold digests")

        reset_process_state()
        parallel_seconds, parallel_result = run(2, f"{tmp}/parallel")
        if parallel_result.digests != cold_result.digests:
            raise AssertionError("parallel digests differ from serial ones")

    print(f"cold {cold_seconds:.2f}s  warm {warm_seconds:.2f}s  "
          f"parallel {parallel_seconds:.2f}s  ({warm_hits} warm hits)")
    return {
        "scale": params["scale"],
        "experiments": ORCHESTRATOR_NAMES,
        "cold_serial_seconds": round(cold_seconds, 3),
        "warm_serial_seconds": round(warm_seconds, 3),
        "cold_parallel_seconds": round(parallel_seconds, 3),
        "parallel_jobs": 2,
        "warm_cache_hits": warm_hits,
        "cold_jobs_executed": sum(cold_result.executed.values()),
        "cache_entries": cold_result.cache_stats["entries"],
        "cache_bytes": cold_result.cache_stats["bytes"],
    }


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
#: The experiments whose rendered reports are tracked under
#: ``benchmarks/output/``: the paper's tables and figures and the
#: design-choice ablations.
TRACKED_REPORTS = (
    "table3", "table4", "table5", "figure1", "figure2", "figure3",
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
    "figure12", "figure13", "figure14", "figure15",
    "ablation-dynamic-updates", "ablation-fennel-gamma",
    "ablation-ginger-threshold", "ablation-hdrf-lambda",
    "ablation-partitioning-cost", "ablation-restreaming",
    "ablation-sender-side-aggregation", "ablation-straggler",
    "ablation-stream-order",
)


def _scalar_counters(data: dict) -> dict:
    """The experiment's headline numbers: scalar entries of report.data."""
    counters = {}
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        counters[str(key)] = round(float(value), 6)
    return counters


def run_telemetry(params: dict) -> dict:
    """Regenerate every tracked report and record what each run cost.

    Each experiment runs once in a fresh :class:`ExperimentContext`
    (experiments are deterministic, so repeats would only re-measure
    caching).  Its rendered report is printed and saved as
    ``benchmarks/output/<id>.txt``; one record per experiment carries
    its real wall time and the key counters its run produced (telemetry
    spans/calls plus every scalar entry of ``report.data``).  The format
    is documented in ``docs/telemetry.md``.
    """
    tracer = telemetry.get_tracer()
    records = []
    OUTPUT_DIR.mkdir(exist_ok=True)
    for name in TRACKED_REPORTS:
        calls_before = tracer.calls
        spans_before = tracer.num_spans
        wall_seconds, report = _best_of(
            lambda: EXPERIMENTS[name](ExperimentContext(scale=params["scale"])))
        record = {
            "experiment_id": report.experiment_id,
            "scale": params["scale"],
            "wall_seconds": round(wall_seconds, 3),
            "telemetry_spans": tracer.num_spans - spans_before,
            "telemetry_calls": tracer.calls - calls_before,
            "counters": _scalar_counters(report.data),
        }
        records.append(record)
        # The saved artifact must stay deterministic: it leaves out the
        # provenance trailer (real wall time), which only the console
        # shows.
        (OUTPUT_DIR / f"{name}.txt").write_text(report.render() + "\n")
        report.stamp_provenance(wall_seconds=record["wall_seconds"],
                                telemetry_spans=record["telemetry_spans"],
                                telemetry_calls=record["telemetry_calls"])
        print(report.render())
        print()
    return {
        "scale": params["scale"],
        "benchmarks": sorted(records, key=lambda r: r["experiment_id"]),
    }


SUITES = {
    "partitioning": run_partitioning,
    "substrates": run_substrates,
    "service": run_service,
    "scale": run_scale,
    "orchestrator": run_orchestrator,
    "telemetry": run_telemetry,
}


def write(suite: str, profile: str, payload: dict) -> Path:
    """Stamp *payload* and write it as ``BENCH_<suite>.json``."""
    path = OUTPUT_DIR / f"BENCH_{suite}.json"
    OUTPUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"schema": SCHEMA, "profile": profile,
                                **payload}, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/bench.py",
        description="Run benchmark suites and write BENCH_<suite>.json.")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"any of {', '.join(SUITES)} (default: "
                             f"{', '.join(GATED)})")
    parser.add_argument("--profile", choices=("smoke", "quick", "full"),
                        default="quick")
    args = parser.parse_args(argv)
    # Checked here, not with ``choices``: argparse rejects the empty
    # default of a ``nargs="*"`` positional that has choices.
    unknown = [suite for suite in args.suites if suite not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; choose from "
                     f"{', '.join(SUITES)}")
    for suite in args.suites or GATED:
        print(f"== {suite} ({args.profile})")
        payload = SUITES[suite](PROFILES[suite][args.profile])
        print(f"wrote {write(suite, args.profile, payload)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
