"""``python -m repro serve-sim`` — run the online partitioning service.

Builds a synthetic social graph, runs the seeded service loop, and
prints the drift timeline: per-epoch quality, shed counters, query
latency, and every bounded migration with its cost.  ``--json`` dumps
the canonical timeline (the digest's input) for scripting and the CI
smoke job.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.config import ServiceConfig
from repro.service.core import PartitionedGraphService, ServiceResult


def add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The scenario flags :func:`build_config` reads (serve-sim and
    ``repro health``)."""
    parser.add_argument("--vertices", type=int, default=2000,
                        help="synthetic graph size (default 2000)")
    parser.add_argument("--avg-degree", type=float, default=12.0)
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--epoch-duration", type=float, default=0.25,
                        metavar="SECONDS")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mutations-per-epoch", type=int, default=600)
    parser.add_argument("--bindings-per-epoch", type=int, default=50)
    parser.add_argument("--drift-threshold", type=float, default=0.02)
    parser.add_argument("--migration-budget", type=int, default=300,
                        help="max vertices moved per migration event")
    parser.add_argument("--queue-bound", type=int, default=1000,
                        help="mutation admission bound (writes shed past it)")
    parser.add_argument("--service-rate", type=int, default=400,
                        help="mutations applied per epoch")
    parser.add_argument("--no-migration", action="store_true",
                        help="disable drift-triggered migration "
                             "(incremental placement only)")


def build_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        num_partitions=args.partitions,
        epochs=args.epochs,
        epoch_duration=args.epoch_duration,
        seed=args.seed,
        mutations_per_epoch=args.mutations_per_epoch,
        query_bindings_per_epoch=args.bindings_per_epoch,
        drift_threshold=None if args.no_migration else args.drift_threshold,
        migration_budget=args.migration_budget,
        mutation_queue_bound=args.queue_bound,
        mutation_service_rate=args.service_rate,
    )


def render(result: ServiceResult) -> str:
    lines = ["epoch  cut    imbal  drift   fired  applied  shedW  "
             "completed  failed  p99(ms)"]
    for record, sample in zip(result.epochs, result.drift):
        lines.append(
            f"{record.epoch:5d}  {sample.edge_cut:.3f}  "
            f"{sample.imbalance:.3f}  {sample.drift:.4f}  "
            f"{'yes' if sample.fired else 'no ':3}    "
            f"{record.applied_mutations:7d}  {record.shed_writes:5d}  "
            f"{record.completed_queries:9d}  {record.failed_queries:6d}  "
            f"{record.p99_latency_ms:7.2f}")
    for event in result.migrations:
        lines.append(
            f"migration: triggered epoch {event.trigger_epoch}, executed "
            f"epoch {event.execute_epoch}: {event.vertices_moved} vertices "
            f"in {event.num_batches} batches, "
            f"{event.bytes_shipped / 1024:.0f} KiB shipped, cut "
            f"{event.cut_before:.3f} -> {event.cut_after:.3f}")
    lines.append(
        f"totals: {result.total_completed_queries} completed, "
        f"{result.total_failed_queries} failed, "
        f"{result.shed_writes} writes shed, {result.shed_reads} reads "
        f"shed, {result.vertices_migrated} vertices migrated")
    lines.append(f"digest: {result.digest()}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve-sim",
        description="Run the online partitioning service simulation "
                    "(drift detection, bounded migration, graceful "
                    "degradation).")
    add_scenario_arguments(parser)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the canonical timeline JSON to PATH "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    from repro.errors import ConfigurationError
    from repro.graph.generators import ldbc_like

    try:
        config = build_config(args)
        graph = ldbc_like(num_vertices=args.vertices,
                          avg_degree=args.avg_degree, seed=args.seed)
    except ConfigurationError as error:
        print(f"serve-sim: {error}", file=sys.stderr)
        return 2
    result = PartitionedGraphService(graph, config=config).run()

    if args.json:
        payload = json.dumps(result.timeline(), indent=2, sort_keys=True)
        if args.json == "-":
            # Keep stdout pure JSON so the output pipes into a parser;
            # the human timeline goes to stderr instead.
            print(payload)
            print(render(result), file=sys.stderr)
            return 0
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[timeline written to {args.json}]")
    print(render(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
