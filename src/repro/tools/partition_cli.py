"""``repro-partition`` — partition an edge-list file from the shell.

The utility a downstream user actually wants from this library: point it
at an edge list, pick an algorithm and a partition count, get a
vertex→partition (or edge→partition) mapping plus the quality metrics the
paper reports.

Examples::

    repro-partition graph.txt --algorithm hdrf --partitions 16
    repro-partition graph.txt -a ldg -k 8 --order bfs --output parts.tsv
    repro-partition graph.txt -a mts -k 32 --metrics-only
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ReproError
from repro.graph.io import read_edge_list
from repro.graph.stream import STREAM_ORDERS
from repro.metrics import (
    communication_cost,
    edge_cut_ratio,
    partition_balance,
    replication_factor,
)
from repro.partitioning import (
    available_algorithms,
    cut_model,
    make_seeded_partitioner,
)
from repro.partitioning.base import VertexPartition


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="Partition a graph edge-list file with a streaming "
                    "graph partitioning algorithm.",
    )
    parser.add_argument("input", help="edge-list file (one 'src dst' per line)")
    parser.add_argument("-a", "--algorithm", default="ldg",
                        help="algorithm name or paper acronym "
                             f"(one of {', '.join(available_algorithms())})")
    parser.add_argument("-k", "--partitions", type=int, default=8,
                        help="number of partitions (default 8)")
    parser.add_argument("--order", default="natural", choices=STREAM_ORDERS,
                        help="stream order (default: file order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for stream shuffling and tie-breaking")
    parser.add_argument("-o", "--output", default=None,
                        help="write the assignment as TSV (id<TAB>partition); "
                             "vertex ids for edge-cut algorithms, edge ids "
                             "for vertex-cut ones")
    parser.add_argument("--metrics-only", action="store_true",
                        help="print metrics without writing an assignment")
    parser.add_argument("--evaluate", default=None, metavar="TSV",
                        help="skip partitioning: evaluate an existing "
                             "assignment TSV against the graph instead")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        graph = read_edge_list(args.input)
        if args.evaluate:
            from repro.partitioning.io import read_partition_tsv
            partition = read_partition_tsv(args.evaluate)
            elapsed = 0.0
            label = f"{partition.algorithm} (from {args.evaluate})"
        else:
            partitioner = make_seeded_partitioner(args.algorithm, args.seed)
            started = time.time()
            partition = partitioner.partition(graph, args.partitions,
                                              order=args.order, seed=args.seed)
            elapsed = time.time() - started
            label = (f"{args.algorithm} ({cut_model(args.algorithm)}), "
                     f"k={args.partitions}, order={args.order}")
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"graph      : {graph.num_vertices:,} vertices, "
          f"{graph.num_edges:,} edges")
    print(f"algorithm  : {label}")
    if elapsed:
        print(f"time       : {elapsed:.2f}s")
    if isinstance(partition, VertexPartition):
        print(f"edge-cut   : {edge_cut_ratio(graph, partition):.4f}")
    else:
        print(f"replication: {replication_factor(graph, partition):.4f}")
    print(f"cost C(P)  : {communication_cost(graph, partition):.4f}")
    print(f"balance    : {partition_balance(graph, partition):.4f}")

    if args.output and not args.metrics_only:
        from repro.partitioning.io import write_partition_tsv
        write_partition_tsv(partition, args.output,
                            comment=f"order={args.order} seed={args.seed}")
        print(f"assignment : written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
