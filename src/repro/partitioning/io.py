"""Partition serialisation: TSV and npz round trips.

Partitionings are expensive to compute (METIS on the paper's Twitter
graph took ~8 hours); real deployments persist them and load them at
bulk-load time, exactly as the paper does ("we perform METIS partitioning
as a pre-processing step prior to data loading, and load these partitions
into the system manually").  These helpers make that workflow concrete:

* TSV (``id<TAB>partition``) — the interchange format written by the
  ``repro-partition`` CLI tool, with a ``#``-comment header;
* npz — a fast binary cache.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError, PartitioningError
from repro.partitioning.base import EdgePartition, VertexPartition


def write_partition_tsv(partition, path, *, comment: str = "") -> None:
    """Write ``id<TAB>partition`` rows (vertex ids for edge-cut
    partitionings, edge ids for vertex-cut ones)."""
    with open(path, "w") as handle:
        kind = "vertex" if isinstance(partition, VertexPartition) else "edge"
        handle.write(f"# kind={kind} k={partition.num_partitions} "
                     f"algorithm={partition.algorithm}"
                     f"{' ' + comment if comment else ''}\n")
        for item, part in enumerate(partition.assignment.tolist()):
            handle.write(f"{item}\t{part}\n")


def read_partition_tsv(path):
    """Read a partitioning written by :func:`write_partition_tsv`.

    Returns a :class:`VertexPartition` or :class:`EdgePartition` according
    to the header's ``kind`` field.
    """
    kind = "vertex"
    k = None
    algorithm = "?"
    assignment: list[int] = []
    expected_id = 0
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key == "kind":
                        kind = value
                    elif key == "k":
                        k = int(value)
                    elif key == "algorithm":
                        algorithm = value
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{line_no}: expected 'id<TAB>partition'")
            item, part = int(parts[0]), int(parts[1])
            if item != expected_id:
                raise GraphFormatError(
                    f"{path}:{line_no}: ids must be dense and ordered "
                    f"(expected {expected_id}, got {item})")
            assignment.append(part)
            expected_id += 1
    if k is None:
        k = max(assignment) + 1 if assignment else 1
    array = np.asarray(assignment, dtype=np.int32)
    if kind == "vertex":
        return VertexPartition(k, array, algorithm=algorithm)
    if kind == "edge":
        return EdgePartition(k, array, algorithm=algorithm)
    raise GraphFormatError(f"{path}: unknown partition kind {kind!r}")


def save_partition_npz(partition, path) -> None:
    """Binary save of a partitioning (fast cache format)."""
    masters = getattr(partition, "masters", None)
    payload = {
        "kind": "vertex" if isinstance(partition, VertexPartition) else "edge",
        "k": partition.num_partitions,
        "assignment": partition.assignment,
        "algorithm": partition.algorithm,
    }
    if masters is not None:
        payload["masters"] = masters
    np.savez_compressed(path, **payload)


def load_partition_npz(path):
    """Load a partitioning written by :func:`save_partition_npz`."""
    data = np.load(path, allow_pickle=False)
    kind = str(data["kind"])
    k = int(data["k"])
    algorithm = str(data["algorithm"])
    if kind == "vertex":
        return VertexPartition(k, data["assignment"], algorithm=algorithm)
    if kind == "edge":
        masters = data["masters"] if "masters" in data else None
        return EdgePartition(k, data["assignment"], algorithm=algorithm,
                             masters=masters)
    raise PartitioningError(f"unknown partition kind {kind!r} in {path}")
