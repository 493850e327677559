"""Pinned outputs of the update-supporting edge-cut methods.

IOGP, Leopard, Hermes-style refinement, TAPER, failover re-homing and
incremental placement each have digests recorded here, so a change to
the loops they run cannot move a single placement, reassignment count,
replica set or RNG draw unnoticed.  The graphs are the kernel goldens'
two (``twitter300``, ``ldbc250``) and a multigraph with self-loops,
parallel edges in both directions and isolated vertices.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph.generators import ldbc_like, twitter_like
from repro.partitioning import (
    IncrementalEdgeCutPartitioner,
    IogpPartitioner,
    LdgPartitioner,
    LeopardPartitioner,
    hermes_refine,
    make_partitioner,
    reassign_lost_vertices,
    taper_refine,
)
from repro.partitioning.base import VertexPartition

GRAPH_NAMES = ("twitter300", "ldbc250", "multi160")
#: Each stream order runs at its own k, so three orders cover three k.
ORDER_K = (("natural", 3), ("random", 8), ("bfs", 16))


def _multigraph() -> Graph:
    """160 vertices, the last 10 isolated; 700 random edges over the
    first 150 (self-loops allowed), plus 25 more self-loops, 40 parallel
    copies and 20 reversed copies."""
    rng = np.random.default_rng(29)
    src = rng.integers(0, 150, size=700)
    dst = rng.integers(0, 150, size=700)
    loops = rng.integers(0, 150, size=25)
    src = np.concatenate([src, loops, src[:40], dst[40:60]])
    dst = np.concatenate([dst, loops, dst[:40], src[40:60]])
    return Graph(160, src, dst, name="multi160")


@pytest.fixture(scope="module")
def graphs():
    return {
        "twitter300": twitter_like(num_vertices=300, seed=11),
        "ldbc250": ldbc_like(num_vertices=250, avg_degree=6, seed=5),
        "multi160": _multigraph(),
    }


def _digest(*parts) -> str:
    """Arrays hash as int32 bytes, anything else by its ``repr``."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(np.ascontiguousarray(part, dtype=np.int32).tobytes())
        else:
            sha.update(repr(part).encode("utf-8"))
    return sha.hexdigest()[:16]


def _base(graph: Graph, order: str, k: int) -> VertexPartition:
    """The partition the refinement and failover pins start from."""
    return LdgPartitioner(seed=4).partition(graph, k, order=order, seed=2)


def _edge_weights(graph: Graph, kind: str) -> np.ndarray:
    rng = np.random.default_rng(13)
    if kind == "int":
        # About a quarter zero: those cut edges leave the boundary set.
        return rng.integers(0, 4, size=graph.num_edges).astype(np.float64)
    if kind == "frac":
        return rng.pareto(1.5, graph.num_edges) * 0.37
    return np.ones(graph.num_edges)


def _iogp(graph, order, k, variant):
    kwargs = {"reassignment_threshold": 0.3, "balance_slack": 1.3,
              "hash_seed": 5} if variant == "tuned" else {}
    partitioner = IogpPartitioner(**kwargs)
    partition = partitioner.partition(graph, k, order=order, seed=7)
    return _digest(partition.assignment, partitioner.last_reassignments)


def _leopard(graph, order, k, variant):
    kwargs = {"reassignment_gain": 1.0, "replication_fraction": 0.15,
              "max_replicas": 4, "hash_seed": 5} if variant == "tuned" else {}
    partitioner = LeopardPartitioner(**kwargs)
    partition = partitioner.partition(graph, k, order=order, seed=7)
    replicas = [sorted(copies) for copies in partitioner.last_replicas]
    return _digest(partition.assignment, partitioner.last_reassignments,
                   replicas, partitioner.replication_overhead(),
                   partitioner.local_read_fraction(graph))


def _hermes(graph, order, k, budget):
    max_moves = None if budget == "none" else int(budget)
    # Refine a hash partition too: its boundary covers most vertices.
    hashed = make_partitioner("ecr").partition(graph, k)
    return _digest(
        hermes_refine(graph, _base(graph, order, k), max_moves=max_moves,
                      seed=3).assignment,
        hermes_refine(graph, hashed, max_moves=max_moves, balance_slack=1.05,
                      max_passes=3, seed=9).assignment)


def _taper(graph, order, k, kind):
    weights = _edge_weights(graph, kind)
    hashed = make_partitioner("ecr").partition(graph, k)
    return _digest(
        taper_refine(graph, _base(graph, order, k), weights, seed=3).assignment,
        taper_refine(graph, hashed, weights, balance_slack=1.05, max_passes=3,
                     seed=9).assignment)


def _failover(graph, order, k, slack):
    base = _base(graph, order, k)
    return _digest(*(reassign_lost_vertices(graph, base, lost,
                                            balance_slack=float(slack),
                                            seed=lost).assignment
                     for lost in range(k)))


def _incremental(graph, order, k, rng_mode):
    """Place the last 40% of the vertices one at a time, in id order,
    against an LDG partition of the first 60%."""
    first = int(graph.num_vertices * 0.6)
    base = VertexPartition(k, _base(graph, order, k).assignment[:first])
    incremental = IncrementalEdgeCutPartitioner(base, seed=11)
    shared = np.random.default_rng(12)
    targets = [incremental.add_vertex(
        graph.neighbors(v), rng=shared if rng_mode == "shared" else None)
        for v in range(first, graph.num_vertices)]
    return _digest(np.array(targets), incremental.assignment)


PINNED = {
    "iogp": _iogp,
    "leopard": _leopard,
    "hermes": _hermes,
    "taper": _taper,
    "failover": _failover,
    "incremental": _incremental,
}

#: Digests recorded before IOGP and Leopard shared a driver, Hermes and
#: TAPER a refinement loop, and add_vertex and failover an LDG rule.
#: Key: (graph, method, order, k, variant).
UPDATE_PINS = {
    ("twitter300", "iogp", "natural", 3, "default"): "6ae3caa32031e81f",
    ("twitter300", "iogp", "natural", 3, "tuned"): "ea5f04c548c709d8",
    ("twitter300", "iogp", "random", 8, "default"): "28470b91656cc49a",
    ("twitter300", "iogp", "random", 8, "tuned"): "517a94908e3f0e19",
    ("twitter300", "iogp", "bfs", 16, "default"): "cd7fdf8248f4dcb2",
    ("twitter300", "iogp", "bfs", 16, "tuned"): "d1974ea62c0c640f",
    ("twitter300", "leopard", "natural", 3, "default"): "8c7c8158569fa901",
    ("twitter300", "leopard", "natural", 3, "tuned"): "998bf33854713601",
    ("twitter300", "leopard", "random", 8, "default"): "4f3dd0599933b7c6",
    ("twitter300", "leopard", "random", 8, "tuned"): "fcdba51ff6f5c75c",
    ("twitter300", "leopard", "bfs", 16, "default"): "179dd4b076ac1c38",
    ("twitter300", "leopard", "bfs", 16, "tuned"): "f1beb5348013036f",
    ("twitter300", "hermes", "natural", 3, "none"): "c55806dca0d43ce3",
    ("twitter300", "hermes", "natural", 3, "0"): "41389fdff5812a2e",
    ("twitter300", "hermes", "natural", 3, "5"): "b00ede4a07fc833c",
    ("twitter300", "hermes", "random", 8, "none"): "7e2ac37ade91fc7a",
    ("twitter300", "hermes", "random", 8, "0"): "c1f36accfb40a95f",
    ("twitter300", "hermes", "random", 8, "5"): "9b9809f427c1bd56",
    ("twitter300", "hermes", "bfs", 16, "none"): "82d57d2bed1255cf",
    ("twitter300", "hermes", "bfs", 16, "0"): "ed17cd15ea79552a",
    ("twitter300", "hermes", "bfs", 16, "5"): "256f6d24708f2d5b",
    ("twitter300", "taper", "natural", 3, "int"): "d489c4a4da873110",
    ("twitter300", "taper", "natural", 3, "frac"): "8554201c062d1bee",
    ("twitter300", "taper", "natural", 3, "ones"): "c55806dca0d43ce3",
    ("twitter300", "taper", "random", 8, "int"): "6510adb44440dba6",
    ("twitter300", "taper", "random", 8, "frac"): "77951bf6dcdd2e79",
    ("twitter300", "taper", "random", 8, "ones"): "7e2ac37ade91fc7a",
    ("twitter300", "taper", "bfs", 16, "int"): "abff2b7b92d49d3d",
    ("twitter300", "taper", "bfs", 16, "frac"): "c311c9b07c22122e",
    ("twitter300", "taper", "bfs", 16, "ones"): "82d57d2bed1255cf",
    ("twitter300", "failover", "natural", 3, "1.2"): "5f4092cd969430dd",
    ("twitter300", "failover", "natural", 3, "1.0"): "0f7a6352f106fcf0",
    ("twitter300", "failover", "random", 8, "1.2"): "d6ee8615ba4612dc",
    ("twitter300", "failover", "random", 8, "1.0"): "ec531497f4253234",
    ("twitter300", "failover", "bfs", 16, "1.2"): "378660c7483cc267",
    ("twitter300", "failover", "bfs", 16, "1.0"): "0a0a9581f51996e9",
    ("twitter300", "incremental", "natural", 3, "seeded"): "01ced56e0b8563e3",
    ("twitter300", "incremental", "natural", 3, "shared"): "048d8aa7b8d7a15b",
    ("twitter300", "incremental", "random", 8, "seeded"): "f0c99aac662b6a32",
    ("twitter300", "incremental", "random", 8, "shared"): "7596ceb406b2b478",
    ("twitter300", "incremental", "bfs", 16, "seeded"): "29ba36128d780177",
    ("twitter300", "incremental", "bfs", 16, "shared"): "18b5cff1415f6d97",
    ("ldbc250", "iogp", "natural", 3, "default"): "6c732ef217115e9f",
    ("ldbc250", "iogp", "natural", 3, "tuned"): "259976fd2031ff48",
    ("ldbc250", "iogp", "random", 8, "default"): "04fd662b83b77b98",
    ("ldbc250", "iogp", "random", 8, "tuned"): "22ee2e8831c9a345",
    ("ldbc250", "iogp", "bfs", 16, "default"): "3a1312b0c8f39060",
    ("ldbc250", "iogp", "bfs", 16, "tuned"): "ddcf3f28b3ede04b",
    ("ldbc250", "leopard", "natural", 3, "default"): "dbf22819ba10e4d8",
    ("ldbc250", "leopard", "natural", 3, "tuned"): "22b78d541e063948",
    ("ldbc250", "leopard", "random", 8, "default"): "65a4eec611bfaf78",
    ("ldbc250", "leopard", "random", 8, "tuned"): "74b31df63867ee88",
    ("ldbc250", "leopard", "bfs", 16, "default"): "ac330df1c63c29e3",
    ("ldbc250", "leopard", "bfs", 16, "tuned"): "3598b90f6bdd0496",
    ("ldbc250", "hermes", "natural", 3, "none"): "1fe219a95275966a",
    ("ldbc250", "hermes", "natural", 3, "0"): "1b3ff1a7a8d0dc31",
    ("ldbc250", "hermes", "natural", 3, "5"): "62b18e3642ad5c30",
    ("ldbc250", "hermes", "random", 8, "none"): "27ae81002f002c84",
    ("ldbc250", "hermes", "random", 8, "0"): "bf4bcd05f3abee23",
    ("ldbc250", "hermes", "random", 8, "5"): "48a16906ce055f5e",
    ("ldbc250", "hermes", "bfs", 16, "none"): "b65522e8e1ee64d2",
    ("ldbc250", "hermes", "bfs", 16, "0"): "e5a4a8e591dfd07a",
    ("ldbc250", "hermes", "bfs", 16, "5"): "14c8347b4924963d",
    ("ldbc250", "taper", "natural", 3, "int"): "e6a063eb7246d0e0",
    ("ldbc250", "taper", "natural", 3, "frac"): "22cf4f0513be1e89",
    ("ldbc250", "taper", "natural", 3, "ones"): "1fe219a95275966a",
    ("ldbc250", "taper", "random", 8, "int"): "407e3acdc891d832",
    ("ldbc250", "taper", "random", 8, "frac"): "930bf554f71a83b5",
    ("ldbc250", "taper", "random", 8, "ones"): "27ae81002f002c84",
    ("ldbc250", "taper", "bfs", 16, "int"): "5d7d789a81956622",
    ("ldbc250", "taper", "bfs", 16, "frac"): "4f15019b5aee6b92",
    ("ldbc250", "taper", "bfs", 16, "ones"): "b65522e8e1ee64d2",
    ("ldbc250", "failover", "natural", 3, "1.2"): "4ff8cacfaaa9fa74",
    ("ldbc250", "failover", "natural", 3, "1.0"): "b11292e336a71e4c",
    ("ldbc250", "failover", "random", 8, "1.2"): "0330b7e02c73dd02",
    ("ldbc250", "failover", "random", 8, "1.0"): "8242ef5ca935dc14",
    ("ldbc250", "failover", "bfs", 16, "1.2"): "baa62aea8c65d184",
    ("ldbc250", "failover", "bfs", 16, "1.0"): "fa95883b27e8a175",
    ("ldbc250", "incremental", "natural", 3, "seeded"): "15a53b67d8fcc104",
    ("ldbc250", "incremental", "natural", 3, "shared"): "2c7b02ca828d2304",
    ("ldbc250", "incremental", "random", 8, "seeded"): "f4ed5d14392062bc",
    ("ldbc250", "incremental", "random", 8, "shared"): "62fc152795c8fb2b",
    ("ldbc250", "incremental", "bfs", 16, "seeded"): "ec122096541018d7",
    ("ldbc250", "incremental", "bfs", 16, "shared"): "72a746d169f30c6f",
    ("multi160", "iogp", "natural", 3, "default"): "65dc5983505d771a",
    ("multi160", "iogp", "natural", 3, "tuned"): "9fd302c92be3f583",
    ("multi160", "iogp", "random", 8, "default"): "70e550566d13e0c7",
    ("multi160", "iogp", "random", 8, "tuned"): "c3b57a6544202a7b",
    ("multi160", "iogp", "bfs", 16, "default"): "11226533ac9da606",
    ("multi160", "iogp", "bfs", 16, "tuned"): "afcb07d4ac2e82b6",
    ("multi160", "leopard", "natural", 3, "default"): "7a34932fec076b4a",
    ("multi160", "leopard", "natural", 3, "tuned"): "e4e4d5b9dded25f1",
    ("multi160", "leopard", "random", 8, "default"): "2ee44d72004a2ecd",
    ("multi160", "leopard", "random", 8, "tuned"): "b68ecad8a0310d7f",
    ("multi160", "leopard", "bfs", 16, "default"): "7f6e378ab83c3ad1",
    ("multi160", "leopard", "bfs", 16, "tuned"): "5c91007e6a5ba705",
    ("multi160", "hermes", "natural", 3, "none"): "b6e8c55a6132ee1d",
    ("multi160", "hermes", "natural", 3, "0"): "0298eb936824122f",
    ("multi160", "hermes", "natural", 3, "5"): "bb7763d154a7230a",
    ("multi160", "hermes", "random", 8, "none"): "d00560337551780f",
    ("multi160", "hermes", "random", 8, "0"): "09f41c813b01060d",
    ("multi160", "hermes", "random", 8, "5"): "eccd5b58af514423",
    ("multi160", "hermes", "bfs", 16, "none"): "b03fe81d0fccb848",
    ("multi160", "hermes", "bfs", 16, "0"): "07115b792dd23ea4",
    ("multi160", "hermes", "bfs", 16, "5"): "989e534d22aec000",
    ("multi160", "taper", "natural", 3, "int"): "d40ae361191ffd68",
    ("multi160", "taper", "natural", 3, "frac"): "ddf4779b0f899034",
    ("multi160", "taper", "natural", 3, "ones"): "b6e8c55a6132ee1d",
    ("multi160", "taper", "random", 8, "int"): "13b0dae1c8e19706",
    ("multi160", "taper", "random", 8, "frac"): "6975728d86abff55",
    ("multi160", "taper", "random", 8, "ones"): "d00560337551780f",
    ("multi160", "taper", "bfs", 16, "int"): "c7b41187753eab13",
    ("multi160", "taper", "bfs", 16, "frac"): "3ca3bd871b2156d0",
    ("multi160", "taper", "bfs", 16, "ones"): "b03fe81d0fccb848",
    ("multi160", "failover", "natural", 3, "1.2"): "bf461a967dc999cf",
    ("multi160", "failover", "natural", 3, "1.0"): "f07d835261ed2723",
    ("multi160", "failover", "random", 8, "1.2"): "2908256f80eb921e",
    ("multi160", "failover", "random", 8, "1.0"): "1b4c3e1f8e9feb41",
    ("multi160", "failover", "bfs", 16, "1.2"): "a2c3fc377f7f87f1",
    ("multi160", "failover", "bfs", 16, "1.0"): "fa9ac7f2830d404a",
    ("multi160", "incremental", "natural", 3, "seeded"): "465252d54b668703",
    ("multi160", "incremental", "natural", 3, "shared"): "a86bff92e4f7afbf",
    ("multi160", "incremental", "random", 8, "seeded"): "6adfc127705b87ce",
    ("multi160", "incremental", "random", 8, "shared"): "bdd9ac9ac0d31bf6",
    ("multi160", "incremental", "bfs", 16, "seeded"): "8c4f016c98bc5294",
    ("multi160", "incremental", "bfs", 16, "shared"): "37cb15a17bf10240",
}


@pytest.mark.parametrize("case", sorted(UPDATE_PINS),
                         ids=lambda case: "-".join(map(str, case)))
def test_update_supporting_outputs_are_pinned(case, graphs):
    graph_name, method, order, k, variant = case
    digest = PINNED[method](graphs[graph_name], order, k, variant)
    assert digest == UPDATE_PINS[case]


def test_pin_matrix_is_complete():
    variants = {"iogp": ("default", "tuned"),
                "leopard": ("default", "tuned"),
                "hermes": ("none", "0", "5"),
                "taper": ("int", "frac", "ones"),
                "failover": ("1.2", "1.0"),
                "incremental": ("seeded", "shared")}
    expected = {(g, method, order, k, variant)
                for g in GRAPH_NAMES for method in PINNED
                for order, k in ORDER_K for variant in variants[method]}
    assert set(UPDATE_PINS) == expected


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_hermes_equals_taper_with_unit_weights(graphs, graph_name):
    """Unit traversal weights make TAPER's gain Hermes's cut-edge gain,
    so the two refinements must agree move for move."""
    graph = graphs[graph_name]
    for order, k in ORDER_K:
        base = _base(graph, order, k)
        for seed in (1, 2):
            hermes = hermes_refine(graph, base, seed=seed)
            taper = taper_refine(graph, base, np.ones(graph.num_edges),
                                 seed=seed)
            assert np.array_equal(hermes.assignment, taper.assignment)
