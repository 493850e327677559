"""Algorithm registry keyed by the paper's acronyms (Table 2).

Maps the names used throughout the paper's tables and figures — ECR, LDG,
FNL, MTS, VCR, Grid, DBH, HDRF, HCR, HG — to partitioner factories, so the
experiment harness can sweep "all algorithms" the way the paper does.
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.errors import ConfigurationError
from repro.partitioning.edge_cut.fennel import FennelPartitioner
from repro.partitioning.edge_cut.hashing import HashVertexPartitioner
from repro.partitioning.edge_cut.iogp import IogpPartitioner
from repro.partitioning.edge_cut.leopard import LeopardPartitioner
from repro.partitioning.edge_cut.ldg import LdgPartitioner
from repro.partitioning.edge_cut.restreaming import (
    RestreamingFennelPartitioner,
    RestreamingLdgPartitioner,
)
from repro.partitioning.hybrid.ginger import GingerPartitioner
from repro.partitioning.hybrid.hybrid_hash import HybridHashPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.partitioning.vertex_cut.dbh import DbhPartitioner
from repro.partitioning.vertex_cut.greedy import GreedyVertexCutPartitioner
from repro.partitioning.vertex_cut.grid import GridPartitioner
from repro.partitioning.vertex_cut.hashing import HashEdgePartitioner
from repro.partitioning.vertex_cut.hdrf import HdrfPartitioner

_FACTORIES: dict[str, Callable[..., object]] = {
    # Edge-cut (vertex streams) — Section 4.1.
    "ecr": HashVertexPartitioner,
    "ldg": LdgPartitioner,
    "fennel": FennelPartitioner,
    "re-ldg": RestreamingLdgPartitioner,
    "re-fennel": RestreamingFennelPartitioner,
    "iogp": IogpPartitioner,
    "leopard": LeopardPartitioner,
    "mts": MultilevelPartitioner,
    # Vertex-cut (edge streams) — Section 4.2.
    "vcr": HashEdgePartitioner,
    "dbh": DbhPartitioner,
    "grid": GridPartitioner,
    "greedy": GreedyVertexCutPartitioner,
    "hdrf": HdrfPartitioner,
    # Hybrid-cut — Section 4.3.
    "hcr": HybridHashPartitioner,
    "hg": GingerPartitioner,
}

#: Aliases used in the paper's figures.
_ALIASES = {
    "fnl": "fennel",
    "hash": "ecr",
    "metis": "mts",
    "ginger": "hg",
    "hybrid-random": "hcr",
}

#: Cut model per algorithm, as classified in Table 1 / Table 2.
CUT_MODELS = {
    "ecr": "edge-cut",
    "ldg": "edge-cut",
    "fennel": "edge-cut",
    "re-ldg": "edge-cut",
    "re-fennel": "edge-cut",
    "iogp": "edge-cut",
    "leopard": "edge-cut",
    "mts": "edge-cut",
    "vcr": "vertex-cut",
    "dbh": "vertex-cut",
    "grid": "vertex-cut",
    "greedy": "vertex-cut",
    "hdrf": "vertex-cut",
    "hcr": "hybrid-cut",
    "hg": "hybrid-cut",
}

#: The algorithm sets used by the paper's two experiment families
#: (Table 2: "Parameters / Algorithms").
OFFLINE_ALGORITHMS = ("vcr", "grid", "dbh", "hdrf", "hcr", "hg", "ecr", "ldg",
                      "fennel", "mts")
ONLINE_ALGORITHMS = ("ecr", "ldg", "fennel", "mts")


def canonical_name(name: str) -> str:
    """Resolve aliases to the registry's canonical algorithm name."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        known = sorted(set(_FACTORIES) | set(_ALIASES))
        raise ConfigurationError(f"unknown algorithm {name!r}; known: {known}")
    return key


def accepts_seed(name: str) -> bool:
    """Whether the partitioner registered under *name* takes ``seed=``.

    Read from the factory's signature, so it follows the constructor: the
    hash-based algorithms are stateless and take only ``hash_seed``.
    Callers that sweep "all algorithms" with one seed use this to drop
    the keyword for them — explicitly, rather than by catching
    ``TypeError`` (which would also swallow a genuine constructor bug)."""
    factory = _FACTORIES[canonical_name(name)]
    return "seed" in inspect.signature(factory).parameters


def make_partitioner(name: str, **kwargs):
    """Instantiate the partitioner registered under *name* (or an alias)."""
    return _FACTORIES[canonical_name(name)](**kwargs)


def make_seeded_partitioner(name: str, seed: int, **kwargs):
    """Instantiate *name* with ``seed=seed`` when it accepts one.

    The uniform constructor the experiment harness sweeps with: seedable
    algorithms get the seed, hash-based ones are built without it, and a
    ``TypeError`` raised *inside* a constructor propagates untouched."""
    if accepts_seed(name):
        return make_partitioner(name, seed=seed, **kwargs)
    return make_partitioner(name, **kwargs)


def cut_model(name: str) -> str:
    """The cut model ('edge-cut' | 'vertex-cut' | 'hybrid-cut') of *name*."""
    return CUT_MODELS[canonical_name(name)]


def available_algorithms() -> tuple[str, ...]:
    """All canonical algorithm names."""
    return tuple(sorted(_FACTORIES))
