"""Canonical datasets and scale profiles for the reproduction.

The paper's datasets (Table 3) are substituted by synthetic generators of
matching structure (see DESIGN.md §1).  Three scale profiles exist:

* ``quick``   — seconds-scale runs, used by the test suite and the
  pytest-benchmark harness;
* ``default`` — the scale EXPERIMENTS.md numbers are produced at;
* ``large``   — a stress profile for ad-hoc exploration.

Select a profile with the ``REPRO_SCALE`` environment variable or the
``scale=`` argument of :func:`load_dataset`.  Every generator call is
seeded, so a (dataset, scale) pair is bit-for-bit reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.analysis import classify_graph, degree_stats
from repro.graph.digraph import Graph
from repro.graph.generators import ldbc_like, road_like, twitter_like, web_like

#: Dataset keys, mirroring Table 3 (plus the LDBC graph used online).
DATASETS = ("twitter", "uk-web", "usa-road", "ldbc-snb")
#: Datasets used in the offline-analytics experiments (Table 2).
OFFLINE_DATASETS = ("twitter", "uk-web", "usa-road")
#: The dataset the online (database) experiments run on.
ONLINE_DATASET = "ldbc-snb"
SCALES = ("quick", "default", "large")

#: Fixed generator seed per dataset so every experiment sees the same graph.
_DATASET_SEEDS = {"twitter": 11, "uk-web": 13, "usa-road": 17, "ldbc-snb": 19}

#: Per-scale generator parameters.
_PARAMS = {
    "quick": {
        "twitter": dict(num_vertices=4_000, avg_degree=12.0),
        "uk-web": dict(scale=12, edge_factor=12.0),
        "usa-road": dict(num_vertices=5_000),
        "ldbc-snb": dict(num_vertices=4_000, avg_degree=16.0),
    },
    "default": {
        "twitter": dict(num_vertices=20_000, avg_degree=17.0),
        "uk-web": dict(scale=14, edge_factor=18.0),
        "usa-road": dict(num_vertices=25_000),
        "ldbc-snb": dict(num_vertices=12_000, avg_degree=24.0),
    },
    "large": {
        "twitter": dict(num_vertices=60_000, avg_degree=20.0),
        "uk-web": dict(scale=16, edge_factor=18.0),
        "usa-road": dict(num_vertices=90_000),
        "ldbc-snb": dict(num_vertices=40_000, avg_degree=24.0),
    },
}

_GENERATORS = {
    "twitter": twitter_like,
    "uk-web": web_like,
    "usa-road": road_like,
    "ldbc-snb": ldbc_like,
}


@dataclass(frozen=True)
class ScaleProfile:
    """Experiment dimensions for one scale (Table 2's parameter rows)."""

    name: str
    #: Partition counts for offline analytics (paper: 8..128).
    offline_partitions: tuple[int, ...]
    #: Partition counts for online queries (paper: 4..32).
    online_partitions: tuple[int, ...]
    #: PageRank iterations (paper: 20).
    pagerank_iterations: int
    #: Query bindings per workload (paper: 1000).
    num_bindings: int
    #: Simulated seconds per online run.
    sim_duration: float
    #: Zipf skew of online start-vertex popularity.
    workload_skew: float


_PROFILES = {
    "quick": ScaleProfile("quick", (8, 16, 32), (4, 8, 16, 32), 5, 300, 0.6, 0.6),
    "default": ScaleProfile("default", (8, 16, 32, 64, 128), (4, 8, 16, 32),
                            20, 1000, 1.5, 0.6),
    "large": ScaleProfile("large", (8, 16, 32, 64, 128), (4, 8, 16, 32),
                          20, 1000, 2.0, 0.6),
}


def active_scale(scale: str | None = None) -> str:
    """Resolve the scale: explicit argument > $REPRO_SCALE > 'default'."""
    resolved = scale or os.environ.get("REPRO_SCALE", "default")
    if resolved not in SCALES:
        raise ConfigurationError(f"unknown scale {resolved!r}; expected {SCALES}")
    return resolved


def scale_profile(scale: str | None = None) -> ScaleProfile:
    """The :class:`ScaleProfile` for *scale* (resolved per :func:`active_scale`)."""
    return _PROFILES[active_scale(scale)]


@lru_cache(maxsize=16)
def _load(name: str, scale: str) -> Graph:
    params = _PARAMS[scale][name]
    graph = _GENERATORS[name](seed=_DATASET_SEEDS[name], **params)
    return graph.with_name(name)


def load_dataset(name: str, scale: str | None = None) -> Graph:
    """Load (generate + cache) a canonical dataset at a scale."""
    if name not in DATASETS:
        raise ConfigurationError(f"unknown dataset {name!r}; expected {DATASETS}")
    return _load(name, active_scale(scale))


def sssp_source(graph: Graph) -> int:
    """The fixed SSSP source for a dataset.

    The paper randomly picks one source per dataset and keeps it fixed;
    we deterministically pick the highest-out-degree vertex, which is
    guaranteed to reach a substantial part of every generated graph.
    """
    return int(np.argmax(graph.out_degree))


def dataset_summary(name: str, scale: str | None = None) -> dict:
    """One Table 3 row: size, degree profile, structural class."""
    graph = load_dataset(name, scale)
    stats = degree_stats(graph)
    return {
        "dataset": name,
        "vertices": stats.num_vertices,
        "edges": stats.num_edges,
        "avg_degree": round(stats.num_edges / max(stats.num_vertices, 1), 1),
        "max_degree": stats.max_degree,
        "type": classify_graph(graph),
    }
