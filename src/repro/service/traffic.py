"""Seed-deterministic interleaved mutation + query traffic.

Each epoch's traffic is a pure function of ``(config.seed, epoch,
current graph)``: mutation kinds are drawn from the configured mix,
edge-insert endpoints follow degree popularity with triadic-closure
targets (mirroring :func:`repro.database.mutations.
mixed_read_write_bindings`), deletes pick live edges uniformly, new
vertices arrive with a popularity-sampled neighbourhood, and query
bindings come from the standard :class:`~repro.database.workload.
WorkloadGenerator` with Zipf-skewed start vertices.  Determinism per
epoch (not per run position) means shedding one epoch's overflow never
perturbs the next epoch's offered load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.database.workload import QueryBinding, WorkloadGenerator
from repro.graph.digraph import Graph
from repro.rng import make_rng
from repro.service.config import ServiceConfig

#: Salt separating the mutation stream from the query stream per epoch.
_MUTATION_SALT = 0x5EED
_QUERY_SALT = 0xB1D5


@dataclass(frozen=True)
class Mutation:
    """One mutation in the offered stream.

    ``kind`` is one of :data:`repro.database.mutations.MUTATION_KINDS`
    plus ``add_vertex`` (a new entity arriving with initial edges to
    ``neighbors``).
    """

    kind: str
    u: int = -1
    v: int = -1
    neighbors: tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class EpochTraffic:
    """The offered load of one epoch, before admission control."""

    epoch: int
    mutations: tuple[Mutation, ...]
    bindings: tuple[QueryBinding, ...]


def _epoch_seed(seed: int, epoch: int, salt: int) -> int:
    """Stable scalar seed for one epoch's stream."""
    return (seed * 1_000_003 + epoch) * 2_654_435_761 + salt


class PopularitySampler:
    """Weighted vertex draws for one epoch, built once, drawn many times.

    Returns exactly what ``rng.choice(n, p=popularity)`` and
    ``rng.choice(n, size=k, replace=False, p=popularity)`` return and
    consumes the same uniforms, so the generator ends in the same state.
    ``Generator.choice`` validates and cumulates the n-length vector on
    every call; here the CDF is built once per epoch (O(n)) and each draw
    is a binary search (O(log n)).  ``tests/test_service_traffic.py``
    pins the equivalence against numpy.
    """

    def __init__(self, popularity: np.ndarray):
        self._popularity = popularity
        cdf = popularity.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def one(self, rng) -> int:
        """One draw, as ``rng.choice(n, p=popularity)``."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))

    def distinct(self, rng, size: int) -> np.ndarray:
        """*size* distinct draws, as ``rng.choice(n, size=size,
        replace=False, p=popularity)``: rounds of uniforms, keeping first
        occurrences in order; only a collision re-cumulates the CDF with
        the vertices found so far zeroed out."""
        if size > self._cdf.size:
            raise ValueError("Cannot take a larger sample than population "
                             "when replace is False")
        found = _first_occurrences(
            self._cdf.searchsorted(rng.random(size), side="right"))
        if found.size < size:
            weights = self._popularity.copy()
            while found.size < size:
                uniforms = rng.random(size - found.size)
                weights[found] = 0.0
                cdf = np.cumsum(weights)
                cdf /= cdf[-1]
                found = np.concatenate([found, _first_occurrences(
                    cdf.searchsorted(uniforms, side="right"))])
        return found


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """*values* without repeats, each kept at its first position."""
    return np.array(list(dict.fromkeys(values.tolist())), dtype=np.int64)


class TrafficModel:
    """Generates one :class:`EpochTraffic` per epoch from the live graph."""

    def __init__(self, config: ServiceConfig):
        self.config = config

    # ------------------------------------------------------------------
    def epoch_traffic(self, graph: Graph, epoch: int) -> EpochTraffic:
        config = self.config
        mutations = self._mutations(graph, epoch)
        rng_seed = _epoch_seed(config.seed, epoch, _QUERY_SALT)
        generator = WorkloadGenerator(graph, skew=config.workload_skew,
                                      min_degree=1, seed=rng_seed)
        bindings = tuple(generator.mixed_bindings(
            {"one_hop": 0.75, "two_hop": 0.25},
            count=config.query_bindings_per_epoch))
        return EpochTraffic(epoch=epoch, mutations=mutations,
                            bindings=bindings)

    # ------------------------------------------------------------------
    def _mutations(self, graph: Graph, epoch: int) -> tuple[Mutation, ...]:
        config = self.config
        count = config.mutations_per_epoch
        if count == 0:
            return ()
        rng = make_rng(_epoch_seed(config.seed, epoch, _MUTATION_SALT))
        mix = np.array([config.edge_add_fraction,
                        config.edge_delete_fraction,
                        config.vertex_add_fraction,
                        config.vertex_remove_fraction,
                        config.update_fraction], dtype=np.float64)
        mix = mix / mix.sum()
        kinds = rng.choice(5, size=count, p=mix)
        degree = graph.degree.astype(np.float64)
        popularity = degree + 1.0
        popularity /= popularity.sum()
        sampler = PopularitySampler(popularity)
        out: list[Mutation] = []
        for kind_index in kinds.tolist():
            if kind_index == 0:
                out.append(self._edge_add(graph, rng, sampler))
            elif kind_index == 1:
                out.append(self._edge_delete(graph, rng, sampler))
            elif kind_index == 2:
                out.append(self._vertex_add(rng, sampler))
            elif kind_index == 3:
                out.append(Mutation(
                    "remove_vertex",
                    u=int(rng.integers(0, graph.num_vertices))))
            else:
                out.append(Mutation("update_vertex", u=sampler.one(rng)))
        return tuple(out)

    def _edge_add(self, graph: Graph, rng,
                  sampler: PopularitySampler) -> Mutation:
        src = sampler.one(rng)
        dst = sampler.one(rng)
        friends = graph.neighbors(src)
        if friends.size:
            # Triadic closure: prefer a friend-of-a-friend.
            friend = int(friends[rng.integers(0, friends.size)])
            candidates = graph.neighbors(friend)
            candidates = candidates[candidates != src]
            if candidates.size:
                dst = int(candidates[rng.integers(0, candidates.size)])
        return Mutation("insert_edge", u=src, v=dst)

    def _edge_delete(self, graph: Graph, rng,
                     sampler: PopularitySampler) -> Mutation:
        if graph.num_edges == 0:
            # Nothing to delete: degrade to a property update.
            return Mutation("update_vertex", u=sampler.one(rng))
        eid = int(rng.integers(0, graph.num_edges))
        return Mutation("delete_edge", u=int(graph.src[eid]),
                        v=int(graph.dst[eid]))

    def _vertex_add(self, rng, sampler: PopularitySampler) -> Mutation:
        fanout = int(rng.integers(1, 4))
        neighbors = sampler.distinct(rng, fanout)
        return Mutation("add_vertex",
                        neighbors=tuple(int(n) for n in neighbors.tolist()))
