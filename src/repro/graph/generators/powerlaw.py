"""Heavy-tailed social-network generator (Twitter-like).

The paper's Twitter dataset (1.46B edges, avg degree 35, max degree 2.9M)
is a follower graph with a heavily skewed in-degree distribution.  We
reproduce the *shape* at laptop scale with a directed preferential
attachment process: each new vertex emits a random number of follow edges
whose targets are chosen proportionally to current in-degree (rich get
richer) with a uniform-mixing term to keep the tail from collapsing onto a
single vertex.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.rng import make_rng


def iter_powerlaw_chunks(
    num_vertices: int,
    avg_out_degree: float = 16.0,
    *,
    uniform_mix: float = 0.2,
    seed=None,
    chunk_edges: int = 1 << 17,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The preferential-attachment process as ``(src, dst)`` edge chunks.

    The accumulated edges are flushed every ``chunk_edges`` instead of
    held whole: resident state is the in-degree endpoint pool (8
    bytes/edge) plus one chunk, which is how the ingest spillers write
    streams larger than memory.  Parameters as in
    :func:`preferential_attachment`.
    """
    if num_vertices < 2:
        raise ConfigurationError("preferential attachment needs >= 2 vertices")
    if not 0.0 <= uniform_mix <= 1.0:
        raise ConfigurationError("uniform_mix must lie in [0, 1]")
    if not (math.isfinite(avg_out_degree) and avg_out_degree > 0):
        raise ConfigurationError(
            f"avg_out_degree must be a finite number > 0, "
            f"got {avg_out_degree!r}")
    if chunk_edges < 1:
        raise ConfigurationError("chunk_edges must be >= 1")
    rng = make_rng(seed)
    core = min(max(2, int(avg_out_degree)), num_vertices)

    # Endpoint pool: every stored target id appears once per received edge,
    # so sampling uniformly from the pool is sampling ∝ in-degree.
    pool = np.empty(64, dtype=np.int64)
    pool_size = 0
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    buffered = 0

    def _append_pool(targets: np.ndarray):
        nonlocal pool, pool_size
        needed = pool_size + targets.size
        if needed > pool.size:
            pool = np.resize(pool, max(pool.size * 2, needed))
        pool[pool_size:needed] = targets
        pool_size = needed

    # Core: ring so every early vertex has in-degree >= 1.
    core_src = np.arange(core, dtype=np.int64)
    core_dst = (core_src + 1) % core
    src_parts.append(core_src)
    dst_parts.append(core_dst)
    buffered += core
    _append_pool(core_dst)

    # Pareto out-degree with the requested mean (>= 1 edge per vertex,
    # capped at n/10 so a single account cannot follow everyone).
    pareto_shape = 1.8
    pareto_mean = 1.0 / (pareto_shape - 1.0)
    scale = max(avg_out_degree - 1.0, 0.0) / pareto_mean
    raw = rng.pareto(pareto_shape, size=num_vertices - core) * scale
    cap = max(2, num_vertices // 10)
    out_counts = np.clip(raw, 0, cap).astype(np.int64) + 1

    for offset, count in enumerate(out_counts.tolist()):
        v = core + offset
        uniform = rng.random(count) < uniform_mix
        targets = np.empty(count, dtype=np.int64)
        n_uni = int(uniform.sum())
        # Uniform picks draw from [0, v) and the pool holds only earlier
        # targets, so no edge is a self loop.
        if n_uni:
            targets[uniform] = rng.integers(0, v, size=n_uni)
        n_pref = count - n_uni
        if n_pref:
            slots = rng.integers(0, pool_size, size=n_pref)
            targets[~uniform] = pool[slots]
        src_parts.append(np.full(count, v, dtype=np.int64))
        dst_parts.append(targets)
        buffered += count
        _append_pool(targets)
        if buffered >= chunk_edges:
            yield np.concatenate(src_parts), np.concatenate(dst_parts)
            src_parts, dst_parts, buffered = [], [], 0
    if buffered:
        yield np.concatenate(src_parts), np.concatenate(dst_parts)


def preferential_attachment(
    num_vertices: int,
    avg_out_degree: float = 16.0,
    *,
    uniform_mix: float = 0.2,
    seed=None,
    name: str = "pa",
) -> Graph:
    """Directed preferential-attachment graph.

    Parameters
    ----------
    num_vertices:
        Total vertex count ``n``.
    avg_out_degree:
        Mean number of out-edges per vertex; per-vertex counts are drawn
        from a Pareto law so out-degree is heavy-tailed too (real follower
        graphs have both: celebrities with millions of followers *and*
        accounts following hundreds of thousands).  The first
        ``max(2, avg_out_degree)`` vertices form a ring core.
    uniform_mix:
        Probability that an individual edge picks its target uniformly at
        random rather than by in-degree; ``0`` gives the steepest tail.

    Returns a multigraph: repeated follows are kept, matching the
    paper's treatment of datasets as raw edge lists.
    """
    chunks = list(iter_powerlaw_chunks(num_vertices, avg_out_degree,
                                       uniform_mix=uniform_mix, seed=seed))
    src = np.concatenate([chunk_src for chunk_src, _ in chunks])
    dst = np.concatenate([chunk_dst for _, chunk_dst in chunks])
    return Graph(num_vertices, src, dst, name=name)


def twitter_like(num_vertices: int = 30_000, avg_degree: float = 17.0,
                 seed=None) -> Graph:
    """The repo's stand-in for the paper's Twitter follower graph.

    Heavy-tailed in-degree (a few celebrity hubs), skewed out-degree,
    average total degree ≈ ``2 * avg_degree`` like the real dataset's 35.
    """
    return preferential_attachment(
        num_vertices,
        avg_out_degree=avg_degree,
        uniform_mix=0.15,
        seed=seed,
        name="twitter-like",
    )
