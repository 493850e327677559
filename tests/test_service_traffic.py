"""The traffic model's popularity sampler is numpy's ``Generator.choice``.

:class:`repro.service.traffic.PopularitySampler` builds the popularity
CDF once per epoch instead of once per draw.  Every service digest rests
on it returning what ``rng.choice(n, p=p)`` and ``rng.choice(n, size=k,
replace=False, p=p)`` return *and* consuming the same uniforms.  These
tests compare the two draw by draw and then compare the generators'
next output, so a numpy release that changes ``choice`` fails here
instead of silently shifting every service digest.
"""

import numpy as np
import pytest

from repro.graph.generators import ldbc_like
from repro.rng import make_rng
from repro.service.traffic import PopularitySampler


def _normalised(weights: np.ndarray) -> np.ndarray:
    weights = weights.astype(np.float64)
    return weights / weights.sum()


def _popularities() -> dict:
    rng = make_rng(99)
    degree = ldbc_like(num_vertices=500, avg_degree=10.0, seed=3).degree
    hot = np.full(200, 1e-3)
    hot[17] = 50.0  # one vertex holds ~99.6% of the mass: constant collisions
    return {
        "degree+1": _normalised(degree + 1.0),
        "pareto": _normalised(rng.pareto(1.1, 1_000) + 1e-9),
        "hot-vertex": _normalised(hot),
        "uniform": _normalised(np.ones(64)),
        "three-vertices": _normalised(np.array([0.7, 0.2, 0.1])),
    }


POPULARITIES = _popularities()


@pytest.mark.parametrize("seed", [0, 7, 11, 2**31 + 5])
@pytest.mark.parametrize("name", sorted(POPULARITIES))
def test_draws_and_state_match_generator_choice(name, seed):
    popularity = POPULARITIES[name]
    n = popularity.size
    sampler = PopularitySampler(popularity)
    ours, numpys = make_rng(seed), make_rng(seed)
    for step in range(300):
        if step % 2:
            assert sampler.one(ours) == int(numpys.choice(n, p=popularity))
        else:
            fanout = 1 + step % 3
            got = sampler.distinct(ours, fanout)
            want = numpys.choice(n, size=fanout, replace=False, p=popularity)
            assert got.tolist() == want.tolist()
    assert ours.random() == numpys.random()


def test_collisions_take_the_fallback_rounds():
    """The hot-vertex vector collides on nearly every multi-draw; the
    zero-and-recumulate rounds must still match numpy."""
    popularity = POPULARITIES["hot-vertex"]
    sampler = PopularitySampler(popularity)
    ours, numpys = make_rng(5), make_rng(5)
    for _ in range(200):
        got = sampler.distinct(ours, 3)
        want = numpys.choice(popularity.size, size=3, replace=False,
                             p=popularity)
        assert got.tolist() == want.tolist()
        assert len(set(got.tolist())) == 3
    assert ours.random() == numpys.random()


def test_oversized_sample_raises_like_numpy():
    popularity = POPULARITIES["three-vertices"]
    with pytest.raises(ValueError):
        make_rng(0).choice(3, size=4, replace=False, p=popularity)
    with pytest.raises(ValueError):
        PopularitySampler(popularity).distinct(make_rng(0), 4)
