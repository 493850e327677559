"""The DES sampler's complete-tick-grid contract.

``ClosedLoopSimulation.run`` promises (docs/telemetry.md) that a sampled
run yields the *complete* grid ``[tick, 2*tick, ..., duration]`` no
matter how the event stream happens to end.  Before the post-loop drain,
that held only incidentally: the in-loop flush fires a pending tick just
before the first event at-or-after it, so any grid time between the last
processed event and the horizon was silently dropped whenever the heap
emptied first.  A closed loop never empties its heap (every completion
re-arms its client), which is exactly why the hole survived unnoticed —
the contract was carried by a workload property, not by the loop.  The
drain makes it structural; these tests pin it across scenarios so a
future loop restructuring cannot quietly reopen the hole.

``repro.database._reference`` deliberately keeps the pre-drain loop
verbatim; in every scenario here the in-loop flush already completes the
grid, so the equivalence suite (``test_substrate_equivalence.py``) stays
byte-identical across the fix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.simulation import ClosedLoopSimulation
from repro.database.workload import QueryBinding
from repro.faults import FaultSchedule
from repro.graph.generators import erdos_renyi
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import TimeSeriesSampler


def expected_grid(duration: float, tick: float) -> list[float]:
    """The exact float grid the run must emit.

    Replicates the loop's repeated ``next_tick += tick`` accumulation
    (NOT ``i * tick``, which rounds differently), then the horizon.
    """
    grid = []
    next_tick = tick
    while next_tick < duration:
        grid.append(next_tick)
        next_tick += tick
    grid.append(duration)
    return grid


@pytest.fixture(scope="module")
def cluster():
    graph = erdos_renyi(24, 60, seed=7)
    return graph, np.arange(24) % 4


def run_sampled(cluster, *, duration, sample_interval=None, fault=None,
                background=None):
    graph, assignment = cluster
    sim = ClosedLoopSimulation(graph, assignment, 4, clients_per_worker=1,
                               fault_schedule=fault)
    sampler = TimeSeriesSampler(MetricsRegistry())
    sim.run([QueryBinding("one_hop", 1), QueryBinding("one_hop", 5)],
            duration=duration, sampler=sampler,
            sample_interval=sample_interval, background_work=background)
    return sampler


class TestCompleteGrid:
    def test_default_interval_is_ten_ticks_plus_horizon(self, cluster):
        sampler = run_sampled(cluster, duration=0.3)
        assert sampler.times() == expected_grid(0.3, 0.3 / 10.0)

    def test_interval_not_dividing_duration(self, cluster):
        # 0.25 / 0.07 leaves a 0.04 remainder: the last in-loop tick and
        # the horizon sample must not collapse or drift.
        sampler = run_sampled(cluster, duration=0.25, sample_interval=0.07)
        assert sampler.times() == expected_grid(0.25, 0.07)

    def test_coarse_interval_near_horizon(self, cluster):
        # One grid tick just under the horizon — the regime where a
        # truncating sampler loses the most (its only pre-horizon point).
        sampler = run_sampled(cluster, duration=0.25, sample_interval=0.2)
        assert sampler.times() == [0.2, 0.25]

    def test_grid_survives_faults(self, cluster):
        # Lost requests add timeout/retry events; the drain is unchanged.
        sampler = run_sampled(
            cluster, duration=0.3, sample_interval=0.05,
            fault=FaultSchedule.single_crash(1, 0.0, 0.03, seed=3))
        assert sampler.times() == expected_grid(0.3, 0.05)

    def test_grid_survives_background_work(self, cluster):
        sampler = run_sampled(cluster, duration=0.3, sample_interval=0.05,
                              background=[(0.0, 0, 0.02), (0.01, 0, 0.02)])
        assert sampler.times() == expected_grid(0.3, 0.05)


class TestHorizonSampleSemantics:
    def test_only_horizon_sample_sees_latency_histogram(self, cluster):
        """Pre-horizon ticks observe event-time state only: the latency
        and per-worker histograms are folded in after the loop, so they
        may appear in no sample but the closing one at ``duration``."""
        sampler = run_sampled(cluster, duration=0.3, sample_interval=0.05)
        *pre, horizon = sampler.samples
        assert horizon.time == 0.3
        for sample in pre:
            hist = sample.histograms.get("db.query.latency_seconds")
            assert hist is None or hist["count"] == 0
        assert horizon.histograms["db.query.latency_seconds"]["count"] > 0
        assert horizon.histograms["db.worker.busy_seconds"]["count"] == 4

    def test_samples_strictly_increase(self, cluster):
        times = run_sampled(cluster, duration=0.3,
                            sample_interval=0.04).times()
        assert times == sorted(set(times))
