"""Tests for repro.database.cluster: workers and ownership."""

import dataclasses

import numpy as np
import pytest

from repro.database import Cluster, ServiceModel
from repro.errors import ConfigurationError

NAN, INF = float("nan"), float("inf")


class TestCluster:
    def test_owner_lookup(self):
        owner = np.array([0, 1, 1, 0])
        cluster = Cluster(2, owner)
        assert cluster.owner(0) == 0
        assert cluster.owner(2) == 1

    def test_worker_count(self):
        cluster = Cluster(4, np.zeros(10, dtype=np.int64))
        assert cluster.num_workers == 4
        assert len(cluster.workers) == 4

    def test_reset_clears_state(self):
        cluster = Cluster(2, np.zeros(4, dtype=np.int64))
        worker = cluster.workers[0]
        worker.busy_until = 99.0
        worker.stats.vertices_read = 7
        cluster.reset()
        assert cluster.workers[0].busy_until == 0.0
        assert cluster.workers[0].stats.vertices_read == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            Cluster(0, np.zeros(4, dtype=np.int64))

    def test_model_scaled_by_cluster_size(self):
        base = ServiceModel(request_base_seconds=1e-3,
                            cluster_overhead_per_worker=0.1)
        small = Cluster(1, np.zeros(1, dtype=np.int64), base)
        large = Cluster(10, np.zeros(1, dtype=np.int64), base)
        assert (large.model.request_base_seconds
                > small.model.request_base_seconds)

    def test_default_model_used(self):
        cluster = Cluster(2, np.zeros(2, dtype=np.int64))
        assert cluster.model.request_base_seconds > 0

    @pytest.mark.parametrize("speed", [NAN, INF, 0.0, -1.0])
    def test_bad_worker_speed_rejected(self, speed):
        # A NaN speed used to fail inside the simulator's event heap.
        with pytest.raises(ConfigurationError, match="worker 0 speed"):
            Cluster(4, np.zeros(4, dtype=np.int64),
                    worker_speeds=[speed, 1, 1, 1])


class TestServiceModel:
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ServiceModel)])
    @pytest.mark.parametrize("value", [NAN, INF, -1.0])
    def test_every_field_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServiceModel(**{field: value})

    def test_zero_is_a_valid_constant(self):
        model = ServiceModel(think_seconds=0.0, network_rtt_seconds=0.0)
        assert model.scaled(4).think_seconds == 0.0
