"""Shape tests for the strong-scaling performance model (Figures 4 and 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.scaling_workload import make_scaling_workload
from repro.distributed import scaling
from repro.distributed.scaling import (
    ClusterSpec,
    NetworkModel,
    ScalingConfig,
    strong_scaling_study,
)


@pytest.fixture(scope="module")
def workload():
    """A mid-size structural workload (seconds to model, minutes saved)."""
    return make_scaling_workload(n_users=12_000, n_movies=2_400,
                                 n_ratings=400_000, seed=5)


@pytest.fixture(scope="module")
def study(workload):
    config = ScalingConfig(
        num_latent=32,
        buffer_capacity=128,
        cluster=ClusterSpec(cores_per_node=16, rack_size=8,
                            cache_bytes=2 * 1024 * 1024, cache_speedup=1.3),
        network=NetworkModel(intra_bandwidth=1.8e9, inter_bandwidth=0.7e9,
                             uplink_bandwidth=4e9),
    )
    return strong_scaling_study(workload, node_counts=(1, 2, 4, 8, 16, 32),
                                config=config)


class TestStrongScalingShape:
    def test_points_cover_requested_node_counts(self, study):
        assert [p.n_nodes for p in study.points] == [1, 2, 4, 8, 16, 32]
        assert all(p.n_cores == 16 * p.n_nodes for p in study.points)

    def test_throughput_increases_within_one_rack(self, study):
        """Scaling should be good while the allocation fits one rack."""
        in_rack = [p for p in study.points if p.n_nodes <= 8]
        throughputs = [p.throughput for p in in_rack]
        assert throughputs == sorted(throughputs)
        assert throughputs[-1] > 4.0 * throughputs[0]

    def test_efficiency_high_inside_rack_then_degrades(self, study):
        eff = {p.n_nodes: p.parallel_efficiency for p in study.points}
        assert eff[1] == pytest.approx(1.0)
        assert eff[2] > 0.8
        # Significant degradation once the allocation spans several racks.
        assert eff[32] < 0.6 * eff[8]

    def test_single_node_has_no_communication(self, study):
        point = study.point(1)
        assert point.messages_per_iteration == 0
        assert point.bytes_per_iteration == 0.0
        assert point.breakdown_fractions()["compute"] == pytest.approx(1.0)

    def test_communication_share_grows_with_nodes(self, study):
        shares = [p.breakdown_fractions()["communicate"] for p in study.points]
        assert shares[0] == pytest.approx(0.0, abs=1e-9)
        assert shares[-1] > shares[1]
        assert shares[-1] > 0.2

    def test_breakdown_fractions_sum_to_one(self, study):
        for point in study.points:
            assert sum(point.breakdown_fractions().values()) == pytest.approx(1.0)

    def test_messages_and_bytes_grow_with_nodes(self, study):
        messages = [p.messages_per_iteration for p in study.points]
        assert messages[-1] > messages[1] > 0

    def test_cache_factor_grows_as_partitions_shrink(self, study):
        factors = [p.cache_factor_mean for p in study.points]
        assert factors[-1] >= factors[0]

    def test_tables_render(self, study):
        fig4 = study.to_table().render()
        fig5 = study.breakdown_table().render()
        assert "parallel efficiency" in fig4
        assert "communicate" in fig5
        assert study.point(8).n_nodes == 8
        with pytest.raises(KeyError):
            study.point(999)


class TestScalingOptions:
    def test_overlap_helps(self, workload):
        base = ScalingConfig(
            num_latent=32,
            cluster=ClusterSpec(rack_size=8, cache_bytes=2 * 1024 * 1024),
            network=NetworkModel(intra_bandwidth=1.0e9, inter_bandwidth=0.5e9),
        )
        overlap = strong_scaling_study(workload, node_counts=(8,), config=base)
        no_overlap_config = ScalingConfig(**{**base.__dict__,
                                             "overlap_communication": False})
        no_overlap = strong_scaling_study(workload, node_counts=(8,),
                                          config=no_overlap_config)
        assert overlap.point(8).throughput >= no_overlap.point(8).throughput

    def test_scheduler_and_bound_paths_agree_roughly(self, workload,
                                                     monkeypatch):
        config = ScalingConfig(
            num_latent=32,
            cluster=ClusterSpec(rack_size=8, cache_bytes=2 * 1024 * 1024))
        monkeypatch.setattr(scaling, "SCHEDULER_ITEM_LIMIT", 10**9)
        exact = strong_scaling_study(workload, node_counts=(4,), config=config)
        monkeypatch.setattr(scaling, "SCHEDULER_ITEM_LIMIT", 0)
        approx = strong_scaling_study(workload, node_counts=(4,), config=config)
        ratio = exact.point(4).throughput / approx.point(4).throughput
        assert 0.7 < ratio < 1.3

    def test_larger_buffers_mean_fewer_messages(self, workload):
        small = strong_scaling_study(
            workload, node_counts=(8,),
            config=ScalingConfig(buffer_capacity=16,
                                 cluster=ClusterSpec(rack_size=8)))
        large = strong_scaling_study(
            workload, node_counts=(8,),
            config=ScalingConfig(buffer_capacity=512,
                                 cluster=ClusterSpec(rack_size=8)))
        assert large.point(8).messages_per_iteration < \
            small.point(8).messages_per_iteration
        assert large.point(8).throughput >= small.point(8).throughput

    def test_invalid_node_counts(self, workload):
        with pytest.raises(Exception):
            strong_scaling_study(workload, node_counts=(0, 2))
