"""Ablation: the per-node cache model behind the super-linear scaling.

Figure 4's super-linear region exists because strong scaling shrinks every
node's working set until it fits in cache, making the per-item compute
cheaper than it was on one node.  This ablation runs the same scaling sweep
with the cache speed-up disabled and shows that (a) the super-linear
efficiency disappears while (b) the rack-boundary degradation — a purely
network-topology effect — remains.  It also checks the rack-size knob: with
larger racks the degradation point moves accordingly.
"""

from __future__ import annotations

from repro.distributed.scaling import (
    ClusterSpec,
    NetworkModel,
    ScalingConfig,
    strong_scaling_study,
)
from repro.utils.tables import Table

NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64)


def _config(cache_speedup: float, rack_size: int = 32) -> ScalingConfig:
    return ScalingConfig(
        num_latent=64,
        buffer_capacity=256,
        cluster=ClusterSpec(cores_per_node=16, rack_size=rack_size,
                            cache_bytes=32 * 1024 * 1024,
                            cache_speedup=cache_speedup),
        network=NetworkModel(intra_bandwidth=1.8e9, inter_bandwidth=0.7e9,
                             uplink_bandwidth=4.0e9, inter_latency=1.2e-5),
    )


def test_cache_model_ablation(benchmark, movielens_scaling_workload):
    def run_ablation():
        with_cache = strong_scaling_study(movielens_scaling_workload,
                                          node_counts=NODE_COUNTS,
                                          config=_config(cache_speedup=1.35))
        without_cache = strong_scaling_study(movielens_scaling_workload,
                                             node_counts=NODE_COUNTS,
                                             config=_config(cache_speedup=1.0))
        big_racks = strong_scaling_study(movielens_scaling_workload,
                                         node_counts=(32, 64),
                                         config=_config(cache_speedup=1.35,
                                                        rack_size=64))
        return with_cache, without_cache, big_racks

    with_cache, without_cache, big_racks = benchmark.pedantic(run_ablation,
                                                              rounds=1,
                                                              iterations=1)

    table = Table(["nodes", "efficiency with cache model (%)",
                   "efficiency without cache model (%)"],
                  title="Cache-model ablation (Figure 4 super-linearity)")
    for a, b in zip(with_cache.points, without_cache.points):
        table.add_row(a.n_nodes, 100 * a.parallel_efficiency,
                      100 * b.parallel_efficiency)
    print()
    print(table.render())

    eff_with = {p.n_nodes: p.parallel_efficiency for p in with_cache.points}
    eff_without = {p.n_nodes: p.parallel_efficiency for p in without_cache.points}

    # Super-linear efficiency appears only with the cache model...
    assert max(eff_with[n] for n in (8, 16, 32)) > 1.0
    assert all(eff_without[n] <= 1.02 for n in NODE_COUNTS)
    # ...while the rack-boundary collapse is present in both variants.
    assert eff_with[64] < 0.7 * eff_with[32]
    assert eff_without[64] < 0.7 * eff_without[32]

    # With 64-node racks the 64-node point stays inside one rack and keeps
    # its efficiency, confirming the degradation is the rack boundary.
    eff_big = {p.n_nodes: p.parallel_efficiency for p in big_racks.points}
    relative = eff_big[64] / eff_big[32]
    assert relative > 0.8
    print(f"with 64-node racks, efficiency(64)/efficiency(32) = {relative:.2f} "
          "(no rack boundary crossed)")
