"""Benchmark: Figure 5 — time spent computing, communicating, and both.

Runs the Figure 4 driver over the paper's 1–128-node range and checks the breakdown's qualitative content: on one node everything is
compute; asynchronous communication overlaps a meaningful share of the
transfer time at small/medium node counts; at large node counts the
communication share dominates and the overlap no longer helps.
"""

from __future__ import annotations

from repro.bench.fig4_strong_scaling import run_fig4

NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def test_fig5_compute_communicate_overlap(benchmark, movielens_scaling_workload,
                                          scaling_config):
    result = benchmark.pedantic(
        run_fig4,
        kwargs=dict(ratings=movielens_scaling_workload, node_counts=NODE_COUNTS,
                    config=scaling_config),
        rounds=1, iterations=1)

    print()
    print(result.breakdown_table().render())

    shares = [point.breakdown_fractions() for point in result.scaling.points]
    fractions = {key: [share[key] for share in shares]
                 for key in ("compute", "both", "communicate")}
    compute = dict(zip(result.node_counts, fractions["compute"]))
    both = dict(zip(result.node_counts, fractions["both"]))
    communicate = dict(zip(result.node_counts, fractions["communicate"]))

    # Shares are well-formed everywhere.
    for i, nodes in enumerate(result.node_counts):
        total = (fractions["compute"][i] + fractions["both"][i]
                 + fractions["communicate"][i])
        assert abs(total - 1.0) < 1e-9

    # One node: pure compute.
    assert compute[1] > 0.999
    # Compute share falls monotonically as nodes are added.
    compute_series = [compute[n] for n in NODE_COUNTS]
    assert all(a >= b - 1e-9 for a, b in zip(compute_series, compute_series[1:]))
    # Overlap is visible in the mid range (asynchronous sends hide transfers).
    assert max(both[n] for n in (8, 16, 32, 64)) > 0.05
    # At the largest node count communication dominates the iteration.
    assert communicate[128] > 0.5
    assert communicate[128] > communicate[8]
