"""Tests for the benchmark harness drivers (small parameterisations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.accuracy import run_accuracy_parity
from repro.bench.fig2_update_methods import run_fig2
from repro.bench.fig3_multicore import run_fig3
from repro.bench.fig4_strong_scaling import bluegene_like_config, run_fig4
from repro.bench.runner import available_experiments, run_experiment
from repro.bench.speedup_summary import run_speedup_summary
from repro.core.priors import BPMFConfig
from repro.datasets import make_scaling_workload
from repro.distributed.scaling import ClusterSpec, ScalingConfig
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def small_scaling_workload():
    return make_scaling_workload(n_users=4000, n_movies=800, n_ratings=80_000, seed=9)


class TestFig2Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(degrees=(1, 8, 64, 512, 2048), repeats=1,
                        max_rank_one_degree=512)

    def test_series_lengths(self, result):
        assert len(result.degrees) == 5
        for series in list(result.measured.values()) + list(result.modelled.values()):
            assert len(series) == 5

    def test_modelled_crossovers_reproduce_figure2_shape(self, result):
        assert result.crossover("modelled", "rank-one update",
                                "serial Cholesky") <= 512
        crossover = result.crossover("modelled", "serial Cholesky",
                                     "parallel Cholesky")
        assert crossover is not None and crossover >= 512

    def test_measured_rank_one_capped(self, result):
        assert np.isnan(result.measured["rank-one update"][-1])

    def test_tables_render(self, result):
        assert "#ratings" in result.to_table("modelled").render()
        assert "rank-one" in result.to_table("measured").render()


class TestFig3Driver:
    def test_shape_properties(self):
        result = run_fig3(chembl_scale=200, num_latent=32, thread_counts=(1, 4, 16))
        assert result.thread_counts == [1, 4, 16]
        assert result.speedup("TBB")[0] == pytest.approx(1.0)
        assert result.throughput["TBB"][-1] > result.throughput["GraphLab"][-1]
        assert "threads" in result.to_table().render()


class TestFig4AndFig5Drivers:
    @pytest.fixture(scope="class")
    def config(self):
        return ScalingConfig(
            num_latent=32,
            cluster=ClusterSpec(rack_size=4, cache_bytes=1024 * 1024),
        )

    def test_fig4_shape(self, small_scaling_workload, config):
        result = run_fig4(ratings=small_scaling_workload,
                          node_counts=(1, 2, 4, 8, 16), config=config)
        assert result.node_counts == [1, 2, 4, 8, 16]
        throughput = result.throughput_series()
        assert throughput[2] > throughput[0]
        efficiency = result.efficiency_series()
        assert efficiency[0] == pytest.approx(1.0)
        assert efficiency[-1] < efficiency[1]
        assert "parallel efficiency" in result.to_table().render()

    def test_fig5_fractions(self, small_scaling_workload, config):
        result = run_fig4(ratings=small_scaling_workload, node_counts=(1, 4, 16),
                          config=config)
        shares = [p.breakdown_fractions() for p in result.scaling.points]
        fractions = {key: [share[key] for share in shares] for key in shares[0]}
        assert set(fractions) == {"compute", "both", "communicate"}
        assert fractions["compute"][0] == pytest.approx(1.0)
        assert fractions["communicate"][-1] > fractions["communicate"][0]
        for i in range(3):
            assert (fractions["compute"][i] + fractions["both"][i]
                    + fractions["communicate"][i]) == pytest.approx(1.0)

    def test_bluegene_like_config_values(self):
        config = bluegene_like_config(num_latent=48, rack_size=16)
        assert config.cluster.rack_size == 16
        assert config.num_latent == 48
        assert config.network.inter_bandwidth < config.network.intra_bandwidth


class TestAccuracyDriver:
    def test_parity_summary(self, small_dataset):
        config = BPMFConfig(num_latent=4, burn_in=3, n_samples=5, alpha=4.0)
        result = run_accuracy_parity(small_dataset.split.train, small_dataset.split,
                                     config=config, n_ranks=3, seed=1)
        assert set(result.final_rmse) == {
            "sequential", "multicore", "distributed (gather)", "distributed (stats)"}
        assert result.exact_match["multicore"]
        assert result.exact_match["distributed (gather)"]
        assert result.max_rmse_gap() < 0.1
        assert "implementation" in result.to_table().render()


class TestSpeedupDriver:
    def test_speedup_ladder(self):
        result = run_speedup_summary(chembl_scale=300, n_iterations=10,
                                     distributed_nodes=32)
        speedups = result.speedups()
        baseline = "single-core (initial implementation)"
        assert speedups[baseline] == pytest.approx(1.0)
        multicore = speedups["single node, multicore (TBB-like)"]
        distributed = speedups["distributed (32 nodes)"]
        assert multicore > 10.0
        assert distributed > multicore
        assert "speed-up" in result.to_table().render()


class TestRunner:
    def test_available_experiments(self):
        # Exactly the paper's figures and claims: perfbench is the only
        # timing harness, so no wall-clock ladder may register here.
        assert list(available_experiments()) == [
            "fig2", "fig3", "fig4", "fig5", "accuracy", "speedup"]

    def test_run_experiment_by_name(self):
        outcome = run_experiment("fig2", degrees=(1, 64, 2048), repeats=1)
        assert outcome.name == "fig2"
        assert outcome.seconds >= 0.0
        assert "Figure 2" in outcome.render()

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            run_experiment("fig99")


def test_make_bench_snapshot_import_path_is_frozen():
    # perfbench/workloads/serve.py imports it from exactly here, and a PR
    # that touches src/ may not edit perfbench/ — so the path cannot move
    # without a benchmark PR.
    from repro.bench.serving import make_bench_snapshot

    snapshot = make_bench_snapshot(6, 5, 3, seed=1)
    assert snapshot.state.user_factors.shape == (6, 3)
    assert snapshot.state.movie_factors.shape == (5, 3)
