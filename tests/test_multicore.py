"""Tests for threaded sampling (correctness) and the Figure 3 sweep (shape)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.parallel.sweep import (
    default_schedulers,
    multicore_thread_sweep,
    sweep_tasks,
)


class TestMulticoreTasks:
    def test_phase_tasks_counts(self, chembl_tiny):
        ratings = chembl_tiny.ratings
        movie_tasks, user_tasks = sweep_tasks(ratings, num_latent=8)
        assert len(movie_tasks) == ratings.n_movies
        assert len(user_tasks) == ratings.n_users

    def test_task_ids_do_not_collide_across_phases(self, chembl_tiny):
        movie_tasks, user_tasks = sweep_tasks(chembl_tiny.ratings, num_latent=8)
        ids = {t.task_id for t in movie_tasks} | {t.task_id for t in user_tasks}
        assert len(ids) == len(movie_tasks) + len(user_tasks)

    def test_task_durations_follow_degrees(self, chembl_tiny):
        ratings = chembl_tiny.ratings
        tasks, _ = sweep_tasks(ratings, num_latent=8)
        degrees = ratings.movie_degrees()
        heaviest = int(np.argmax(degrees))
        lightest = int(np.argmin(degrees))
        assert tasks[heaviest].duration > tasks[lightest].duration


class TestMulticoreSamplerCorrectness:
    """``SamplerOptions(n_threads=...)``: the one sampler on a thread pool
    (its bitwise parity is pinned by ``tests/test_one_chain.py``)."""

    def test_shared_engine_bitwise_parity_with_sequential(self, tiny_dataset,
                                                          tiny_config):
        """engine="shared" reproduces the sequential chain bit for bit,
        and the run tears its worker pool down on exit."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=9)
        sampler = GibbsSampler(
            tiny_config, SamplerOptions(engine="shared", n_workers=2))
        shared = sampler.run(tiny_dataset.split.train, tiny_dataset.split,
                             seed=9)
        np.testing.assert_array_equal(shared.state.user_factors,
                                      seq.state.user_factors)
        np.testing.assert_array_equal(shared.state.movie_factors,
                                      seq.state.movie_factors)
        assert shared.final_rmse == seq.final_rmse
        assert not sampler.engine.pool_running  # closed by run()'s finally

    def test_trace_lengths(self, tiny_dataset, tiny_config):
        result = GibbsSampler(tiny_config, SamplerOptions(n_threads=2)).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=0)
        assert len(result.rmse_burn_in) == tiny_config.burn_in
        assert len(result.rmse_running_mean) == tiny_config.n_samples

    def test_accuracy_on_low_rank_signal(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=6, n_samples=10, alpha=8.0)
        result = GibbsSampler(config, SamplerOptions(n_threads=2)).run(
            small_dataset.split.train, small_dataset.split, seed=1)
        assert result.final_rmse < 2.5 * small_dataset.config.noise_std

    def test_mismatched_state_rejected(self, tiny_dataset, small_dataset, tiny_config):
        from repro.core.state import initialize_state
        state = initialize_state(small_dataset.split.train, tiny_config, 0)
        with pytest.raises(Exception):
            GibbsSampler(tiny_config, SamplerOptions(n_threads=2)).run(
                tiny_dataset.split.train, tiny_dataset.split, seed=0,
                state=state)


class TestFigure3Sweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        # A mid-size ChEMBL-like workload: large enough for the heavy-tailed
        # target degrees to create the load imbalance Figure 3 is about.
        from repro.datasets import make_chembl_like
        ratings = make_chembl_like(scale=100.0, seed=11).ratings
        return multicore_thread_sweep(ratings, num_latent=32,
                                      thread_counts=(1, 2, 4, 8, 16))

    def test_all_three_execution_models_present(self, sweep):
        assert set(sweep.throughput) == {"TBB", "OpenMP", "GraphLab"}

    def test_throughput_scales_with_threads(self, sweep):
        """Figure 3: every implementation scales with the core count."""
        for name, series in sweep.throughput.items():
            assert series[-1] > 2.0 * series[0], name

    def test_work_stealing_beats_graph_engine_everywhere(self, sweep):
        """Figure 3: the hand-tuned versions clearly outperform GraphLab."""
        for tbb, graphlab in zip(sweep.throughput["TBB"],
                                 sweep.throughput["GraphLab"]):
            assert tbb > 2.0 * graphlab

    def test_work_stealing_beats_static_at_high_thread_count(self, sweep):
        """Figure 3: TBB > OpenMP once load imbalance starts to matter."""
        assert sweep.throughput["TBB"][-1] > sweep.throughput["OpenMP"][-1]

    def test_speedup_series_normalised(self, sweep):
        for name in sweep.throughput:
            speedup = sweep.speedup(name)
            assert speedup[0] == pytest.approx(1.0)
            assert all(later >= 0.9 for later in speedup)

    def test_table_rendering(self, sweep):
        table = sweep.to_table()
        text = table.render()
        assert "threads" in text
        assert "TBB" in text
        assert len(table.rows) == 5

    def test_default_schedulers_factory(self):
        schedulers = default_schedulers()
        assert set(schedulers) == {"TBB", "OpenMP", "GraphLab"}

    def test_invalid_thread_count(self, chembl_tiny):
        with pytest.raises(Exception):
            multicore_thread_sweep(chembl_tiny.ratings, thread_counts=(0, 2))
