"""Correctness tests for the distributed (and bulk-synchronous) samplers."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler
from repro.core.priors import BPMFConfig
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.distributed.sync_sampler import BulkSynchronousGibbsSampler
from repro.mpi.buffers import BufferStats
from repro.mpi.simmpi import SimCommWorld
from repro.utils.validation import ValidationError


class TestDistributedSamplerParity:
    def test_gather_mode_bitwise_parity_with_sequential(self, tiny_dataset, tiny_config):
        """With gathered hyperparameters the distributed chain is identical
        to the sequential one — the strongest form of the paper's accuracy
        parity claim."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4, hyper_mode="gather",
                                            buffer_capacity=8)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        # Exactly: with one rank program on every world, the sequential
        # sampler is the independent reference.
        np.testing.assert_array_equal(dist.state.user_factors,
                                      seq.state.user_factors)
        np.testing.assert_array_equal(dist.state.movie_factors,
                                      seq.state.movie_factors)
        assert dist.final_rmse == seq.final_rmse

    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("hyper_mode", ["gather", "stats"])
    def test_generator_seed_equals_int_seed(self, tiny_dataset, tiny_config,
                                            n_ranks, hyper_mode):
        """``SeedLike`` admits a Generator: every simulated rank must draw
        from its own copy of it, not from one shared object — and the
        caller's generator advances exactly as in a sequential run."""
        sampler = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=n_ranks,
                                            hyper_mode=hyper_mode))
        train, split = tiny_dataset.split.train, tiny_dataset.split
        from_int, _ = sampler.run(train, split, seed=5)
        rng = np.random.default_rng(5)
        from_rng, _ = sampler.run(train, split, seed=rng)
        np.testing.assert_array_equal(from_rng.state.user_factors,
                                      from_int.state.user_factors)
        np.testing.assert_array_equal(from_rng.state.movie_factors,
                                      from_int.state.movie_factors)
        assert from_rng.rmse_running_mean == from_int.rmse_running_mean
        sequential = np.random.default_rng(5)
        GibbsSampler(tiny_config).run(train, split, seed=sequential)
        assert rng.bit_generator.state == sequential.bit_generator.state

    def test_shared_engine_matches_batched_distributed_run(self, tiny_dataset,
                                                           tiny_config):
        """Each rank's per-node phase through the process pool is
        bit-identical to the in-process batched engine."""
        batched, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, engine="batched")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        sampler = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, engine="shared",
                                            n_workers=2))
        shared, _ = sampler.run(tiny_dataset.split.train, tiny_dataset.split,
                                seed=21)
        np.testing.assert_array_equal(shared.state.user_factors,
                                      batched.state.user_factors)
        np.testing.assert_array_equal(shared.state.movie_factors,
                                      batched.state.movie_factors)
        assert not sampler._engine.pool_running  # closed by run()'s finally

    def test_stats_mode_statistical_parity(self, tiny_dataset, tiny_config):
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, hyper_mode="stats")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        assert abs(dist.final_rmse - seq.final_rmse) < 0.1

    def test_rank_count_does_not_change_gather_results(self, tiny_dataset, tiny_config):
        results = []
        for n_ranks in (1, 2, 5):
            result, _ = DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=n_ranks, hyper_mode="gather")
            ).run(tiny_dataset.split.train, tiny_dataset.split, seed=8)
            results.append(result)
        for result in results[1:]:
            np.testing.assert_allclose(result.state.user_factors,
                                       results[0].state.user_factors, atol=1e-8)

    def test_buffer_capacity_does_not_change_results(self, tiny_dataset, tiny_config):
        small_buffers, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=1,
                                            hyper_mode="gather")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=5)
        large_buffers, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=1000,
                                            hyper_mode="gather")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=5)
        np.testing.assert_allclose(small_buffers.state.user_factors,
                                   large_buffers.state.user_factors)

    def test_bulk_synchronous_sampler_same_samples_fewer_messages(self, tiny_dataset,
                                                                  tiny_config):
        options = DistributedOptions(n_ranks=4, buffer_capacity=4, hyper_mode="gather")
        streaming, streaming_info = DistributedGibbsSampler(tiny_config, options).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=13)
        bulk, bulk_info = BulkSynchronousGibbsSampler(tiny_config, options).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=13)
        np.testing.assert_allclose(bulk.state.user_factors,
                                   streaming.state.user_factors)
        assert bulk_info.buffer_stats.n_messages < streaming_info.buffer_stats.n_messages
        # The caller's options object must not have been mutated.
        assert options.buffer_capacity == 4

    def test_bulk_synchronous_sampler_keeps_every_option(self, tmp_path):
        from repro.serving.checkpoint import CheckpointConfig

        checkpoint = CheckpointConfig(path=tmp_path / "bulk.npz")
        options = DistributedOptions(n_ranks=2, compute_dtype="float32",
                                     engine="shared", n_workers=2,
                                     checkpoint=checkpoint)
        bulk = BulkSynchronousGibbsSampler(options=options).options
        assert bulk == replace(options, buffer_capacity=2**31 - 1)

    def test_bulk_synchronous_float32_checkpointing_run(self, tiny_dataset,
                                                        tiny_config, tmp_path):
        """A float32, checkpointing bulk run really is float32 and really
        checkpoints — same chain as the streaming sampler's."""
        from repro.serving.checkpoint import CheckpointConfig, load_snapshot

        def options(name):
            return DistributedOptions(
                n_ranks=2, compute_dtype="float32",
                checkpoint=CheckpointConfig(path=tmp_path / name))

        train, split = tiny_dataset.split.train, tiny_dataset.split
        streaming, _ = DistributedGibbsSampler(
            tiny_config, options("streaming.npz")).run(train, split, seed=4)
        bulk, _ = BulkSynchronousGibbsSampler(
            tiny_config, options("bulk.npz")).run(train, split, seed=4)
        np.testing.assert_array_equal(bulk.state.user_factors,
                                      streaming.state.user_factors)
        assert load_snapshot(tmp_path / "bulk.npz").state.iteration \
            == tiny_config.total_iterations


class TestInconsistentPlanFailsLoudly:
    """The send side follows the plan, the receive side counts against its
    inversion; when the two disagree the run must raise, not diverge."""

    @pytest.mark.parametrize("tamper, message", [
        (lambda plan, ids: ids[1:], "inconsistent"),  # a stray row arrives
        (lambda plan, ids: ids[:0], "inconsistent"),  # rows left in the mailbox
        (lambda plan, ids: np.append(ids, plan.partition.movies_of(1)[0]),
         "would deadlock"),  # a row nobody sends
    ])
    def test_tampered_receive_set(self, tiny_dataset, tiny_config,
                                  monkeypatch, tamper, message):
        from repro.distributed.comm_plan import CommunicationPlan

        honest = CommunicationPlan.expected_incoming

        def tampered(plan, phase, rank):
            ids = honest(plan, phase, rank)
            return tamper(plan, ids) if (phase, rank) == ("movies", 1) else ids

        monkeypatch.setattr(CommunicationPlan, "expected_incoming", tampered)
        with pytest.raises(ValidationError, match=message):
            DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=4)
            ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2)


class TestDistributedDiagnostics:
    def test_run_info_traffic_consistency(self, tiny_dataset, tiny_config):
        result, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4, buffer_capacity=8)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2)
        # Every item exchange planned must have happened each iteration.
        expected_items = info.items_exchanged_per_iteration * tiny_config.total_iterations
        assert info.buffer_stats.n_items == expected_items
        assert info.n_messages > 0
        assert info.bytes_sent > 0
        assert result.items_updated == tiny_config.total_iterations * (
            tiny_dataset.split.train.n_users + tiny_dataset.split.train.n_movies)

    def test_wire_traffic_is_pinned(self, tiny_dataset, tiny_config):
        """Message count, bytes, buffer counters and the posting order of a
        fixed 3-rank run (every owner feeds two destinations, so full
        buffers interleave across them).  A change to the wire traffic
        must be deliberate: it re-records these constants."""
        world = SimCommWorld(3)
        _, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=4)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2,
              comm_world=world)
        assert info.n_messages == 304
        assert info.bytes_sent == 42880
        assert info.buffer_stats == BufferStats(
            n_items=976, n_messages=288, n_flushes_full=208,
            n_flushes_partial=80)
        log = [(record.source, record.destination, int(record.tag),
                record.n_bytes) for record in world.message_log]
        assert hashlib.sha256(repr(log).encode()).hexdigest() == (
            "d334b290c302e2831903b548948c3b89793c5ec7f3a7ed180ed6961b8a916ed7")

    def test_partition_can_be_supplied(self, tiny_dataset, tiny_config):
        from repro.distributed.partition import partition_ratings
        partition = partition_ratings(tiny_dataset.split.train, 2)
        result, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=2)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2,
              partition=partition)
        assert info.partition is partition

    def test_partition_rank_mismatch_rejected(self, tiny_dataset, tiny_config):
        from repro.distributed.partition import partition_ratings
        partition = partition_ratings(tiny_dataset.split.train, 3)
        with pytest.raises(ValidationError):
            DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=2)
            ).run(tiny_dataset.split.train, tiny_dataset.split, partition=partition)

    def test_invalid_options(self):
        with pytest.raises(Exception):
            DistributedOptions(n_ranks=0)
        with pytest.raises(Exception):
            DistributedOptions(hyper_mode="nonsense")

    def test_accuracy_on_low_rank_signal(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=5, n_samples=8, alpha=8.0)
        result, _ = DistributedGibbsSampler(
            config, DistributedOptions(n_ranks=4)
        ).run(small_dataset.split.train, small_dataset.split, seed=3)
        assert result.final_rmse < 2.5 * small_dataset.config.noise_std
