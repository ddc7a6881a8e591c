"""Checkpoint store tests: round-trip fidelity and exact-resume parity.

The headline contract (alongside ``tests/test_batch_engine_parity.py``):
a chain checkpointed at sweep k and resumed reproduces the uninterrupted
chain *bit for bit* — same factors, same RMSE traces — for the sequential,
threaded and distributed samplers, and even across backends (a sequential
checkpoint resumed on two threads).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.core.checkpoint import (
    SNAPSHOT_FORMAT,
    CheckpointConfig,
    Snapshot,
    _payload_checksum,
    encode_rng_state,
    load_snapshot,
    restore_generator,
    save_snapshot,
    snapshot_from_result,
)
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def data():
    return make_low_rank_dataset(SyntheticConfig(
        n_users=50, n_movies=35, rank=3, density=0.3, noise_std=0.25,
        test_fraction=0.2, seed=77))


FULL = BPMFConfig(num_latent=6, alpha=4.0, burn_in=2, n_samples=4)
#: Same chain stopped after 3 of FULL's 6 sweeps (burn-in + 1 sample).
HALF = BPMFConfig(num_latent=6, alpha=4.0, burn_in=2, n_samples=1)


def _train_with_checkpoint(sampler_cls, options, data, path, seed=5):
    options.checkpoint = CheckpointConfig(path=path)
    return sampler_cls(HALF, options).run(data.split.train, data.split,
                                          seed=seed)


class TestRngRoundTrip:
    def test_generator_state_continues_exactly(self):
        rng = np.random.default_rng(123)
        rng.standard_normal(100)
        clone = restore_generator(json.loads(json.dumps(encode_rng_state(rng))))
        np.testing.assert_array_equal(clone.standard_normal(50),
                                      rng.standard_normal(50))

    def test_mt19937_array_state_round_trips(self):
        rng = np.random.Generator(np.random.MT19937(7))
        rng.standard_normal(10)
        clone = restore_generator(json.loads(json.dumps(encode_rng_state(rng))))
        np.testing.assert_array_equal(clone.standard_normal(10),
                                      rng.standard_normal(10))

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValidationError):
            restore_generator({"bit_generator": "NotAGenerator"})


class TestSnapshotRoundTrip:
    def test_all_fields_survive(self, data, tmp_path):
        path = tmp_path / "snap.npz"
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        rng = np.random.default_rng(9)
        snapshot = snapshot_from_result(result, rng=rng, offset=1.5,
                                        metadata={"run": "unit-test"})
        snapshot.prediction_sum = np.arange(data.split.n_test, dtype=np.float64)
        snapshot.prediction_count = 3
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)

        np.testing.assert_array_equal(loaded.state.user_factors,
                                      result.state.user_factors)
        np.testing.assert_array_equal(loaded.state.movie_factors,
                                      result.state.movie_factors)
        np.testing.assert_array_equal(loaded.state.user_prior.precision,
                                      result.state.user_prior.precision)
        assert loaded.state.iteration == HALF.total_iterations
        assert loaded.config["num_latent"] == 6.0
        assert loaded.alpha == 4.0
        assert loaded.mean_count == result.factor_means.n_samples
        np.testing.assert_array_equal(loaded.mean_user_sum,
                                      result.factor_means.user_sum)
        np.testing.assert_array_equal(loaded.prediction_sum,
                                      snapshot.prediction_sum)
        assert loaded.prediction_count == 3
        assert loaded.rmse_running_mean == result.rmse_running_mean
        assert loaded.rmse_burn_in == result.rmse_burn_in
        assert loaded.items_updated == result.items_updated
        assert loaded.offset == 1.5
        assert loaded.metadata == {"run": "unit-test"}
        # The generator round-trips through the snapshot too.
        np.testing.assert_array_equal(
            restore_generator(loaded.rng_state).standard_normal(8),
            rng.standard_normal(8))

    def test_float32_snapshot_round_trip(self, data, tmp_path):
        """Older versions could store the factor payloads as float32;
        such a file still verifies and loads, widened back to float64
        with single-precision fidelity."""
        path = tmp_path / "snap32.npz"
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        snapshot = snapshot_from_result(result, rng=np.random.default_rng(9))
        save_snapshot(snapshot, path)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        for key in ("user_factors", "movie_factors", "mean_user_sum",
                    "mean_movie_sum", "prediction_sum"):
            payload[key] = payload[key].astype(np.float32)
        payload["checksum"] = np.array(_payload_checksum(payload))
        np.savez_compressed(path, **payload)

        loaded = load_snapshot(path)  # checksum verifies narrowed payloads
        assert loaded.state.user_factors.dtype == np.float64
        assert loaded.mean_user_sum.dtype == np.float64
        np.testing.assert_allclose(loaded.state.user_factors,
                                   result.state.user_factors,
                                   rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(loaded.mean_user_sum,
                                   result.factor_means.user_sum,
                                   rtol=1e-6, atol=1e-6)
        # Priors and the RNG state never lost precision.
        np.testing.assert_array_equal(loaded.state.user_prior.precision,
                                      result.state.user_prior.precision)

    def test_bpmf_config_rebuilds(self, data, tmp_path):
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        snapshot = snapshot_from_result(result)
        save_snapshot(snapshot, tmp_path / "snap.npz")
        config = load_snapshot(tmp_path / "snap.npz").bpmf_config()
        assert config.num_latent == HALF.num_latent
        assert config.alpha == HALF.alpha
        assert config.total_iterations == HALF.total_iterations

    def test_posterior_mean_state_falls_back_to_last_sample(self, data):
        burn_only = Snapshot(state=GibbsSampler(HALF).run(
            data.split.train, data.split, seed=1).state)
        np.testing.assert_array_equal(
            burn_only.posterior_mean_state().user_factors,
            burn_only.state.user_factors)

    def test_tampered_snapshot_rejected(self, data, tmp_path):
        path = tmp_path / "snap.npz"
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        save_snapshot(snapshot_from_result(result), path)
        # Corrupt one factor entry while keeping the stored checksum.
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key].copy() for key in archive.files}
        payload["user_factors"][0, 0] += 1e-3
        np.savez_compressed(path, **payload)
        with pytest.raises(ValidationError, match="integrity"):
            load_snapshot(path)
        # But verify=False loads it (forensics escape hatch).
        assert load_snapshot(path, verify=False).state.n_users == 50

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, format=np.array("something-else"))
        with pytest.raises(ValidationError, match="snapshot"):
            load_snapshot(path)

    def test_checkpoint_config_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            CheckpointConfig(path=tmp_path / "x.npz", every=0)
        config = CheckpointConfig(path=tmp_path / "x.npz", every=3)
        assert config.due(2, 10) and not config.due(3, 10)
        assert config.due(9, 10)  # final sweep always saves


class TestExactResume:
    """Checkpoint at sweep 3, resume to 6, compare with an unbroken run."""

    def test_sequential_resume_is_bit_identical(self, data, tmp_path):
        path = tmp_path / "seq.npz"
        full = GibbsSampler(FULL).run(data.split.train, data.split, seed=5)
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        resumed = GibbsSampler(FULL).run(data.split.train, data.split,
                                         resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_array_equal(resumed.state.movie_factors,
                                      full.state.movie_factors)
        assert resumed.rmse_burn_in == full.rmse_burn_in
        assert resumed.rmse_per_sample == full.rmse_per_sample
        assert resumed.rmse_running_mean == full.rmse_running_mean
        assert resumed.items_updated == full.items_updated
        np.testing.assert_array_equal(resumed.predictions, full.predictions)
        np.testing.assert_array_equal(resumed.factor_means.user_sum,
                                      full.factor_means.user_sum)

    def test_multicore_resume_matches_sequential_chain(self, data, tmp_path):
        """A sequential checkpoint resumed on 2 threads: same chain."""
        path = tmp_path / "mc.npz"
        full = GibbsSampler(FULL).run(data.split.train, data.split, seed=5)
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        resumed = GibbsSampler(FULL, SamplerOptions(n_threads=2)).run(
            data.split.train, data.split, resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        assert resumed.rmse_running_mean == full.rmse_running_mean

    def test_multicore_checkpoint_resumes(self, data, tmp_path):
        path = tmp_path / "mc2.npz"
        options = SamplerOptions(n_threads=2)
        full = GibbsSampler(FULL, SamplerOptions(n_threads=2)).run(
            data.split.train, data.split, seed=5)
        _train_with_checkpoint(GibbsSampler, options, data, path)
        resumed = GibbsSampler(FULL, SamplerOptions(n_threads=2)).run(
            data.split.train, data.split, resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)

    def test_distributed_resume_is_bit_identical(self, data, tmp_path):
        path = tmp_path / "dist.npz"
        options = DistributedOptions(n_ranks=3)
        full, _ = DistributedGibbsSampler(FULL, options).run(
            data.split.train, data.split, seed=5)
        DistributedGibbsSampler(HALF, DistributedOptions(
            n_ranks=3, checkpoint=CheckpointConfig(path=path))).run(
            data.split.train, data.split, seed=5)
        resumed, _ = DistributedGibbsSampler(FULL, DistributedOptions(
            n_ranks=3)).run(data.split.train, data.split, resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_array_equal(resumed.state.movie_factors,
                                      full.state.movie_factors)
        assert resumed.rmse_running_mean == full.rmse_running_mean

    def test_save_every_k_writes_at_k_and_final(self, data, tmp_path):
        path = tmp_path / "every.npz"
        saved_iterations = []
        real_due = CheckpointConfig.due

        options = SamplerOptions(checkpoint=CheckpointConfig(path=path, every=2))
        GibbsSampler(FULL, options).run(data.split.train, data.split, seed=5)
        # FULL has 6 sweeps; every=2 saves after sweeps 2, 4, 6 (1-based).
        assert load_snapshot(path).state.iteration == FULL.total_iterations
        for iteration in range(FULL.total_iterations):
            if real_due(options.checkpoint, iteration, FULL.total_iterations):
                saved_iterations.append(iteration + 1)
        assert saved_iterations == [2, 4, 6]

    def test_resume_and_state_are_mutually_exclusive(self, data, tmp_path):
        path = tmp_path / "x.npz"
        result = _train_with_checkpoint(GibbsSampler, SamplerOptions(),
                                        data, path)
        with pytest.raises(ValidationError, match="not both"):
            GibbsSampler(FULL).run(data.split.train, data.split,
                                   state=result.state, resume=path)

    def test_resume_beyond_configured_total_rejected(self, data, tmp_path):
        path = tmp_path / "long.npz"
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        short = BPMFConfig(num_latent=6, alpha=4.0, burn_in=1, n_samples=1)
        with pytest.raises(ValidationError, match="beyond"):
            GibbsSampler(short).run(data.split.train, data.split, resume=path)

    def test_resume_with_mismatched_model_config_rejected(self, data, tmp_path):
        path = tmp_path / "mismatch.npz"
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        other_alpha = BPMFConfig(num_latent=6, alpha=8.0, burn_in=2, n_samples=4)
        with pytest.raises(ValidationError, match="alpha"):
            GibbsSampler(other_alpha).run(data.split.train, data.split,
                                          resume=path)
        other_burn = BPMFConfig(num_latent=6, alpha=4.0, burn_in=3, n_samples=3)
        with pytest.raises(ValidationError, match="burn_in"):
            GibbsSampler(other_burn).run(data.split.train, data.split,
                                         resume=path)

    def test_snapshot_from_result_resumes_the_prediction_mean(self, data,
                                                              tmp_path):
        """The reconstructed accumulator continues the running-mean trace."""
        path = tmp_path / "from-result.npz"
        rng = np.random.default_rng(5)
        full = GibbsSampler(FULL).run(data.split.train, data.split, seed=5)
        run_rng = np.random.default_rng(5)
        half = GibbsSampler(HALF).run(data.split.train, data.split,
                                      seed=run_rng)
        save_snapshot(snapshot_from_result(half, rng=run_rng), path)
        resumed = GibbsSampler(FULL).run(data.split.train, data.split,
                                         resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_allclose(resumed.predictions, full.predictions,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(resumed.rmse_running_mean,
                                   full.rmse_running_mean, rtol=1e-12)
        del rng

    def test_stale_tmp_file_cannot_clobber_a_fresh_save(self, data, tmp_path):
        """A leftover .tmp from a killed process never becomes the snapshot."""
        path = tmp_path / "clobber.npz"
        stale = path.with_name(path.name + ".tmp.npz")
        stale.write_bytes(b"garbage from a crashed process")
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        save_snapshot(snapshot_from_result(result), path)
        assert load_snapshot(path).state.n_users == 50  # fresh data won
        assert not stale.exists()

    def test_publish_fsyncs_the_archive_then_renames_then_the_directory(
            self, data, tmp_path, monkeypatch):
        """A snapshot is durable before it is visible: the temporary
        archive's bytes are fsynced before ``os.replace`` names it, and the
        parent directory after, so the rename survives a crash too."""
        path = tmp_path / "durable.npz"
        snapshot = snapshot_from_result(
            GibbsSampler(HALF).run(data.split.train, data.split, seed=1))
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.stat(source).st_ino))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_snapshot(snapshot, path)
        archive, directory = path.stat().st_ino, tmp_path.stat().st_ino
        assert events == [("fsync", archive), ("replace", archive),
                          ("fsync", directory)]
        assert load_snapshot(path).state.n_users == 50

    def test_resume_from_final_snapshot_is_a_noop_run(self, data, tmp_path):
        path = tmp_path / "final.npz"
        options = SamplerOptions(checkpoint=CheckpointConfig(path=path))
        full = GibbsSampler(FULL, options).run(data.split.train, data.split,
                                               seed=5)
        resumed = GibbsSampler(FULL).run(data.split.train, data.split,
                                         resume=path)
        assert resumed.state.iteration == full.state.iteration
        np.testing.assert_array_equal(resumed.predictions, full.predictions)

    def test_format_tag_is_versioned(self):
        assert SNAPSHOT_FORMAT == "repro-snapshot-v1"
