"""Correctness tests for the distributed sampler."""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler
from repro.core.priors import BPMFConfig
from repro.distributed.sampler import (
    DistributedGibbsSampler,
    DistributedOptions,
    Tag,
)
from repro.mpi.simmpi import SimComm, SimCommWorld
from repro.utils.validation import ValidationError


class TestDistributedSamplerParity:
    def test_gather_mode_bitwise_parity_with_sequential(self, tiny_dataset, tiny_config):
        """With gathered hyperparameters the distributed chain is identical
        to the sequential one — the strongest form of the paper's accuracy
        parity claim."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4, hyper_mode="gather")
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

    def test_rank_count_does_not_change_gather_results(
            self, tiny_dataset, tiny_config, assert_same_chain):
        """In gather mode every rank count runs the sequential chain bit
        for bit — every result field, the per-rank evaluation included."""
        train, split = tiny_dataset.split.train, tiny_dataset.split
        sequential = GibbsSampler(tiny_config).run(train, split, seed=8)
        for n_ranks in (1, 2, 5):
            result, _ = DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=n_ranks,
                                                hyper_mode="gather")
            ).run(train, split, seed=8)
            assert_same_chain(result, sequential)

    def test_float32_checkpointing_run(self, tiny_dataset, tiny_config,
                                       tmp_path, assert_same_chain):
        """A float32, checkpointing run really is float32 and really
        checkpoints — the same chain as without the checkpoint."""
        from repro.core.checkpoint import CheckpointConfig, load_snapshot

        train, split = tiny_dataset.split.train, tiny_dataset.split
        plain, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=2, compute_dtype="float32")
        ).run(train, split, seed=4)
        saved, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(
                n_ranks=2, compute_dtype="float32",
                checkpoint=CheckpointConfig(path=tmp_path / "f32.npz"))
        ).run(train, split, seed=4)
        assert_same_chain(saved, plain)
        snapshot = load_snapshot(tmp_path / "f32.npz")
        assert snapshot.state.iteration == tiny_config.total_iterations
        np.testing.assert_array_equal(snapshot.state.user_factors,
                                      plain.state.user_factors)


class TestInconsistentPlanFailsLoudly:
    """The send side follows the plan, the receive side its inversion (the
    inbox); when the two disagree the run must raise, not diverge."""

    @pytest.mark.parametrize("tamper, message", [
        # a frame carries ids the inbox does not plan for
        (lambda plan, inbox: [(source, ids[1:]) for source, ids in inbox],
         "inconsistent"),
        # a sending source is missing: its frames stay in the mailbox
        (lambda plan, inbox: inbox[1:], "inconsistent"),
        # an inbox source that sends nothing: rank 1 itself
        (lambda plan, inbox: sorted(
            inbox + [(1, plan.partition.movies_of(1)[:1])],
            key=lambda frame: frame[0]),
         "would deadlock"),
    ])
    def test_tampered_receive_set(self, tiny_dataset, tiny_config,
                                  monkeypatch, tamper, message):
        from repro.distributed.comm_plan import CommunicationPlan

        honest = CommunicationPlan.inbox

        def tampered(plan, phase, rank):
            inbox = honest(plan, phase, rank)
            return (tamper(plan, inbox) if (phase, rank) == ("movies", 1)
                    else inbox)

        monkeypatch.setattr(CommunicationPlan, "inbox", tampered)
        with pytest.raises(ValidationError, match=message):
            DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=3)
            ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2)


class TestDistributedDiagnostics:
    def test_run_info_traffic_consistency(self, tiny_dataset, tiny_config):
        world = SimCommWorld(4)
        result, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2,
              comm_world=world)
        # Every item exchange planned must have happened each iteration:
        # an exchanged item costs its <i4 id and its K float64s.
        k = tiny_config.num_latent
        exchanged = sum(record.n_bytes for record in world.message_log
                        if record.tag in (Tag.MOVIES, Tag.USERS))
        assert exchanged == (info.items_exchanged_per_iteration
                             * tiny_config.total_iterations * (4 + 8 * k))
        assert info.n_messages > 0
        assert info.bytes_sent > 0
        assert result.items_updated == tiny_config.total_iterations * (
            tiny_dataset.split.train.n_users + tiny_dataset.split.train.n_movies)

    def test_wire_traffic_is_pinned(self, tiny_dataset, tiny_config,
                                    monkeypatch):
        """Frame count, bytes and posting order of a fixed 3-rank run.

        Per sweep the frames are one exchange frame per communicating
        (owner, reader) pair and phase plus one eval frame from each rank
        but 0 (the stats-mode allreduces and the barrier log no
        messages).  A change to the wire traffic must be deliberate: it
        re-records these constants."""
        sent = []
        isend = SimComm.isend

        def recorded(comm, payload, dest, tag=0):
            sent.append((int(tag), payload))
            return isend(comm, payload, dest, tag)

        monkeypatch.setattr(SimComm, "isend", recorded)
        world = SimCommWorld(3)
        _, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2,
              comm_world=world)
        pairs = sum(int(np.count_nonzero(info.plan.items_between(phase)))
                    for phase in ("movies", "users"))
        assert info.n_messages == tiny_config.total_iterations * (pairs + 2)
        assert info.n_messages == 112
        assert info.bytes_sent == 33328
        ids = [payload[0] for tag, payload in sent
               if tag in (Tag.MOVIES, Tag.USERS)]
        assert len(ids) == tiny_config.total_iterations * pairs
        assert all(block.dtype == np.dtype("<i4") for block in ids)
        log = [(record.source, record.destination, int(record.tag),
                record.n_bytes) for record in world.message_log]
        assert hashlib.sha256(repr(log).encode()).hexdigest() == (
            "f93211fbca4499ffd27926dd9f33bf56617096a007359d8a1ec40178f34fba23")

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


@pytest.fixture(scope="module")
def lopsided_eval(tiny_dataset):
    """Held-out cells laid out against a hand-made 3-rank partition.

    Rank 2 owns user 0 and movie 0 only, and one held-out cell
    ``(0, movie)`` whose movie user 0 never rated in training and rank 2
    does not own: only the plan's eval read edge brings that row to rank
    2.  Every other held-out cell belongs to a user of rank 0, so rank 1
    predicts nothing."""
    from repro.distributed.partition import Partition
    from repro.sparse.split import RatingSplit

    train = tiny_dataset.split.train
    rated = set(train.by_user.indices[
        train.by_user.indptr[0]:train.by_user.indptr[1]].tolist())
    unread = next(m for m in range(1, train.n_movies) if m not in rated)
    user_owner = np.where(np.arange(train.n_users) < 20, 0, 1)
    user_owner[0] = 2
    movie_owner = np.arange(train.n_movies) % 2
    movie_owner[0] = 2
    users, movies, values = tiny_dataset.split.test_triplets()
    keep = user_owner[users] == 0
    split = RatingSplit(train, np.append(users[keep], 0),
                        np.append(movies[keep], unread),
                        np.append(values[keep], 1.0))
    partition = Partition(n_ranks=3, user_owner=user_owner,
                          movie_owner=movie_owner)
    return split, partition, unread


class TestDistributedEvaluation:
    """Each rank predicts the held-out cells of its own users; rank 0
    scatters them into test order and runs the sequential arithmetic."""

    def _gather_run(self, config, split, partition):
        result, _ = DistributedGibbsSampler(
            config, DistributedOptions(n_ranks=3, hyper_mode="gather")
        ).run(split.train, split, seed=6, partition=partition)
        return result

    def test_unread_test_movie_reaches_its_predicting_rank(
            self, tiny_config, lopsided_eval, monkeypatch, assert_same_chain):
        import repro.distributed.sampler as sampler_module

        split, partition, unread = lopsided_eval
        train = split.train
        assert 2 not in partition.user_owner[train.by_movie.indices[
            train.by_movie.indptr[unread]:train.by_movie.indptr[unread + 1]]]
        sequential = GibbsSampler(tiny_config).run(train, split, seed=6)
        assert_same_chain(self._gather_run(tiny_config, split, partition),
                          sequential)

        # Without the eval read edges rank 2 predicts from a stale row.
        build = sampler_module.build_comm_plan
        monkeypatch.setattr(sampler_module, "build_comm_plan",
                            lambda train, partition, test_pairs: build(
                                train, partition))
        stale = self._gather_run(tiny_config, split, partition)
        assert stale.predictions[-1] != sequential.predictions[-1]
        np.testing.assert_array_equal(stale.predictions[:-1],
                                      sequential.predictions[:-1])

    def test_rank_with_no_test_cells(self, tiny_config, lopsided_eval,
                                     assert_same_chain):
        from repro.distributed.spmd import run_local_socket_world

        split, partition, _ = lopsided_eval
        assert 1 not in partition.user_owner[split.test_users]
        sequential = GibbsSampler(tiny_config).run(split.train, split, seed=6)
        assert_same_chain(self._gather_run(tiny_config, split, partition),
                          sequential)
        outcomes = run_local_socket_world(
            lambda: DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=3,
                                                hyper_mode="gather")),
            3, split.train, split, seed=6, partition=partition)
        assert_same_chain(outcomes[0][0], sequential)

    def test_gathering_sweep_checkpoint_resumes_on_sockets(
            self, tiny_dataset, tiny_config, tmp_path, monkeypatch,
            assert_same_chain):
        """A snapshot saved on a gathering sweep mid-run (not the last)
        of a 3-rank simulated world resumes on a 3-rank socket world and
        finishes on the uninterrupted chain, bit for bit."""
        import repro.core.checkpoint as checkpoint_module
        from repro.mpi.net import start_local_world
        from repro.core.checkpoint import CheckpointConfig

        # Keep every save under its own name, not just the last one.
        save = checkpoint_module.save_snapshot

        def save_each(snapshot, path, **kwargs):
            save(snapshot, f"{path}.{snapshot.iteration}", **kwargs)
            return save(snapshot, path, **kwargs)

        monkeypatch.setattr(checkpoint_module, "save_snapshot", save_each)
        train, split = tiny_dataset.split.train, tiny_dataset.split
        uninterrupted, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3)).run(
            train, split, seed=9)
        path = tmp_path / "every3.npz"
        DistributedGibbsSampler(tiny_config, DistributedOptions(
            n_ranks=3, checkpoint=CheckpointConfig(path=path, every=3))
        ).run(train, split, seed=9)
        # Sweep 6 of 8: past burn-in, so factor-mean sums were gathered.
        resumed = [None] * 3
        worlds = start_local_world(3, op_timeout=30.0)

        def drive(rank):
            resumed[rank], _ = DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=3)).run(
                train, split, resume=f"{path}.6", comm_world=worlds[rank])

        threads = [threading.Thread(target=drive, args=(rank,))
                   for rank in range(3)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            for world in worlds:
                world.close()
        assert not any(thread.is_alive() for thread in threads)
        assert_same_chain(resumed[0], uninterrupted)
