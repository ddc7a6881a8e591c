"""One chain loop, every world: the bitwise matrix and resume across worlds.

``GibbsSampler`` runs the chain loop on a 1-rank world and
``DistributedGibbsSampler`` on every rank of a simulated or socket world.
In ``hyper_mode="gather"`` all of them — whatever the thread count, engine
or rank count — must produce the same ``BPMFResult`` bit for bit, call
``callback`` for the same sweeps, and resume each other's checkpoints.
"""

from __future__ import annotations

import copy
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.distributed.spmd import run_local_socket_world
from repro.core.checkpoint import CheckpointConfig
from repro.mpi.simmpi import SimCommWorld, _Turns

SEED = 8

#: world -> (how it runs, its options).  Every distributed world gathers.
WORLDS = {
    "sequential": ("gibbs", {}),
    "threads-2": ("gibbs", {"n_threads": 2}),
    "shared-2": ("gibbs", {"engine": "shared", "n_workers": 2}),
    "sim-1": ("sim", {"n_ranks": 1}),
    "sim-2": ("sim", {"n_ranks": 2}),
    "sim-5": ("sim", {"n_ranks": 5}),
    "sim-2-threads-2": ("sim", {"n_ranks": 2, "n_threads": 2}),
    "socket-2": ("socket", {"n_ranks": 2}),
}


def _run(world, config, data, seed=SEED, **options):
    """``world``'s result (rank 0's) for one chain."""
    kind, world_options = WORLDS[world]
    options = {**world_options, **options}
    train, split = data.split.train, data.split
    if kind == "gibbs":
        return GibbsSampler(config, SamplerOptions(**options)).run(
            train, split, seed=seed)

    def sampler():
        return DistributedGibbsSampler(
            config, DistributedOptions(hyper_mode="gather", **options))

    if kind == "sim":
        return sampler().run(train, split, seed=seed)[0]
    return run_local_socket_world(sampler, options["n_ranks"], train, split,
                                  seed=seed)[0][0]


def _recording():
    """A callback and the ``(iteration, state.iteration, U, V)`` it saw."""
    seen = []

    def callback(state, iteration):
        seen.append((iteration, state.iteration, state.user_factors.copy(),
                     state.movie_factors.copy()))

    return callback, seen


@pytest.fixture(scope="module")
def sequential(tiny_dataset, tiny_config):
    callback, seen = _recording()
    return _run("sequential", tiny_config, tiny_dataset, callback=callback), seen


@pytest.mark.parametrize("world", list(WORLDS))
def test_every_world_runs_the_sequential_chain(world, tiny_dataset, tiny_config,
                                               sequential, assert_same_chain):
    reference, reference_seen = sequential
    callback, seen = _recording()
    result = _run(world, tiny_config, tiny_dataset, callback=callback)
    assert_same_chain(result, reference)

    # The callback runs once per sweep, on rank 0, after the sweep.
    total = tiny_config.total_iterations
    assert [entry[:2] for entry in seen] == [(it, it + 1) for it in range(total)]
    if WORLDS[world][1].get("n_ranks", 1) == 1:
        # One rank's state is the chain's state at every callback.
        for (_, _, users, movies), (_, _, ref_users, ref_movies) in zip(
                seen, reference_seen):
            np.testing.assert_array_equal(users, ref_users)
            np.testing.assert_array_equal(movies, ref_movies)
    else:
        # Rank 0's copy is whole after the last (gathering) sweep.
        np.testing.assert_array_equal(seen[-1][2], reference_seen[-1][2])
        np.testing.assert_array_equal(seen[-1][3], reference_seen[-1][3])


def test_warm_started_chain_resumes_from_its_own_checkpoint(
        tiny_dataset, tmp_path, assert_same_chain):
    """A warm state at sweep 3 continues at sweep 3 (burn-in stays at sweep
    2): checkpointed at sweep 6 and resumed, it lands on the chain of the
    uninterrupted warm start."""
    train, split = tiny_dataset.split.train, tiny_dataset.split
    full = BPMFConfig(num_latent=3, alpha=4.0, burn_in=2, n_samples=6)
    half = BPMFConfig(num_latent=3, alpha=4.0, burn_in=2, n_samples=4)
    rng = np.random.default_rng(3)
    warm = GibbsSampler(BPMFConfig(num_latent=3, alpha=4.0, burn_in=2,
                                   n_samples=1)).run(train, split, seed=rng)
    assert warm.state.iteration == 3

    uninterrupted = GibbsSampler(full).run(
        train, split, seed=copy.deepcopy(rng), state=warm.state.copy())
    assert uninterrupted.state.iteration == full.total_iterations
    assert len(uninterrupted.rmse_per_sample) == full.total_iterations - 3
    assert uninterrupted.rmse_burn_in == []

    path = tmp_path / "warm.npz"
    GibbsSampler(half, SamplerOptions(checkpoint=CheckpointConfig(path=path))
                 ).run(train, split, seed=rng, state=warm.state.copy())
    resumed = GibbsSampler(full).run(train, split, resume=path)
    assert_same_chain(resumed, uninterrupted)


#: The first 5 of ``tiny_config``'s 8 sweeps: burn-in plus 2 samples.
HALF = BPMFConfig(num_latent=3, alpha=4.0, burn_in=3, n_samples=2)


@pytest.mark.parametrize("saved_on, resumed_on", [
    ("sequential", "sim-2"),
    ("socket-3", "sequential"),
])
def test_checkpoint_resumes_across_rank_counts(saved_on, resumed_on,
                                               tiny_dataset, tiny_config,
                                               tmp_path, sequential,
                                               assert_same_chain):
    """A checkpoint written on one world finishes on another (gather mode)
    as the uninterrupted chain."""
    path = tmp_path / "cross.npz"
    checkpoint = CheckpointConfig(path=path)
    train, split = tiny_dataset.split.train, tiny_dataset.split
    if saved_on == "sequential":
        _run("sequential", HALF, tiny_dataset, checkpoint=checkpoint)
    else:
        run_local_socket_world(
            lambda: DistributedGibbsSampler(HALF, DistributedOptions(
                n_ranks=3, hyper_mode="gather", checkpoint=checkpoint)),
            3, train, split, seed=SEED)
    if resumed_on == "sequential":
        resumed = GibbsSampler(tiny_config).run(train, split, resume=path)
    else:
        resumed, _ = DistributedGibbsSampler(tiny_config, DistributedOptions(
            n_ranks=2, hyper_mode="gather")).run(train, split, resume=path)
    assert_same_chain(resumed, sequential[0])


def _sim_chain(data):
    """A 2-rank stats-mode chain on the in-memory link and what each
    rank sent: ``(result, {rank: [(destination, tag, n_bytes), ...]})``."""
    world = SimCommWorld(2)
    result, _ = DistributedGibbsSampler(HALF, DistributedOptions(
        n_ranks=2)).run(data.split.train, data.split, seed=SEED,
                        comm_world=world)
    return result, {rank: [(record.destination, record.tag, record.n_bytes)
                           for record in world.message_log
                           if record.source == rank] for rank in (0, 1)}


@pytest.fixture(scope="module")
def default_interleaving(tiny_dataset):
    return _sim_chain(tiny_dataset)


@given(choices=st.lists(st.integers(0, 7), min_size=1, max_size=32))
@settings(max_examples=20, deadline=None)
def test_any_legal_interleaving_gives_one_chain(choices, tiny_dataset,
                                                default_interleaving,
                                                assert_same_chain):
    """The in-memory link may hand the turn, after a post, to any
    unfinished rank and, after a block, to any rank that has not blocked
    since the last post.  Whatever it picks (drawn here), the chain and
    every rank's sends are those of the default rank-order schedule."""
    stream = itertools.cycle(choices)

    def drawn(turns, rank, candidates):
        return candidates[next(stream) % len(candidates)]

    with mock.patch.object(_Turns, "_pick", drawn):
        result, sent = _sim_chain(tiny_dataset)
    reference, reference_sent = default_interleaving
    assert_same_chain(result, reference)
    assert sent == reference_sent
