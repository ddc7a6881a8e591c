#!/usr/bin/env python3
"""Quickstart: distributed BPMF training over real localhost sockets.

Trains the same fixed-seed chain three ways — the sequential sampler,
the distributed sampler over the *simulated* MPI world, and the
distributed sampler over a 2-rank *socket* world (real TCP links,
binary frames, flush barriers) — and checks that all three are
bit-identical: same factors, same RMSE trajectory, same predictions,
random ties included.

The socket ranks here are two threads in this process, each owning a
real `SocketCommWorld` endpoint (the full wire path without spawning OS
processes).  For real multi-process training use the launcher:

    python -m repro.mpi.net --spawn --world 4

Run with:  PYTHONPATH=src python examples/distributed_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import BPMFConfig, GibbsSampler, SamplerOptions, make_low_rank_dataset
from repro.distributed.sampler import (
    DistributedGibbsSampler,
    DistributedOptions,
)
from repro.distributed.spmd import run_local_socket_world


def main() -> None:
    # 1. A small ground-truth dataset, and one configuration shared by
    #    every run below.
    data = make_low_rank_dataset(n_users=120, n_movies=90, rank=4,
                                 density=0.15, noise_std=0.3, seed=42)
    train, split = data.split.train, data.split
    config = BPMFConfig(num_latent=6, alpha=8.0, burn_in=3, n_samples=6)
    seed = 11
    print(f"dataset: {train.n_users} users x {train.n_movies} movies, "
          f"{train.nnz} training ratings")

    # 2. The sequential reference chain.
    sequential = GibbsSampler(config, SamplerOptions()).run(
        train, split, seed=seed)
    print(f"sequential        final RMSE {sequential.final_rmse:.6f}")

    # 3. The same chain, distributed over the simulated MPI world.  In
    #    "gather" hyper-parameter mode the distributed chain consumes the
    #    random stream exactly like the sequential sampler, so the two
    #    match bit for bit.
    options = DistributedOptions(n_ranks=2, hyper_mode="gather")
    simulated, sim_info = DistributedGibbsSampler(config, options).run(
        train, split, seed=seed)
    sweeps = config.total_iterations
    print(f"simulated MPI     final RMSE {simulated.final_rmse:.6f} "
          f"({sim_info.n_messages / sweeps:.1f} messages and "
          f"{sim_info.bytes_sent / sweeps / 1e3:.1f} kB per sweep)")

    # 4. The same chain again, over a 2-rank socket world: each phase's
    #    refreshed rows cross a real TCP link as one binary frame per
    #    peer, and rank 1 sends rank 0 its test predictions.  Rank 0
    #    holds the evaluated result; rank 1 holds only its own blocks.
    outcomes = run_local_socket_world(
        lambda: DistributedGibbsSampler(config, options),
        2, train, split, seed=seed)
    socket_result, socket_info = outcomes[0]
    print(f"socket MPI        final RMSE {socket_result.final_rmse:.6f} "
          f"(rank 0 sent {socket_info.n_messages / sweeps:.1f} frames and "
          f"{socket_info.bytes_sent / sweeps / 1e3:.1f} kB per sweep)")

    # 5. Bit-parity, not approximate agreement.
    for name, result in [("simulated", simulated), ("socket", socket_result)]:
        assert np.array_equal(result.state.user_factors,
                              sequential.state.user_factors)
        assert np.array_equal(result.state.movie_factors,
                              sequential.state.movie_factors)
        assert result.rmse_running_mean == sequential.rmse_running_mean
        assert np.array_equal(result.predictions, sequential.predictions)
        print(f"{name:9s} chain is bit-identical to the sequential chain")


if __name__ == "__main__":
    main()
