#!/usr/bin/env python3
"""Cluster serving quickstart: shard -> query -> fold in -> hot swap.

Walks the serving-cluster subsystem (`repro.serving.cluster`):

1. train BPMF and snapshot the posterior;
2. serve it through a sharded worker-pool gateway
   (:class:`ShardedScorer`) and verify the ranking is bit-identical to
   the single-process :class:`PredictionService`;
3. fold in a cold-start user, then apply an incremental rank-k update
   when they rate more items (both run on the gateway's own factors;
   each query carries the user's row to the workers);
4. keep training (longer chain, same snapshot file) and let a
   :class:`SnapshotWatcher` hot-swap the new posterior in while queries
   keep flowing.

Run with:  PYTHONPATH=src python examples/cluster_serving_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BPMFConfig,
    CheckpointConfig,
    GibbsSampler,
    PredictionService,
    SamplerOptions,
    make_low_rank_dataset,
)
from repro.serving.cluster import ShardedScorer, SnapshotWatcher


def main() -> None:
    data = make_low_rank_dataset(n_users=300, n_movies=200, rank=6,
                                 density=0.15, noise_std=0.3, factor_std=1.5,
                                 seed=42)
    train, split = data.split.train, data.split

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "model.npz"

        # 1. Train with checkpointing; the snapshot is the serving handoff.
        config = BPMFConfig(num_latent=8, alpha=4.0, burn_in=3, n_samples=5)
        options = SamplerOptions(
            checkpoint=CheckpointConfig(path=snapshot_path, every=2))
        GibbsSampler(config, options).run(train, split, seed=0)

        # 2. A 4-shard gateway over a persistent worker pool.  Results are
        #    bit-identical to the single-process service.
        reference = PredictionService(snapshot_path, train=train)
        with ShardedScorer(snapshot_path, n_shards=4, train=train) as scorer:
            for user in (0, 7, 42):
                served = scorer.top_n(user, n=5)
                expected = reference.top_n(user, n=5)
                assert served.items.tolist() == expected.items.tolist()
                assert served.scores.tobytes() == expected.scores.tobytes()
                print(f"user {user:3d} top-5: "
                      + " ".join(f"{i}:{s:.3f}" for i, s in served.as_pairs()))
            print("sharded ranking is bit-identical to the single process")

            # 3. Cold start + incremental fold-in: the second call is a
            #    rank-k posterior update, not a re-fold of the history.
            #    Both are the inherited PredictionService calls.
            cold = scorer.fold_in(np.array([0, 3, 9]),
                                  np.array([5.0, 4.0, 4.5]))
            before = scorer.top_n(cold, n=5)
            scorer.add_ratings(cold, np.array([17, 60]),
                               np.array([1.0, 2.0]))
            after = scorer.top_n(cold, n=5)
            print(f"fold-in user {cold}: top-5 {before.items.tolist()} "
                  f"-> {after.items.tolist()} after rating 2 more items")

            # 4. Serve while training: extend the chain (overwriting the
            #    snapshot) and let the watcher hot-swap it in.
            watcher = SnapshotWatcher(scorer, snapshot_path)
            longer = BPMFConfig(num_latent=8, alpha=4.0, burn_in=3,
                                n_samples=10)
            GibbsSampler(longer, SamplerOptions(
                checkpoint=CheckpointConfig(path=snapshot_path, every=4))
            ).run(train, split, resume=snapshot_path)
            assert watcher.check_once(), "no new snapshot detected?"
            print(f"hot-swapped to version {scorer.version} "
                  f"(sweep {load_iteration(snapshot_path)}) without "
                  f"dropping a request")

            fresh = PredictionService(snapshot_path, train=train)
            served = scorer.top_n(0, n=5)
            assert served.scores.tobytes() == fresh.top_n(0, n=5).scores.tobytes()
            print("post-swap ranking matches a service on the new snapshot")
            print(f"gateway stats: {scorer.stats()}")


def load_iteration(path: Path) -> int:
    from repro.core.checkpoint import load_snapshot

    return load_snapshot(path).state.iteration


if __name__ == "__main__":
    main()
