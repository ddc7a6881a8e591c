#!/usr/bin/env python3
"""Serving quickstart: train -> snapshot -> resume -> serve -> fold in.

Walks the full lifecycle of the serving subsystem (`repro.serving`):

1. train BPMF with save-every-k-sweeps checkpointing;
2. resume the chain from the snapshot (bit-identical continuation);
3. load the snapshot into a :class:`PredictionService` and answer point,
   batched and top-N queries;
4. fold in a cold-start user who was never seen at training time.

Run with:  PYTHONPATH=src python examples/serving_quickstart.py
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


def main() -> None:
    data = make_low_rank_dataset(n_users=300, n_movies=200, rank=6,
                                 density=0.15, noise_std=0.3, factor_std=1.5,
                                 seed=42)
    train, split = data.split.train, data.split

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "model.npz"

        # 1. Train with checkpointing every 5 sweeps.  If this process died
        #    mid-run, `resume=snapshot_path` would pick up where it stopped.
        config = BPMFConfig(num_latent=6, alpha=8.0, burn_in=8, n_samples=12)
        options = SamplerOptions(
            checkpoint=CheckpointConfig(path=snapshot_path, every=5))
        result = GibbsSampler(config, options).run(train, split, seed=0)
        print(f"trained {config.total_iterations} sweeps, "
              f"posterior-mean RMSE {result.final_rmse:.4f}")
        print(f"snapshot written to {snapshot_path.name}")

        # 2. Resume the *same* chain for 8 extra samples — the snapshot
        #    carries the generator state, so this continues the exact
        #    bit stream an uninterrupted longer run would have used.
        longer = BPMFConfig(num_latent=6, alpha=8.0, burn_in=8, n_samples=20)
        resumed = GibbsSampler(longer, options).run(train, split,
                                                    resume=snapshot_path)
        print(f"resumed to sweep {resumed.state.iteration}, "
              f"RMSE {resumed.final_rmse:.4f}")

        # 3. Serve.  The service uses the running posterior-mean factors
        #    stored in the snapshot (better point predictions than any
        #    single Gibbs sample).
        service = PredictionService(snapshot_path, train=train)
        users, movies, values = split.test_triplets()
        served = service.predict_batch(users, movies)
        rmse = float(np.sqrt(np.mean((served - values) ** 2)))
        print(f"\nserving {service.n_users} users x {service.n_items} items; "
              f"test RMSE from the snapshot: {rmse:.4f}")

        # Many point queries cost one vectorized gather: collect the
        # pairs and answer them with a single predict_batch call.
        batch = service.predict_batch(users[:10], movies[:10])
        print(f"batched 10 point queries in one call; "
              f"first prediction {batch[0]:.3f}")

        # Ranked retrieval hits the precomputed item block + LRU cache.
        top = service.top_n(0, n=5)
        print("top-5 for user 0:",
              ", ".join(f"{item}:{score:.2f}" for item, score in top.as_pairs()))

        # 4. Cold start: a brand-new user rates three items; their
        #    conditional posterior folds in through the batched
        #    block-Cholesky engine and they are served like anyone else.
        cold = service.fold_in(np.array([0, 1, 2]),
                               np.array([5.0, 4.0, 4.5]))
        cold_top = service.top_n(cold, n=5)
        print(f"fold-in user {cold} top-5:",
              ", ".join(f"{item}:{score:.2f}"
                        for item, score in cold_top.as_pairs()))


if __name__ == "__main__":
    main()
