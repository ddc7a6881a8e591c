"""Functionally parallel multicore Gibbs sampler.

The decomposition mirrors the paper's shared-memory implementation: within
the movie phase, every movie's conditional depends only on the (frozen)
user factors and the movie hyperparameters, so all movies can be updated
concurrently without synchronisation; symmetrically for users.

To make the parallel sampler *bit-for-bit identical* to the sequential
reference (the strongest possible form of the paper's "all versions reach
the same accuracy" claim), the Gaussian noise vector consumed by every item
update is pre-drawn from the shared generator in canonical item order
before the parallel region starts; the worker threads then touch no shared
random state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.batch_engine import BatchedUpdateEngine, make_update_engine
from repro.core.gibbs import BPMFResult, ResumeLike
from repro.core.metrics import rmse
from repro.core.predict import PosteriorPredictor
from repro.core.priors import BPMFConfig
from repro.core.state import BPMFState, initialize_state
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.core.wishart import sample_hyperparameters
from repro.parallel.thread_backend import ThreadPoolBackend
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> core)
    from repro.serving.checkpoint import CheckpointConfig

__all__ = ["MulticoreOptions", "MulticoreGibbsSampler"]


@dataclass
class MulticoreOptions:
    """Execution options of the multicore sampler.

    ``engine`` selects the update execution strategy (see
    :class:`repro.core.batch_engine.UpdateEngine`).  With ``"batched"``
    (default) the thread pool maps over degree buckets — each a stacked
    LAPACK call over disjoint items — instead of over individual items.
    With ``"shared"`` the degree buckets run on a pool of real processes
    over shared memory
    (:class:`repro.core.shared_engine.SharedMemoryUpdateEngine`); the
    engine then schedules its own execution and the thread pool is
    bypassed.  ``n_workers`` sizes that process pool (default:
    ``n_threads``, so existing configs scale transparently), and
    ``compute_dtype`` selects the kernel precision (``"float32"`` halves
    the memory bandwidth at tolerance-level, not bit-level, parity).

    ``checkpoint`` enables save-every-k-sweeps posterior snapshots, exactly
    as in :class:`repro.core.gibbs.SamplerOptions`; because the parallel
    sampler consumes the same random stream as the sequential one, a chain
    checkpointed under one backend can resume under the other.
    """

    n_threads: int = 1
    chunk_size: int = 64
    update_method: Optional[UpdateMethod] = None
    policy: HybridUpdatePolicy = field(default_factory=HybridUpdatePolicy)
    engine: str = "batched"
    compute_dtype: str = "float64"
    n_workers: Optional[int] = None
    keep_sample_predictions: bool = False
    checkpoint: Optional["CheckpointConfig"] = None


class MulticoreGibbsSampler:
    """Shared-memory parallel BPMF sampler (thread-pool backend).

    Statistically and numerically equivalent to
    :class:`repro.core.gibbs.GibbsSampler`; only the execution of the item
    loops differs.
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: MulticoreOptions | None = None):
        self.config = config or BPMFConfig()
        self.options = options or MulticoreOptions()
        n_workers = self.options.n_workers
        if n_workers is None and self.options.engine == "shared":
            n_workers = self.options.n_threads
        self._engine = make_update_engine(self.options.engine,
                                          update_method=self.options.update_method,
                                          policy=self.options.policy,
                                          compute_dtype=self.options.compute_dtype,
                                          n_workers=n_workers)
        # chunk_size is tuned for per-item mapping; the batched engine's
        # parallel units are item blocks (typically a few dozen per
        # phase), which must be submitted one per task or every block
        # lands in a single chunk on a single thread.
        chunk = 1 if isinstance(self._engine, BatchedUpdateEngine) \
            else self.options.chunk_size
        self._backend = ThreadPoolBackend(self.options.n_threads, chunk)

    # -- one parallel phase -------------------------------------------------

    def _update_phase(self, state: BPMFState, ratings: RatingMatrix,
                      phase: str, rng: np.random.Generator) -> int:
        """Update every item of one entity class in parallel."""
        if phase == "movies":
            n_items = ratings.n_movies
            prior = state.movie_prior
            source = state.user_factors
            target = state.movie_factors
            axis = ratings.by_movie
        else:
            n_items = ratings.n_users
            prior = state.user_prior
            source = state.movie_factors
            target = state.user_factors
            axis = ratings.by_user

        # Pre-draw the per-item noise in canonical order so the result does
        # not depend on thread interleaving and matches the sequential
        # sampler's random stream exactly.
        noise = rng.standard_normal((n_items, self.config.num_latent))
        parallel_map = (None if self._engine.manages_parallelism
                        else self._backend.map_items)
        self._engine.update_items(target, source, axis, prior,
                                  self.config.alpha, noise,
                                  parallel_map=parallel_map)
        return n_items

    def sweep(self, state: BPMFState, ratings: RatingMatrix,
              rng: np.random.Generator) -> int:
        """One full Gibbs sweep; returns the number of item updates."""
        state.movie_prior = sample_hyperparameters(
            state.movie_factors, self.config.movie_hyperprior, rng)
        updated = self._update_phase(state, ratings, "movies", rng)
        state.user_prior = sample_hyperparameters(
            state.user_factors, self.config.user_hyperprior, rng)
        updated += self._update_phase(state, ratings, "users", rng)
        state.iteration += 1
        return updated

    # -- full run -------------------------------------------------------------

    def run(self, train: RatingMatrix, split: RatingSplit | None = None,
            seed: SeedLike = 0, state: BPMFState | None = None,
            resume: Optional[ResumeLike] = None) -> BPMFResult:
        """Run the sampler; mirrors :meth:`repro.core.gibbs.GibbsSampler.run`."""
        from repro.serving.checkpoint import TrainingCheckpointer

        rng = as_generator(seed)
        snapshot, state, rng = TrainingCheckpointer.open_resume(resume, state, rng)
        if state is None:
            state = initialize_state(train, self.config, rng)
        if state.n_users != train.n_users or state.n_movies != train.n_movies:
            raise ValidationError("state shape does not match the rating matrix")

        if split is not None and split.n_test > 0:
            test_users, test_movies, test_values = split.test_triplets()
        else:
            test_users, test_movies, test_values = train.triplets()

        predictor = PosteriorPredictor(
            test_users, test_movies,
            keep_samples=self.options.keep_sample_predictions)
        checkpointer = TrainingCheckpointer(self.config, self.options.checkpoint,
                                            snapshot, state, predictor)

        # engine="shared" owns worker processes and shared-memory segments;
        # the finally releases them even when a sweep raises mid-run.
        try:
            for iteration in range(checkpointer.start_iteration,
                                   self.config.total_iterations):
                checkpointer.items_updated += self.sweep(state, train, rng)
                if iteration >= self.config.burn_in:
                    # accumulate() predicts the test set: one predict a sweep.
                    sample_pred = predictor.accumulate(state)
                    mean_rmse = rmse(predictor.mean_prediction(), test_values)
                else:
                    sample_pred = state.predict(test_users, test_movies)
                    mean_rmse = None
                checkpointer.record(iteration, state,
                                    rmse(sample_pred, test_values), mean_rmse)
                checkpointer.maybe_save(iteration, state, rng, predictor)
        finally:
            self._engine.close()

        return BPMFResult(
            config=self.config,
            state=state,
            rmse_per_sample=checkpointer.rmse_per_sample,
            rmse_running_mean=checkpointer.rmse_running_mean,
            rmse_burn_in=checkpointer.rmse_burn_in,
            predictions=predictor.mean_prediction(),
            sample_predictions=(predictor.sample_matrix()
                                if self.options.keep_sample_predictions else None),
            items_updated=checkpointer.items_updated,
            factor_means=(checkpointer.factor_means
                          if checkpointer.factor_means.n_samples else None),
        )
