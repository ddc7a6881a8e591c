"""The BPMF Gibbs sampler (Algorithm 1 of the paper) and its one chain loop.

This is the reference implementation every parallel variant is validated
against.  One sweep:

1. resample the movie hyperparameters from ``V``;
2. update every movie's factor from the users that rated it;
3. resample the user hyperparameters from ``U``;
4. update every user's factor from the movies they rated;
5. predict all test points and record RMSE (per-sample and posterior-mean).

:meth:`GibbsSampler._rank_program` is the only loop that runs it: one
rank's program, driven by its :class:`RankLayout` and three *world seams*
(agree on the hyperparameter posterior, publish the refreshed rows,
collect every rank's eval frame at rank 0).  :meth:`GibbsSampler.run` is
the 1-rank world, on the caller's thread, where the seams reduce to the
sequential arithmetic;
:class:`repro.distributed.sampler.DistributedGibbsSampler` overrides them
with message passing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.batch_engine import (
    BatchedUpdateEngine,
    UpdateEngine,
    make_update_engine,
)
from repro.core.checkpoint import (
    CheckpointConfig,
    Snapshot,
    TrainingCheckpointer,
)
from repro.core.metrics import rmse
from repro.core.predict import FactorMeanAccumulator, PosteriorPredictor
from repro.core.priors import BPMFConfig, NormalWishartPrior
from repro.core.state import BPMFState, initialize_state
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.core.wishart import normal_wishart_posterior, sample_normal_wishart
from repro.obs.trace import maybe_span
from repro.sparse.csr import CompressedAxis, RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_generator
from repro.utils.thread_backend import ThreadPoolBackend
from repro.utils.validation import ValidationError

__all__ = ["SamplerOptions", "BPMFResult", "RankLayout", "GibbsSampler"]

#: A resume source: an in-memory snapshot or a path to a saved one.
ResumeLike = Union[Snapshot, str, "os.PathLike"]

#: Items per thread task for the reference engine's per-item units (the
#: batched engine's item blocks go one per task).
ITEM_CHUNK = 64

logger = get_logger("core.gibbs")


@dataclass
class SamplerOptions:
    """Execution options orthogonal to the statistical model.

    ``update_method`` forces one of the three kernels for every item;
    ``None`` (default) uses the hybrid policy, as the paper does: the
    data-space rank-one kernel below a degree boundary that depends on
    ``K`` (:meth:`HybridUpdatePolicy.rank_one_limit`), the Gram path above
    it, the blocked Gram path from ``parallel_threshold``.  Under the
    ``"reference"`` engine the kernel runs literally, one item at a time;
    the ``"batched"`` engine runs the same formulas stacked over each
    bucket (a forced ``SERIAL_CHOLESKY`` or ``PARALLEL_CHOLESKY`` only
    changes the Gram accumulation).  All kernels sample the same
    distribution, so this changes cost profile, never statistics; the
    rank-one kernel takes another square root of it, so forcing it moves
    the chain.  Use ``engine="reference"`` when per-kernel timing fidelity
    matters (as the Figure 2 driver does).

    ``engine`` selects how a phase's item updates are *executed*:
    ``"batched"`` (default) runs them through the stacked-BLAS
    :class:`repro.core.batch_engine.BatchedUpdateEngine`, ``"reference"``
    keeps the historical per-item loop, and ``"shared"`` maps the degree
    buckets across a pool of ``n_workers`` processes over shared memory
    (:class:`repro.core.shared_engine.SharedMemoryUpdateEngine`).  All
    engines consume the same random stream, so they sample from identical
    chains up to floating-point rounding (bit-identical for
    batched/shared; see ``tests/test_batch_engine_parity.py``).

    ``compute_dtype`` selects the kernel precision of the batched/shared
    engines (``"float32"`` trades exact parity for halved memory
    bandwidth); ``n_workers`` sizes the shared engine's process pool and
    is rejected for engines that cannot use it.  ``n_threads`` runs a
    phase's units (batched item blocks, reference items) on that many
    threads; the shared engine ignores it.  The chain never changes.

    ``callback(state, iteration)`` runs after every recorded sweep, on rank
    0 only; ``verbose`` logs each sweep's RMSE there.  On one rank
    ``state`` is the chain's state.  On a multi-rank world it is rank 0's
    copy: its iteration, priors and own rows are exact, every row is after
    a gathering sweep (the last one and each checkpoint sweep), and in
    between the rows other ranks own may be stale.

    ``checkpoint`` (a :class:`repro.core.checkpoint.CheckpointConfig`)
    enables save-every-k-sweeps posterior snapshots; a run resumed from one
    (``run(..., resume=...)``) is bit-identical to an uninterrupted run.
    """

    update_method: Optional[UpdateMethod] = None
    policy: HybridUpdatePolicy = field(default_factory=HybridUpdatePolicy)
    engine: str = "batched"
    compute_dtype: str = "float64"
    n_workers: Optional[int] = None
    n_threads: int = 1
    keep_sample_predictions: bool = False
    verbose: bool = False
    callback: Optional[Callable[["BPMFState", int], None]] = None
    checkpoint: Optional[CheckpointConfig] = None


@dataclass
class BPMFResult:
    """Output of a BPMF run.

    Attributes
    ----------
    state:
        Final sampler state (last Gibbs sample).
    rmse_per_sample:
        Test RMSE of each individual post-burn-in sample.
    rmse_running_mean:
        Test RMSE of the running posterior-mean prediction after each
        post-burn-in sweep (this is the curve the paper's "same level of
        prediction accuracy" claim refers to).
    rmse_burn_in:
        Test RMSE trace during burn-in (single-sample predictions).
    predictions:
        Final posterior-mean predictions for the test points.
    sample_predictions:
        Per-sample prediction matrix when requested, else ``None``.
    factor_means:
        Running posterior-mean factor accumulator over the post-burn-in
        samples — what a snapshot serves from; ``None`` when no sample was
        accumulated (burn-in-only runs).
    """

    config: BPMFConfig
    state: BPMFState
    rmse_per_sample: List[float]
    rmse_running_mean: List[float]
    rmse_burn_in: List[float]
    predictions: np.ndarray
    sample_predictions: Optional[np.ndarray] = None
    items_updated: int = 0
    factor_means: Optional[FactorMeanAccumulator] = None

    @property
    def final_rmse(self) -> float:
        """Test RMSE of the posterior-mean prediction after all sweeps."""
        if not self.rmse_running_mean:
            raise ValidationError("no post-burn-in samples were accumulated")
        return self.rmse_running_mean[-1]


@dataclass
class RankLayout:
    """One rank's share of a world: the input of the chain loop.

    ``users[r]`` / ``movies[r]`` are the ids rank ``r`` owns (updates and is
    authoritative for) and ``cells[r]`` the positions, in test order, of
    the held-out cells it predicts; rank 0 reads every rank's entries when
    it gathers.  ``schedule[name]`` is the ``(dest, ids)`` frames this rank
    sends after a phase of class ``name`` (``"movies"`` / ``"users"``) and
    ``inbox[name]`` the ``(source, ids)`` frames it receives then, sources
    ascending; a rank that neither sends nor receives leaves them empty.
    """

    rank: int
    users: List[np.ndarray]
    movies: List[np.ndarray]
    cells: List[np.ndarray]
    schedule: Dict[str, List[Tuple[int, np.ndarray]]] = field(default_factory=dict)
    inbox: Dict[str, List[Tuple[int, np.ndarray]]] = field(default_factory=dict)

    @classmethod
    def sole(cls, n_users: int, n_movies: int, n_cells: int = 0) -> "RankLayout":
        """The 1-rank world: rank 0 owns every item and cell."""
        return cls(0, [np.arange(n_users)], [np.arange(n_movies)],
                   [np.arange(n_cells)])


@dataclass
class EntityBlock:
    """One entity class as one rank sees it."""

    name: str  # "movies" | "users"
    hyperprior: NormalWishartPrior
    axis: CompressedAxis
    factors: np.ndarray  # this rank's copy of the whole class
    owned: np.ndarray  # ids this rank updates and is authoritative for
    schedule: List[Tuple[int, np.ndarray]]  # (dest, ids) sent every phase
    inbox: List[Tuple[int, np.ndarray]]  # (source, ids) received every phase


def held_out_cells(train: RatingMatrix, split: RatingSplit | None
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(users, movies, values)`` the RMSE traces score: the split's test
    cells, or the training cells when it holds none."""
    if split is not None and split.n_test > 0:
        return split.test_triplets()
    return train.triplets()


class GibbsSampler:
    """BPMF Gibbs sampler: the chain loop on a 1-rank world.

    Parameters
    ----------
    config:
        Model and sweep configuration.
    options:
        Execution options (kernel selection, threads, logging, callbacks).

    Example
    -------
    >>> from repro.datasets import make_low_rank_dataset
    >>> from repro.core import BPMFConfig, GibbsSampler
    >>> data = make_low_rank_dataset(n_users=50, n_movies=40, density=0.3, seed=1)
    >>> sampler = GibbsSampler(BPMFConfig(num_latent=4, burn_in=2, n_samples=4))
    >>> result = sampler.run(data.split.train, data.split, seed=0)
    >>> result.final_rmse > 0
    True
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: SamplerOptions | None = None):
        self.config = config or BPMFConfig()
        options = self.options = options or SamplerOptions()
        self._engine = make_update_engine(
            options.engine, update_method=options.update_method,
            policy=options.policy, compute_dtype=options.compute_dtype,
            n_workers=options.n_workers)
        threads = ThreadPoolBackend(
            options.n_threads,
            1 if isinstance(self._engine, BatchedUpdateEngine) else ITEM_CHUNK)
        self._parallel_map = (
            threads.map_items if threads.n_threads > 1
            and not self._engine.manages_parallelism else None)

    @property
    def engine(self) -> UpdateEngine:
        """The update engine executing this sampler's item phases."""
        return self._engine

    # -- the world seams: their 1-rank forms --------------------------------

    def _agree_posterior(self, comm, block: EntityBlock,
                         iteration: int) -> NormalWishartPrior:
        """The posterior of one class's Gaussian prior, identical on every
        rank; on one rank, that of the full factor matrix."""
        return normal_wishart_posterior(block.factors, block.hyperprior)

    def _exchange(self, comm, block: EntityBlock) -> None:
        """Publish the refreshed owned rows to the ranks that read them; on
        one rank nobody else does."""

    def _collect(self, comm, frame: tuple) -> Optional[List[tuple]]:
        """Every rank's eval frame in rank order on rank 0, ``None`` on the
        others; on one rank, its own."""
        return [frame]

    # -- one sweep ------------------------------------------------------------

    def _blocks(self, layout: RankLayout, state: BPMFState,
                ratings: RatingMatrix) -> Tuple[EntityBlock, EntityBlock]:
        config = self.config
        return tuple(
            EntityBlock(name, hyperprior, axis, factors, owned[layout.rank],
                        layout.schedule.get(name, []),
                        layout.inbox.get(name, []))
            for name, hyperprior, axis, factors, owned in (
                ("movies", config.movie_hyperprior, ratings.by_movie,
                 state.movie_factors, layout.movies),
                ("users", config.user_hyperprior, ratings.by_user,
                 state.user_factors, layout.users)))

    def _sweep(self, comm, blocks: Tuple[EntityBlock, EntityBlock],
               state: BPMFState, rng: np.random.Generator) -> int:
        """One sweep of one rank; returns the items it updated.

        Per class, movies first: agree on the posterior, draw the prior and
        the whole class's noise (in canonical item order, so every engine,
        thread count and layout sees one stream), update the owned items,
        publish them.
        """
        movies, users = blocks
        updated = 0
        for this, other in ((movies, users), (users, movies)):
            prior = sample_normal_wishart(
                self._agree_posterior(comm, this, state.iteration), rng)
            if this is movies:
                state.movie_prior = prior
            else:
                state.user_prior = prior
            noise = rng.standard_normal(this.factors.shape)
            updated += self._engine.update_items(
                this.factors, other.factors, this.axis, prior,
                self.config.alpha, noise, items=this.owned,
                parallel_map=self._parallel_map)
            self._exchange(comm, this)
        state.iteration += 1
        return updated

    def sweep(self, state: BPMFState, ratings: RatingMatrix,
              rng: np.random.Generator) -> int:
        """One full Gibbs sweep over hyperparameters, movies and users: the
        1-rank case of the chain loop's sweep.

        Returns the number of item updates performed (used for the
        items/second throughput metric of Figures 3 and 4).
        """
        layout = RankLayout.sole(ratings.n_users, ratings.n_movies)
        return self._sweep(None, self._blocks(layout, state, ratings), state,
                           rng)

    # -- the chain loop -------------------------------------------------------

    def _rank_program(self, comm, layout: RankLayout, train: RatingMatrix,
                      test: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      rng: np.random.Generator,
                      resume: Optional[ResumeLike] = None,
                      state: BPMFState | None = None) -> Optional[BPMFResult]:
        """The chain loop as one rank runs it; the result on rank 0, else
        ``None``.

        ``comm`` goes to the seams; it is ``None`` on :meth:`run`'s 1-rank
        world, whose sweep is :meth:`sweep` (a subclass overriding it keeps
        this loop).  Every rank gets equal arguments and its *own* ``rng``,
        all at one point of the replicated stream; ``test`` is the
        ``(users, movies, values)`` of the held-out cells, and the chain
        continues from ``state.iteration``.

        After each sweep every rank adds its factors to its posterior-mean
        factor sums and predicts its own cells.  Rank 0 scatters every
        rank's predictions into test order and alone owns the predictor,
        the RMSE traces, the checkpointer, ``callback`` and ``verbose``.  On a *gathering* sweep — the last one and every one
        the checkpoint policy saves (``CheckpointConfig.due`` is pure, so
        every rank knows them) — the other ranks' frames also carry their
        owned rows and factor sums, which rank 0 writes into its own state
        and accumulator.
        """
        config, options, rank = self.config, self.options, layout.rank
        snapshot, state, rng = TrainingCheckpointer.open_resume(
            resume, state, rng)
        if state is None:
            state = initialize_state(train, config, rng)
        elif (state.n_users, state.n_movies) != (train.n_users, train.n_movies):
            raise ValidationError("state shape does not match the rating matrix")
        total = config.total_iterations
        if state.iteration > total:
            raise ValidationError(
                f"the chain is at sweep {state.iteration}, beyond the "
                f"configured total of {total}")

        movies, users = blocks = self._blocks(layout, state, train)
        # Every rank sums its whole copy of U and V, but only its owned rows
        # are true sums: rank 0 overwrites the others with their owners'
        # sums on each gathering sweep, and nothing reads them in between.
        means = FactorMeanAccumulator.for_state(state)
        if snapshot is not None and snapshot.mean_user_sum is not None:
            means.restore(snapshot.mean_user_sum, snapshot.mean_movie_sum,
                          snapshot.mean_count)

        test_users, test_movies, test_values = test
        mine = layout.cells[rank]
        my_users, my_movies = test_users[mine], test_movies[mine]
        if rank == 0:
            predictor = PosteriorPredictor(
                test_users, test_movies,
                keep_samples=options.keep_sample_predictions)
            checkpointer = TrainingCheckpointer(
                config, options.checkpoint, snapshot, means, predictor)
        checkpoint = options.checkpoint

        for iteration in range(state.iteration, total):
            with maybe_span("mpi.sweep", iteration=iteration, rank=rank):
                updated = (self.sweep(state, train, rng) if comm is None
                           else self._sweep(comm, blocks, state, rng))
                if iteration >= config.burn_in:
                    means.accumulate(state)

                gathering = iteration + 1 == total or (
                    checkpoint is not None and checkpoint.due(iteration, total))
                frame = (state.predict(my_users, my_movies), int(updated))
                if gathering and rank != 0:
                    frame += (users.factors[users.owned],
                              movies.factors[movies.owned],
                              means.user_sum[users.owned],
                              means.movie_sum[movies.owned])
                frames = self._collect(comm, frame)
                if frames is None:
                    continue
                predictions = np.empty(test_values.shape[0])
                for source, theirs in enumerate(frames):
                    if source and (len(theirs) > 2) != gathering:
                        raise ValidationError(
                            f"rank {source} and rank 0 disagree on whether "
                            f"sweep {iteration} gathers: every rank needs "
                            "the same checkpoint policy")
                    predictions[layout.cells[source]] = theirs[0]
                    checkpointer.items_updated += int(theirs[1])
                    if len(theirs) > 2:
                        # Rank 0's own rows and sums are already in place.
                        their_users = layout.users[source]
                        their_movies = layout.movies[source]
                        state.user_factors[their_users] = theirs[2]
                        state.movie_factors[their_movies] = theirs[3]
                        means.user_sum[their_users] = theirs[4]
                        means.movie_sum[their_movies] = theirs[5]

                sample_rmse = rmse(predictions, test_values)
                if iteration < config.burn_in:
                    checkpointer.rmse_burn_in.append(sample_rmse)
                    phase, latest = "burn-in", sample_rmse
                else:
                    predictor.add(predictions)
                    latest = rmse(predictor.mean_prediction(), test_values)
                    checkpointer.rmse_per_sample.append(sample_rmse)
                    checkpointer.rmse_running_mean.append(latest)
                    phase = "sample"
                if options.verbose:
                    logger.info("iter %d (%s): rmse=%.4f", iteration, phase,
                                latest)
                if options.callback is not None:
                    options.callback(state, iteration)
                if gathering:
                    checkpointer.maybe_save(iteration, state, rng, predictor)

        if rank != 0:
            return None
        return BPMFResult(
            config=config,
            state=state,
            rmse_per_sample=checkpointer.rmse_per_sample,
            rmse_running_mean=checkpointer.rmse_running_mean,
            rmse_burn_in=checkpointer.rmse_burn_in,
            predictions=predictor.mean_prediction(),
            sample_predictions=(predictor.sample_matrix()
                                if options.keep_sample_predictions else None),
            items_updated=checkpointer.items_updated,
            factor_means=(checkpointer.factor_means
                          if checkpointer.factor_means.n_samples else None),
        )

    def run(self, train: RatingMatrix, split: RatingSplit | None = None,
            seed: SeedLike = 0, state: BPMFState | None = None,
            resume: Optional[ResumeLike] = None) -> BPMFResult:
        """Run burn-in plus sampling sweeps and return the result bundle.

        Parameters
        ----------
        train:
            Training rating matrix.
        split:
            Optional split providing held-out test points; when omitted the
            training entries themselves are used for the RMSE traces (useful
            for smoke tests but not a generalisation measure).
        seed:
            Random seed or generator.
        state:
            Optional pre-initialised state to warm-start from (mutated in
            place and returned as ``result.state``).  Like a resume, the
            chain continues at ``state.iteration``: a state at sweep ``s``
            gets sweeps ``s .. total_iterations - 1``, the burn-in boundary
            stays at sweep ``burn_in``, and a checkpoint of the run resumes
            onto the same chain.  A fresh ``initialize_state`` is at 0.
        resume:
            Snapshot (or path to one) to continue from: the chain restarts
            at the checkpointed sweep with the checkpointed generator state
            and accumulators, so the completed run is bit-identical to one
            that never stopped.  ``keep_sample_predictions`` only collects
            post-resume samples (per-sample vectors are not checkpointed).
        """
        test = held_out_cells(train, split)
        layout = RankLayout.sole(train.n_users, train.n_movies,
                                 test[0].shape[0])
        # The engine may own worker processes and shared-memory segments
        # (engine="shared"); closing in a finally guarantees they are
        # released even when a sweep raises or the run is interrupted.
        try:
            return self._rank_program(None, layout, train, test,
                                      as_generator(seed), resume, state)
        finally:
            self._engine.close()
