"""Asynchronous distributed BPMF Gibbs sampler: one rank program.

Every rank owns a block of users and a block of movies (from the
workload-aware partition), keeps its *own copies* of ``U`` and ``V``, and
runs the same blocking program (:meth:`DistributedGibbsSampler._rank_program`)
against its communicator — on every simulated rank of a
:class:`~repro.mpi.simmpi.SimCommWorld`, or once per process on a socket
world; only *who calls it* differs per transport.  Within one iteration,
per entity class (movies, then users):

1. the ranks agree on the Normal–Wishart posterior — an allreduce of
   per-rank sufficient statistics, or (``hyper_mode="gather"``, exact
   parity with the sequential sampler) the owned rows gathered at rank 0
   and the posterior broadcast back — and every rank draws the prior and
   the full noise matrix from its copy of one replicated generator;
2. the rank updates the items it owns, reading the other class's factors
   it holds locally (authoritative for its own items, last-received
   copies for remote ones — up to date because they were exchanged at the
   end of the phase that wrote them);
3. the refreshed rows leave as one non-blocking frame per destination —
   ``<i4`` ids plus their rows, grouped by destination from the
   communication plan once per run; the rank then receives until every
   row the plan promises it has arrived (arrival order cannot matter:
   rows land in disjoint slices) and raises on a row it never planned
   for.

After both phases every rank predicts the held-out cells of the users it
owns (the plan ships each such cell's movie row there) and adds its owned
rows to its share of the posterior-mean factor sums.  Rank 0 receives
every other rank's predictions and update count, scatters the
predictions into test order and alone owns the predictor, the RMSE traces
and the checkpointer.  The owned rows and factor sums travel to rank 0
only on a *gathering* sweep: the last one and every one the checkpoint
policy saves (:meth:`~repro.serving.checkpoint.CheckpointConfig.due` is a
pure function, so every rank knows them).  Ranks only ever see remote
data that arrived in messages, so an inconsistent communication plan
fails loudly (stray row, would-deadlock, or the pending-message audit)
instead of diverging.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.batch_engine import make_update_engine
from repro.core.gibbs import BPMFResult, ResumeLike
from repro.core.metrics import rmse
from repro.core.predict import PosteriorPredictor
from repro.core.priors import BPMFConfig, NormalWishartPrior
from repro.core.state import BPMFState, initialize_state
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.core.wishart import (
    normal_wishart_posterior,
    normal_wishart_posterior_from_stats,
    sample_normal_wishart,
)
from repro.distributed.comm_plan import (
    CommunicationPlan,
    build_comm_plan,
    send_schedule,
)
from repro.distributed.partition import Partition, partition_ratings
from repro.mpi.simmpi import SimCommWorld
from repro.obs.trace import maybe_span
from repro.parallel.cost_model import WorkloadModel
from repro.sparse.csr import CompressedAxis, RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_in, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> core)
    from repro.serving.checkpoint import CheckpointConfig

__all__ = ["DistributedOptions", "DistributedGibbsSampler",
           "DistributedRunInfo", "Tag"]


class Tag(IntEnum):
    """Message tags of the rank program (the same on every transport)."""

    MOVIES = 1  # one frame per (owner, reader): <i4 ids + refreshed movie rows
    USERS = 2  # the same for refreshed user rows
    EVAL = 50  # -> rank 0 every sweep: test predictions + update count, and
    # on gathering sweeps the owned rows and factor-mean sums
    GATHER_MOVIES = 101  # hyper_mode="gather": owned movie rows -> rank 0
    GATHER_USERS = 102  # hyper_mode="gather": owned user rows -> rank 0


@dataclass
class DistributedOptions:
    """Execution options of the distributed sampler.

    ``checkpoint`` enables save-every-k-sweeps posterior snapshots of the
    authoritative gathered state, written by rank 0.  Every rank must be
    given the same policy: the ranks gather at rank 0 on the sweeps it
    saves.  At a sweep boundary every rank's copy of each factor row it
    will read next sweep equals the authoritative row (they were
    exchanged at the end of the phase that last wrote them), so resuming
    by handing all ranks the gathered state reproduces the uninterrupted
    chain exactly.
    """

    n_ranks: int = 4
    reorder: bool = True
    hyper_mode: str = "stats"  # "stats" (allreduce) or "gather" (exact parity)
    update_method: Optional[UpdateMethod] = None
    policy: HybridUpdatePolicy = field(default_factory=HybridUpdatePolicy)
    engine: str = "batched"  # update execution strategy (see core.batch_engine)
    compute_dtype: str = "float64"  # kernel precision of the batched/shared engines
    #: Process-pool size per node for ``engine="shared"`` — the simulated
    #: ranks share one pool, which mirrors a real deployment where every
    #: node runs its phase across its local cores.
    n_workers: Optional[int] = None
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    keep_sample_predictions: bool = False
    checkpoint: Optional["CheckpointConfig"] = None

    def __post_init__(self):
        check_positive("n_ranks", self.n_ranks)
        check_in("hyper_mode", self.hyper_mode, ("stats", "gather"))


@dataclass
class DistributedRunInfo:
    """Diagnostics of one distributed run (traffic, partition quality)."""

    partition: Partition
    plan: CommunicationPlan
    n_messages: int
    bytes_sent: float
    items_exchanged_per_iteration: int


@dataclass
class _Block:
    """One entity class as one rank sees it."""

    name: str  # "movies" | "users"
    tag: Tag
    gather_tag: Tag
    hyperprior: NormalWishartPrior
    axis: CompressedAxis
    factors: np.ndarray  # this rank's copy of the whole class
    owned: np.ndarray  # ids this rank updates and is authoritative for
    schedule: List[Tuple[int, np.ndarray]]  # (dest, ids) sent every phase
    expected: np.ndarray  # mask of the ids this rank receives every phase
    mean_sum: np.ndarray  # the owned rows summed over post-burn-in sweeps


class DistributedGibbsSampler:
    """Distributed BPMF: one rank program over any communicator."""

    def __init__(self, config: BPMFConfig | None = None,
                 options: DistributedOptions | None = None):
        self.config = config or BPMFConfig()
        self.options = options or DistributedOptions()
        # One engine per sampler, shared by the simulated ranks (which
        # never run concurrently): the bucket plans it caches are keyed
        # per (axis, owned-items) pair, so each rank's subset gets its own
        # plan while the arithmetic stays per-item deterministic
        # (identical rows to a full-matrix plan).  With engine="shared"
        # each rank's per-node phase runs across the engine's process
        # pool, so node- and core-level parallelism compose as in the
        # paper's cluster runs.
        self._engine = make_update_engine(self.options.engine,
                                          update_method=self.options.update_method,
                                          policy=self.options.policy,
                                          compute_dtype=self.options.compute_dtype,
                                          n_workers=self.options.n_workers)

    # ------------------------------------------------------------------ #
    # hyperparameter step
    # ------------------------------------------------------------------ #

    def _agree_posterior(self, comm, block: _Block,
                         iteration: int) -> NormalWishartPrior:
        """The posterior of one class's Gaussian prior, identical on every rank."""
        k = self.config.num_latent
        rows = block.factors[block.owned]
        if self.options.hyper_mode == "stats":
            # Sufficient statistics (count, sum, sum of outer products)
            # flattened into one vector per rank, reduced in rank order.
            stats = np.concatenate([
                [float(rows.shape[0])],
                rows.sum(axis=0) if rows.size else np.zeros(k),
                (rows.T @ rows).ravel() if rows.size else np.zeros(k * k),
            ])
            total = comm.allreduce(stats, key=f"hyper-{block.name}-{iteration}")
            return normal_wishart_posterior_from_stats(
                int(round(total[0])), total[1:1 + k],
                total[1 + k:].reshape(k, k), block.hyperprior)
        shared = None
        if comm.rank == 0:
            # Rank 0 rebuilds the full matrix in canonical order — bitwise
            # what the sequential sampler sees.
            full = np.zeros_like(block.factors)
            full[block.owned] = rows
            for _ in range(comm.size - 1):
                owned, their_rows = comm.recv(tag=block.gather_tag)
                full[np.asarray(owned)] = np.asarray(their_rows)
            posterior = normal_wishart_posterior(full, block.hyperprior)
            shared = {"mu0": posterior.mu0, "beta0": float(posterior.beta0),
                      "W0": posterior.W0, "nu0": float(posterior.nu0)}
        else:
            comm.isend((block.owned, rows), dest=0, tag=block.gather_tag,
                       description=f"gather-{block.name}")
        # Arrays cross a wire as exact binary blocks, the scalars as JSON,
        # which round-trips IEEE doubles exactly.
        shared = comm.bcast(shared, root=0)
        return NormalWishartPrior(
            mu0=np.asarray(shared["mu0"], dtype=np.float64),
            beta0=float(shared["beta0"]),
            W0=np.asarray(shared["W0"], dtype=np.float64),
            nu0=float(shared["nu0"]))

    # ------------------------------------------------------------------ #
    # exchange after one phase
    # ------------------------------------------------------------------ #

    def _exchange(self, comm, block: _Block) -> None:
        """Ship the refreshed owned rows, then receive the planned ones."""
        with maybe_span("mpi.exchange", phase=block.name, rank=comm.rank):
            for dest, ids in block.schedule:
                comm.isend((ids, block.factors[ids]), dest=dest, tag=block.tag,
                           description=f"{block.name}-update")

            remaining = block.expected.copy()
            while remaining.any():
                ids, payload = comm.recv(tag=block.tag)
                ids = np.asarray(ids)
                stray = ids[~remaining[ids]]
                if stray.size:
                    raise ValidationError(
                        f"rank {comm.rank} received {block.name} rows "
                        f"{stray[:5].tolist()} it never planned for — the "
                        "communication plan and the exchange loop are "
                        "inconsistent")
                remaining[ids] = False
                block.factors[ids] = np.asarray(payload)

    # ------------------------------------------------------------------ #
    # the rank program
    # ------------------------------------------------------------------ #

    def _rank_program(self, comm, train: RatingMatrix,
                      test: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      rng: np.random.Generator, plan: CommunicationPlan,
                      resume: Optional[ResumeLike]) -> Optional[BPMFResult]:
        """What one rank runs; returns the result on rank 0, else ``None``.

        Every rank is called with equal arguments and its *own* ``rng``,
        all at the same point of one stream (the replicated generator).
        ``test`` is the ``(users, movies, values)`` of the held-out cells.
        """
        from repro.serving.checkpoint import TrainingCheckpointer

        config, rank = self.config, comm.rank
        snapshot, state, rng = TrainingCheckpointer.open_resume(
            resume, None, rng)
        if state is None:
            state = initialize_state(train, config, rng)
        elif (state.n_users, state.n_movies) != (train.n_users, train.n_movies):
            raise ValidationError(
                "snapshot shape does not match the rating matrix")

        def block(name, tag, gather_tag, hyperprior, axis, factors,
                  owned) -> _Block:
            # The send side follows the plan's edges, the receive side
            # counts against their inversion.
            edges = plan.edges(name)
            mine = edges.owner == rank
            expected = np.zeros(factors.shape[0], dtype=bool)
            expected[plan.expected_incoming(name, rank)] = True
            owned = np.asarray(owned, dtype=np.int64)
            return _Block(name, tag, gather_tag, hyperprior, axis, factors,
                          owned, send_schedule(edges.item[mine],
                                               edges.dest[mine]),
                          expected, np.zeros((owned.size, factors.shape[1])))

        partition = plan.partition
        movies = block("movies", Tag.MOVIES, Tag.GATHER_MOVIES,
                       config.movie_hyperprior, train.by_movie,
                       state.movie_factors, partition.movies_of(rank))
        users = block("users", Tag.USERS, Tag.GATHER_USERS,
                      config.user_hyperprior, train.by_user,
                      state.user_factors, partition.users_of(rank))
        n_means = 0
        if snapshot is not None and snapshot.mean_user_sum is not None:
            # This rank's share of the checkpointed factor-mean sums.
            users.mean_sum = snapshot.mean_user_sum[users.owned]
            movies.mean_sum = snapshot.mean_movie_sum[movies.owned]
            n_means = snapshot.mean_count

        # The held-out cells each rank predicts: those of the users it owns.
        test_users, test_movies, test_values = test
        cell_owner = partition.user_owner[test_users]
        cells = np.split(np.argsort(cell_owner, kind="stable"), np.cumsum(
            np.bincount(cell_owner, minlength=comm.size))[:-1])
        my_users, my_movies = test_users[cells[rank]], test_movies[cells[rank]]
        if rank == 0:
            predictor = PosteriorPredictor(
                test_users, test_movies,
                keep_samples=self.options.keep_sample_predictions)
            checkpointer = TrainingCheckpointer(
                config, self.options.checkpoint, snapshot, state, predictor)
        gathered = state if snapshot is not None else None
        checkpoint, total = self.options.checkpoint, config.total_iterations

        for iteration in range(state.iteration, total):
            with maybe_span("mpi.sweep", iteration=iteration, rank=rank):
                updated, priors = 0, {}
                for this, other in ((movies, users), (users, movies)):
                    posterior = self._agree_posterior(comm, this, iteration)
                    priors[this.name] = sample_normal_wishart(posterior, rng)
                    noise = rng.standard_normal(this.factors.shape)
                    updated += self._engine.update_items(
                        this.factors, other.factors, this.axis,
                        priors[this.name], config.alpha, noise,
                        items=this.owned)
                    self._exchange(comm, this)
                if iteration >= config.burn_in:
                    for this in (movies, users):
                        # A new array, not +=: a sent frame may alias it.
                        this.mean_sum = this.mean_sum + this.factors[this.owned]
                    n_means += 1

                gathering = iteration + 1 == total or (
                    checkpoint is not None and checkpoint.due(iteration, total))
                frame = (state.predict(my_users, my_movies), int(updated))
                if gathering:
                    frame += (users.factors[users.owned],
                              movies.factors[movies.owned],
                              users.mean_sum, movies.mean_sum)
                if rank != 0:
                    comm.isend(frame, dest=0, tag=Tag.EVAL, description="eval")
                    continue
                frames = [frame] + [comm.recv(source=source, tag=Tag.EVAL)
                                    for source in range(1, comm.size)]
                predictions = np.empty(test_values.shape[0])
                for source, theirs in enumerate(frames):
                    if len(theirs) != len(frame):
                        raise ValidationError(
                            f"rank {source} and rank 0 disagree on whether "
                            f"sweep {iteration} gathers: every rank needs "
                            "the same checkpoint policy")
                    predictions[cells[source]] = theirs[0]
                    checkpointer.items_updated += int(theirs[1])
                if gathering:
                    gathered = BPMFState(
                        user_factors=np.zeros_like(users.factors),
                        movie_factors=np.zeros_like(movies.factors),
                        user_prior=priors["users"],
                        movie_prior=priors["movies"], iteration=iteration + 1)
                    user_sum = np.zeros_like(users.factors)
                    movie_sum = np.zeros_like(movies.factors)
                    for source, (_, _, user_rows, movie_rows, their_user_sum,
                                 their_movie_sum) in enumerate(frames):
                        their_users = partition.users_of(source)
                        their_movies = partition.movies_of(source)
                        gathered.user_factors[their_users] = user_rows
                        gathered.movie_factors[their_movies] = movie_rows
                        user_sum[their_users] = their_user_sum
                        movie_sum[their_movies] = their_movie_sum
                    checkpointer.factor_means.restore(user_sum, movie_sum,
                                                      n_means)

                if iteration >= config.burn_in:
                    predictor.add(predictions)
                    mean_rmse = rmse(predictor.mean_prediction(), test_values)
                else:
                    mean_rmse = None
                checkpointer.record(iteration, None,
                                    rmse(predictions, test_values), mean_rmse)
                if gathering:
                    checkpointer.maybe_save(iteration, gathered, rng,
                                            predictor)
        # Everyone finishes before anyone tears its links down.
        comm.barrier()

        if rank != 0:
            return None
        return BPMFResult(
            config=config,
            state=gathered,
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

    # ------------------------------------------------------------------ #
    # full run
    # ------------------------------------------------------------------ #

    def run(self, train: RatingMatrix, split: RatingSplit | None = None,
            seed: SeedLike = 0, partition: Partition | None = None,
            resume: Optional[ResumeLike] = None,
            comm_world=None) -> Tuple[Optional[BPMFResult], DistributedRunInfo]:
        """Run the distributed sampler; returns ``(result, diagnostics)``.

        ``comm_world`` selects the transport, and with it who calls the
        rank program.  ``None`` (the default) or a
        :class:`~repro.mpi.simmpi.SimCommWorld` runs *every* rank
        in-process: the result is rank 0's and the diagnostics cover the
        whole world (its message log holds the run's traffic).  A
        per-process world — anything with the socket-world surface
        ``n_ranks`` / ``comm()`` / ``pending_messages()`` /
        ``total_messages_sent()`` / ``total_bytes_sent()``, e.g.
        :class:`repro.mpi.net.SocketCommWorld` — runs only this process's
        rank: every process calls ``run`` with the same arguments, the
        result comes back on rank 0 only (``None`` elsewhere), the
        diagnostics count this rank's traffic, and the caller owns the
        world's lifetime.  The chain is bit-identical on every transport.

        ``resume`` continues a checkpointed chain on any world: every rank
        restores the snapshot's authoritative factor matrices (see
        :class:`DistributedOptions`) and generator state, so the
        completed run matches an uninterrupted one bit for bit.  Traffic
        diagnostics restart from zero at the resume point.
        """
        options = self.options
        world = SimCommWorld(options.n_ranks) if comm_world is None else comm_world
        if world.n_ranks != options.n_ranks:
            raise ValidationError(
                f"comm_world has {world.n_ranks} ranks but options.n_ranks "
                f"is {options.n_ranks} — the partition would not match")
        if partition is None:
            partition = partition_ratings(
                train, options.n_ranks, workload=options.workload,
                reorder=options.reorder)
        elif partition.n_ranks != options.n_ranks:
            raise ValidationError("partition rank count does not match options")
        if split is not None and split.n_test > 0:
            test = split.test_triplets()
        else:
            test = train.triplets()
        plan = build_comm_plan(train, partition, test_pairs=test[:2])
        rng = as_generator(seed)

        def program(comm, rng):
            return self._rank_program(comm, train, test, rng, plan, resume)

        # engine="shared" owns worker processes and shared-memory segments;
        # the finally releases them even when a phase raises mid-run.
        try:
            if isinstance(world, SimCommWorld):
                # Rank 0 draws from the caller's generator (so it advances
                # as in a sequential run), the others from copies of it.
                rngs = [rng] + [copy.deepcopy(rng) for _ in world.comms()[1:]]
                outcomes = world.run(lambda comm: program(comm, rngs[comm.rank]))
            else:
                outcomes = [program(world.comm(), rng)]
        finally:
            self._engine.close()

        if world.pending_messages():
            raise ValidationError(
                f"{world.pending_messages()} messages were never received — "
                "the communication plan and the exchange loop are inconsistent")
        info = DistributedRunInfo(
            partition=partition,
            plan=plan,
            n_messages=world.total_messages_sent(),
            bytes_sent=float(world.total_bytes_sent()),
            items_exchanged_per_iteration=plan.total_items_exchanged(),
        )
        return outcomes[0], info
