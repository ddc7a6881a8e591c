"""Asynchronous distributed BPMF Gibbs sampler: the chain loop on every rank.

Every rank owns a block of users and a block of movies (from the
workload-aware partition), keeps its *own copies* of ``U`` and ``V``, and
runs the one chain loop (:meth:`repro.core.gibbs.GibbsSampler._rank_program`)
against its communicator — on every simulated rank of a
:class:`~repro.mpi.simmpi.SimCommWorld`, or once per process on a socket
world; only *who calls it* differs per transport.  This module supplies
what is distributed: the partition, the communication plan, each rank's
:class:`~repro.core.gibbs.RankLayout` and the message-passing forms of the
loop's three world seams.  Within one iteration, per entity class (movies,
then users):

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
   communication plan once per run; the rank then receives one frame
   from each source its inbox names, by ``(source, tag)`` in ascending
   source order (each source's link is FIFO, and the rows land in
   disjoint slices), and raises when a frame's ids are not the ones the
   plan names.

Each rank then predicts the held-out cells of the users it owns (the plan
ships each such cell's movie row there) for rank 0.  Ranks only ever see
remote data that arrived in messages, so an inconsistent plan fails loudly
(a frame off the plan, would-deadlock, or the pending-message audit)
instead of diverging.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Tuple

import numpy as np

from repro.core.gibbs import (
    BPMFResult,
    EntityBlock,
    GibbsSampler,
    RankLayout,
    ResumeLike,
    SamplerOptions,
    held_out_cells,
)
from repro.core.priors import BPMFConfig, NormalWishartPrior
from repro.core.wishart import (
    normal_wishart_posterior,
    normal_wishart_posterior_from_stats,
)
from repro.distributed.comm_plan import CommunicationPlan, build_comm_plan
from repro.distributed.partition import Partition, partition_ratings
from repro.mpi.simmpi import SimCommWorld
from repro.obs.trace import maybe_span
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_in, check_positive

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
class DistributedOptions(SamplerOptions):
    """:class:`~repro.core.gibbs.SamplerOptions` plus the world's shape.

    ``n_ranks`` ranks split the items by the workload-aware partition
    (``partition_ratings`` with its defaults; pass ``partition=`` to
    :meth:`DistributedGibbsSampler.run` for another).  ``hyper_mode`` picks how the ranks agree on a hyperparameter posterior:
    ``"stats"`` allreduces per-rank sufficient statistics (the sequential
    posterior up to summation order), ``"gather"`` rebuilds the full
    matrix at rank 0 and broadcasts the posterior (the sequential chain
    bit for bit).  On one rank there is nothing to reduce: both modes take
    the full-matrix posterior, and the chain is the sequential one.

    Every inherited option holds on every world: ``n_threads`` threads
    each rank's phases, ``engine="shared"`` runs them on the ``n_workers``
    pool (which the simulated ranks share, as a node's cores would), and
    ``callback`` runs on rank 0 (see ``SamplerOptions`` for
    the state it sees).  ``checkpoint`` snapshots hold the gathered state
    and are written by rank 0; every rank must be given the same policy,
    since the ranks gather at rank 0 on the sweeps it saves.  At a sweep
    boundary every row a rank reads next equals the authoritative row, so
    handing all ranks the gathered state resumes the chain exactly.
    """

    n_ranks: int = 4
    hyper_mode: str = "stats"  # "stats" (allreduce) or "gather" (exact parity)

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


class DistributedGibbsSampler(GibbsSampler):
    """Distributed BPMF: the one chain loop on every rank of a world.

    One engine per sampler, shared by the simulated ranks (which never
    run concurrently): the bucket plans it caches are keyed per
    (axis, owned-items) pair, so each rank's subset gets its own plan
    while the arithmetic stays per-item deterministic (identical rows to
    a full-matrix plan).
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: DistributedOptions | None = None):
        super().__init__(config, options or DistributedOptions())

    # -- the world seams -----------------------------------------------------

    def _agree_posterior(self, comm, block: EntityBlock,
                         iteration: int) -> NormalWishartPrior:
        if comm.size == 1:
            return super()._agree_posterior(comm, block, iteration)
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
        gather_tag = Tag["GATHER_" + block.name.upper()]
        shared = None
        if comm.rank == 0:
            # Rank 0 rebuilds the full matrix in canonical order — bitwise
            # what the sequential sampler sees.
            full = np.zeros_like(block.factors)
            full[block.owned] = rows
            for source in range(1, comm.size):
                owned, their_rows = comm.recv(source=source, tag=gather_tag)
                full[np.asarray(owned)] = np.asarray(their_rows)
            posterior = normal_wishart_posterior(full, block.hyperprior)
            shared = {"mu0": posterior.mu0, "beta0": float(posterior.beta0),
                      "W0": posterior.W0, "nu0": float(posterior.nu0)}
        else:
            comm.isend((block.owned, rows), dest=0, tag=gather_tag)
        # Arrays cross a wire as exact binary blocks, the scalars as JSON,
        # which round-trips IEEE doubles exactly.
        shared = comm.bcast(shared, root=0)
        return NormalWishartPrior(
            mu0=np.asarray(shared["mu0"], dtype=np.float64),
            beta0=float(shared["beta0"]),
            W0=np.asarray(shared["W0"], dtype=np.float64),
            nu0=float(shared["nu0"]))

    def _exchange(self, comm, block: EntityBlock) -> None:
        """Ship the refreshed owned rows, then receive the planned ones."""
        tag = Tag[block.name.upper()]
        with maybe_span("mpi.exchange", phase=block.name, rank=comm.rank):
            for dest, ids in block.schedule:
                comm.isend((ids, block.factors[ids]), dest=dest, tag=tag)
            for source, planned in block.inbox:
                ids, payload = comm.recv(source=source, tag=tag)
                if not np.array_equal(ids, planned):
                    raise ValidationError(
                        f"rank {comm.rank} received {block.name} rows from "
                        f"rank {source} other than the {planned.size} it "
                        "planned for — the communication plan and the "
                        "exchange loop are inconsistent")
                block.factors[planned] = np.asarray(payload)

    def _collect(self, comm, frame: tuple) -> Optional[List[tuple]]:
        if comm.rank != 0:
            comm.isend(frame, dest=0, tag=Tag.EVAL)
            return None
        return [frame] + [comm.recv(source=source, tag=Tag.EVAL)
                          for source in range(1, comm.size)]

    # -- full run ------------------------------------------------------------

    def run(self, train: RatingMatrix, split: RatingSplit | None = None,
            seed: SeedLike = 0, partition: Partition | None = None,
            resume: Optional[ResumeLike] = None,
            comm_world=None) -> Tuple[Optional[BPMFResult], DistributedRunInfo]:
        """Run the distributed sampler; returns ``(result, diagnostics)``.

        ``comm_world`` selects the link of the one MPI world
        (:mod:`repro.mpi.world`), and with it who calls the rank program.
        ``None`` (the default) or a :class:`~repro.mpi.simmpi.SimCommWorld`
        is the in-memory link: it runs *every* rank in-process, the result
        is rank 0's and the diagnostics cover the whole world (its message
        log holds the run's messages, collectives included).  A
        per-process world — anything with the socket world's surface
        ``n_ranks`` / ``comm()`` / ``pending_messages()`` /
        ``total_messages_sent()`` / ``total_bytes_sent()``, e.g.
        :class:`repro.mpi.net.SocketCommWorld` — runs only this process's
        rank: every process calls ``run`` with the same arguments, the
        result comes back on rank 0 only (``None`` elsewhere), the
        diagnostics count this rank's messages (those the in-memory link
        logs for it) and its wire bytes, and the caller owns the world's
        lifetime.  The chain is bit-identical on either link.

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
            partition = partition_ratings(train, options.n_ranks)
        elif partition.n_ranks != options.n_ranks:
            raise ValidationError("partition rank count does not match options")
        test = held_out_cells(train, split)
        plan = build_comm_plan(train, partition, test_pairs=test[:2])
        rng = as_generator(seed)

        # What every rank owns, and the held-out cells each predicts:
        # those of the users it owns.
        ranks = range(options.n_ranks)
        users = [partition.users_of(rank) for rank in ranks]
        movies = [partition.movies_of(rank) for rank in ranks]
        cell_owner = partition.user_owner[test[0]]
        cells = np.split(np.argsort(cell_owner, kind="stable"), np.cumsum(
            np.bincount(cell_owner, minlength=options.n_ranks))[:-1])

        def program(comm, rng):
            # The send side follows the plan's edges, the receive side
            # their inversion.
            phases = ("movies", "users")
            layout = RankLayout(
                comm.rank, users, movies, cells,
                {name: plan.schedule(name, comm.rank) for name in phases},
                {name: plan.inbox(name, comm.rank) for name in phases})
            result = self._rank_program(comm, layout, train, test, rng, resume)
            # Everyone finishes before anyone tears its links down.
            comm.barrier()
            return result

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
