"""Drive an N-rank socket world inside one process.

The distributed sampler has one rank program
(:mod:`repro.distributed.sampler`); on a socket world each rank's owner
calls ``sampler.run(..., comm_world=world)`` itself.  Real deployments
do that from one OS process per rank (``python -m repro.mpi.net``);
:func:`run_local_socket_world` does it from one thread per rank, for
tests, the quickstart example and the benchmarks.
"""

from __future__ import annotations

import copy
import threading
from typing import List, Optional, Tuple

from repro.distributed.partition import Partition, partition_ratings
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike

__all__ = ["run_local_socket_world"]


def run_local_socket_world(make_sampler, n_ranks: int, train: RatingMatrix,
                           split: Optional[RatingSplit] = None,
                           seed: SeedLike = 0,
                           partition: Optional[Partition] = None,
                           injectors=None,
                           op_timeout: float = 120.0) -> List[Tuple]:
    """Drive an ``n_ranks`` socket world on threads in this process.

    Real localhost TCP links, real framing, real receiver threads — only
    the process boundary is elided.  ``make_sampler`` is a zero-argument
    factory called once *per rank*: every rank thread needs its own
    sampler because the update engine's cached bucket plans are not
    shared across threads.  Without a ``partition``, the default
    partition is computed once here and handed to every rank, instead of
    each rank recomputing it (the multi-process launcher still partitions
    once per process).  Returns the per-rank ``(result, info)`` pairs (result is ``None`` except on rank 0); the worlds are closed
    before returning, and the first rank failure is re-raised.
    """
    from repro.mpi.net import start_local_world

    samplers = [make_sampler() for _ in range(n_ranks)]
    if partition is None:
        partition = partition_ratings(train, n_ranks)
    worlds = start_local_world(n_ranks, injectors=injectors,
                               op_timeout=op_timeout)
    # A Generator seed must not be shared: every rank draws from its own copy.
    seeds = [copy.deepcopy(seed) for _ in range(n_ranks)]
    results: List[Optional[Tuple]] = [None] * n_ranks
    errors: List[Optional[BaseException]] = [None] * n_ranks

    def drive(rank: int) -> None:
        try:
            results[rank] = samplers[rank].run(
                train, split, seeds[rank], partition, comm_world=worlds[rank])
        except BaseException as error:  # re-raised below
            errors[rank] = error
            # A dead process drops its sockets; a dead thread must too,
            # so the peers fail fast instead of waiting out op_timeout.
            worlds[rank].abort(f"rank {rank} failed: {error}")

    threads = [threading.Thread(target=drive, args=(rank,), daemon=True,
                                name=f"repro-socket-rank-{rank}")
               for rank in range(n_ranks)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for world in worlds:
            world.close()
    failures = [error for error in errors if error is not None]
    if failures:
        raise failures[0]
    return results  # type: ignore[return-value]
