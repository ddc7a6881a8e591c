"""The in-memory link: every rank of a world in one process.

``SimCommWorld``'s endpoints are :class:`repro.mpi.world.Comm`, so its
verbs, matching, collectives and audit log are the socket world's own.
Delivery is immediate (this layer models *data movement*;
:mod:`repro.distributed.scaling` models *time*), but a rank sees another
rank's data only through a logged message.

:meth:`SimCommWorld.run` executes one blocking *rank program* on every
rank, one thread per rank under strict turn-taking: a rank keeps the
turn until a receive has nothing to match, then the turn goes to the
next rank in rank order that has not blocked since the last post.  The
interleaving is a pure function of the program (same ``message_log``
every run), and what a rank receives cannot depend on it.  Once every
unfinished rank has blocked with nothing posted in between they all
raise the "would deadlock" :class:`ValidationError` instead of hanging;
outside ``run`` a receive that cannot complete raises it at once.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence

from repro.mpi.world import Comm, CommWorld
from repro.utils.validation import ValidationError

__all__ = ["SimCommWorld"]


class _Turns:
    """Strict turn-taking among the rank threads of one :meth:`SimCommWorld.run`.

    Only the turn holder executes, so the world's mailboxes need no lock;
    this object's condition is the single hand-off point.  Every choice of
    the next turn holder goes through :meth:`_pick`.
    """

    def __init__(self, n_ranks: int):
        self._cond = threading.Condition()
        self._n_ranks = n_ranks
        self._live = list(range(n_ranks))  # unfinished ranks, ascending
        self._stalled: set = set()  # ranks blocked since the last post
        self._turn = 0
        self._deadlocked = False
        self.failure: Optional[BaseException] = None  # first one raised

    def _pick(self, rank: int, candidates: Sequence[int]) -> int:
        """The next turn holder among ``candidates``: ``rank`` itself if
        it is one, else the first after it in cyclic rank order."""
        return min(candidates, key=lambda r: (r - rank) % self._n_ranks)

    def _pass(self, rank: int, candidates: Sequence[int]) -> None:
        """Give the turn to the pick; if that is another rank, park
        ``rank`` until the turn comes back."""
        turn = self._pick(rank, candidates)
        if turn != rank:
            self._turn = turn
            self._cond.notify_all()
            self._cond.wait_for(
                lambda: self._deadlocked or self._turn == rank)

    def enter(self, rank: int) -> None:
        """Park a starting rank thread until its first turn."""
        with self._cond:
            self._cond.wait_for(lambda: self._deadlocked or self._turn == rank)

    def posted(self, rank: int) -> None:
        """``rank`` posted a message: every blocked rank may now match,
        and the turn may move on (by default ``rank`` keeps it)."""
        with self._cond:
            self._stalled.clear()
            self._pass(rank, self._live)

    def block(self, rank: int, error: ValidationError) -> None:
        """Pass the turn on; return when it comes back.  Once every
        unfinished rank has blocked with nothing posted in between, no
        turn can ever succeed: every parked rank raises its ``error``."""
        with self._cond:
            self._stalled.add(rank)
            if self._stalled.issuperset(self._live):
                self._deadlocked = True
                if self.failure is None:
                    self.failure = error
                self._cond.notify_all()
            else:
                self._pass(rank, [r for r in self._live
                                  if r not in self._stalled])
            if self._deadlocked:
                raise error

    def leave(self, rank: int, error: Optional[BaseException]) -> None:
        """A rank program returned or raised: hand the turn on.  When only
        blocked ranks are left, one of them finds the deadlock."""
        with self._cond:
            if error is not None and self.failure is None:
                self.failure = error
            self._live.remove(rank)
            self._stalled.discard(rank)
            if self._live:
                self._turn = self._pick(rank, [
                    r for r in self._live if r not in self._stalled]
                    or self._live)
            self._cond.notify_all()


class SimCommWorld(CommWorld):
    """Every rank of a world, in this process.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    """

    def __init__(self, n_ranks: int):
        super().__init__(n_ranks)
        self._turns: Optional[_Turns] = None  # set for the length of run()

    def comm(self, rank: int) -> Comm:
        """Endpoint for one rank."""
        return Comm(self, rank)

    def comms(self) -> List[Comm]:
        """Endpoints for every rank, indexed by rank."""
        return [self.comm(rank) for rank in range(self.n_ranks)]

    def run(self, program: Callable[[Comm], Any]) -> List[Any]:
        """Run ``program(comm)`` once per rank; returns the per-rank results.

        One thread per rank, strict turn-taking (see the module
        docstring).  The first exception any rank raised — a program
        error as itself, or the would-deadlock error of the rank that
        detected it — is re-raised here once every thread has finished,
        and the failed run's unreceived traffic is dropped.
        """
        if self._turns is not None:
            raise ValidationError("SimCommWorld.run is already in progress")
        turns = self._turns = _Turns(self.n_ranks)
        results: List[Any] = [None] * self.n_ranks

        def drive(rank: int) -> None:
            turns.enter(rank)
            error: Optional[BaseException] = None
            try:
                results[rank] = program(self.comm(rank))
            except BaseException as caught:  # re-raised by run() below
                error = caught
            finally:
                turns.leave(rank, error)

        threads = [threading.Thread(target=drive, args=(rank,), daemon=True,
                                    name=f"repro-sim-rank-{rank}")
                   for rank in range(self.n_ranks)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            self._turns = None
        if turns.failure is not None:
            self._queues.clear()
            raise turns.failure
        return results

    # -- the link --------------------------------------------------------------

    def _deliver(self, source: int, dest: int, tag: int,
                 payload: Any) -> None:
        self._file(dest, source, tag, payload)

    def _send(self, source: int, dest: int, tag: int, payload: Any) -> None:
        super()._send(source, dest, tag, payload)
        if self._turns is not None:
            self._turns.posted(source)

    def _receive(self, rank: int, source: int, tag: int) -> Any:
        """The message, once there is one; while there is none the rank
        yields its turn (inside :meth:`run`) or raises (outside)."""
        while True:
            message = self._pop(rank, source, tag)
            if message is not None:
                return message[0]
            error = ValidationError(
                f"rank {rank}: recv(source={source}, tag={tag}) would "
                "deadlock — nothing that could complete it has been posted")
            if self._turns is None:
                raise error
            self._turns.block(rank, error)
