"""In-process message-passing world (functional MPI stand-in).

``SimCommWorld`` hosts ``n_ranks`` ranks inside one Python process and
hands each a :class:`SimComm` endpoint with the five verbs the
distributed sampler's rank program speaks: a non-blocking tagged
``isend``, a blocking ``recv(source, tag)``, ``allreduce``, ``bcast``
and ``barrier``.  Every receive names its source and its tag: a rank's
mailbox is one FIFO per ``(source, tag)``, and ``recv`` takes the
oldest message of that one queue, whatever else is waiting.  Delivery
is immediate and reliable (this layer models *data movement*;
:mod:`repro.distributed.scaling` models *time*), but the discipline is
real: a rank can only see another rank's data if a message carrying it
was posted, and every message is logged so tests and the benchmark
harness can audit the traffic.

:meth:`SimCommWorld.run` executes one blocking *rank program* on every
rank (what a socket world runs one process per rank), one thread per rank
under strict turn-taking: a rank keeps the turn until a blocking verb has
nothing to match, then the next unfinished rank in rank order gets it; a
completed collective hands it back to the lowest unfinished rank.  What
a rank receives cannot depend on that interleaving (each queue is FIFO
and every receive names its queue), and the interleaving itself is a
pure function of the program (same ``message_log`` every run).  Once
every unfinished rank has blocked with nothing posted in between they
all raise the "would deadlock" :class:`ValidationError` instead of
hanging; outside ``run`` a blocking verb that cannot complete raises it
at once.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_positive

__all__ = ["MessageRecord", "SimComm", "SimCommWorld", "rank_order_sum"]

#: The tag of the messages a simulated ``bcast`` posts.
_BCAST_TAG = 999_999


@dataclass(frozen=True)
class MessageRecord:
    """Audit record of one posted message."""

    source: int
    destination: int
    tag: int
    n_bytes: int


def rank_order_sum(arrays: List[np.ndarray]) -> np.ndarray:
    """``arrays[0] + arrays[1] + ...`` left to right, in a new array: the
    association both worlds' allreduces use, so they agree bit for bit."""
    return sum(arrays[1:], start=arrays[0].copy())


class _Turns:
    """Strict turn-taking among the rank threads of one :meth:`SimCommWorld.run`.

    Only the turn holder executes, so the world's mailboxes need no lock;
    this object's condition is the single hand-off point.
    """

    def __init__(self, n_ranks: int):
        self._cond = threading.Condition()
        self._live = list(range(n_ranks))  # unfinished ranks, ascending
        self._turn = 0
        self._stalled = 0  # ranks that blocked since anything was posted
        self._posted = 0  # the world's post count at the last block
        self._deadlocked = False
        self.failure: Optional[BaseException] = None  # first one raised

    def _hand_over(self, rank: int) -> None:
        """Wake the new turn holder; park ``rank`` until its own turn."""
        self._cond.notify_all()
        self._cond.wait_for(lambda: self._deadlocked or self._turn == rank)

    def enter(self, rank: int) -> None:
        """Park a starting rank thread until its first turn."""
        with self._cond:
            self._hand_over(rank)

    def block(self, rank: int, error: ValidationError, posted: int) -> None:
        """Pass the turn on; return when it comes back.  Once every
        unfinished rank has blocked with nothing posted in between, no
        turn can ever succeed: every parked rank raises its ``error``."""
        with self._cond:
            if posted != self._posted:
                self._posted, self._stalled = posted, 0
            self._stalled += 1
            if self._stalled >= len(self._live):
                self._deadlocked = True
                if self.failure is None:
                    self.failure = error
            else:
                self._turn = self._live[
                    (self._live.index(rank) + 1) % len(self._live)]
            self._hand_over(rank)
            if self._deadlocked:
                raise error

    def restart(self, rank: int) -> None:
        """``rank`` completed a collective: everyone resumes in rank order,
        lowest unfinished rank first."""
        with self._cond:
            self._turn = self._live[0]
            self._hand_over(rank)

    def leave(self, rank: int, error: Optional[BaseException]) -> None:
        """A rank program returned or raised: hand the turn to the next."""
        with self._cond:
            if error is not None and self.failure is None:
                self.failure = error
            index = self._live.index(rank)
            self._live.remove(rank)
            if self._live:
                self._turn = self._live[index % len(self._live)]
            self._cond.notify_all()


class SimCommWorld:
    """The shared state of all simulated ranks.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    """

    def __init__(self, n_ranks: int):
        check_positive("n_ranks", n_ranks)
        self.n_ranks = n_ranks
        # One FIFO per (destination, source, tag).
        self._queues: Dict[Tuple[int, int, int], Deque[Any]] = {}
        self._message_log: List[MessageRecord] = []
        self._contributions: Dict[str, Dict[int, np.ndarray]] = {}
        self._reduced: Dict[Tuple[str, int], np.ndarray] = {}
        self._posted = 0  # messages + collective contributions so far
        self._turns: Optional[_Turns] = None  # set for the length of run()

    # -- rank handles --------------------------------------------------------

    def comm(self, rank: int) -> "SimComm":
        """Endpoint for one rank."""
        if not 0 <= rank < self.n_ranks:
            raise ValidationError(f"rank {rank} out of range [0, {self.n_ranks})")
        return SimComm(self, rank)

    def comms(self) -> List["SimComm"]:
        """Endpoints for every rank, indexed by rank."""
        return [self.comm(rank) for rank in range(self.n_ranks)]

    def run(self, program: Callable[["SimComm"], Any]) -> List[Any]:
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
            self._contributions.clear()
            self._reduced.clear()
            self._queues.clear()
            raise turns.failure
        return results

    # -- message plumbing ----------------------------------------------------

    def _post(self, source: int, destination: int, tag: int,
              payload: Any) -> None:
        if not 0 <= destination < self.n_ranks:
            raise ValidationError(f"destination rank {destination} out of range")
        self._queues.setdefault((destination, source, tag), deque()).append(
            payload)
        self._message_log.append(MessageRecord(
            source, destination, tag, _payload_bytes(payload)))
        self._posted += 1

    def _await(self, rank: int, ready: Callable[[], Any], what: str) -> Any:
        """``ready()``'s first non-``None`` value; while it has none the
        rank yields its turn (inside :meth:`run`) or raises (outside)."""
        while True:
            value = ready()
            if value is not None:
                return value
            error = ValidationError(
                f"rank {rank}: {what} would deadlock — nothing that could "
                "complete it has been posted")
            if self._turns is None:
                raise error
            self._turns.block(rank, error, self._posted)

    def _pop(self, rank: int, source: int, tag: int) -> Optional[Tuple[Any]]:
        """The oldest payload of one queue as a 1-tuple (a payload may be
        ``None``), or ``None`` while the queue is empty."""
        queue = self._queues.get((rank, source, tag))
        return (queue.popleft(),) if queue else None

    # -- audit ---------------------------------------------------------------

    @property
    def message_log(self) -> List[MessageRecord]:
        """All messages posted so far, in posting order."""
        return list(self._message_log)

    def pending_messages(self) -> int:
        """Messages posted but not yet received (should be 0 after a clean run)."""
        return sum(len(queue) for queue in self._queues.values())

    def total_messages_sent(self) -> int:
        return len(self._message_log)

    def total_bytes_sent(self) -> int:
        return sum(record.n_bytes for record in self._message_log)


@dataclass
class SimComm:
    """One rank's communicator endpoint."""

    world: SimCommWorld
    rank: int

    @property
    def size(self) -> int:
        return self.world.n_ranks

    # -- point to point ------------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Non-blocking send (delivery is immediate in the functional layer)."""
        self.world._post(self.rank, dest, tag, payload)

    def recv(self, source: int, tag: int) -> Any:
        """Blocking receive of the oldest message ``source`` sent this rank
        with ``tag``."""
        return self.world._await(
            self.rank, lambda: self.world._pop(self.rank, source, tag),
            f"recv(source={source}, tag={tag})")[0]

    # -- collectives -----------------------------------------------------------

    def allreduce(self, array: np.ndarray, key: str = "allreduce") -> np.ndarray:
        """All-ranks sum; blocks until every rank has contributed.

        The last contributor sums in rank order (:func:`rank_order_sum`)
        and leaves every rank its own copy of the result.  Ranks calling
        with mismatched keys wait on different collectives and raise
        would-deadlock, mirroring an MPI collective mismatch hang.
        """
        world = self.world
        parts = world._contributions.setdefault(key, {})
        if self.rank in parts:
            raise ValidationError(
                f"rank {self.rank} called collective {key!r} twice")
        parts[self.rank] = np.asarray(array, dtype=np.float64).copy()
        world._posted += 1
        if len(parts) == self.size:
            del world._contributions[key]
            result = rank_order_sum([parts[r] for r in range(self.size)])
            for rank in range(self.size):
                world._reduced[key, rank] = result.copy()
            if world._turns is not None:
                world._turns.restart(self.rank)
        return world._await(
            self.rank, lambda: world._reduced.pop((key, self.rank), None),
            f"allreduce(key={key!r})")

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast from ``root``: root posts one message per other rank."""
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.isend(payload, dest, tag=_BCAST_TAG)
            return payload
        return self.recv(source=root, tag=_BCAST_TAG)

    def barrier(self) -> None:
        """Returns once every rank has entered.

        The same collective inside and outside :meth:`SimCommWorld.run`:
        with one thread of control nobody else can enter a multi-rank
        barrier, so it raises would-deadlock like an unmatched ``recv``.
        """
        try:
            self.allreduce(np.zeros(0), key="barrier")
        except ValidationError:
            # Withdraw the contribution, or the next barrier on this world
            # would be rejected as a double call.
            self.world._contributions.get("barrier", {}).pop(self.rank, None)
            raise


def _payload_bytes(payload: Any) -> int:
    """Approximate wire size of a payload (arrays count exactly, rest via repr)."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        return int(sum(_payload_bytes(item) for item in payload))
    if isinstance(payload, dict):
        return int(sum(_payload_bytes(v) for v in payload.values()))
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    return len(repr(payload).encode("utf8"))
