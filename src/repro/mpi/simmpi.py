"""In-process message-passing world (functional MPI stand-in).

``SimCommWorld`` hosts ``n_ranks`` mailboxes inside one Python process and
hands each simulated rank a :class:`SimComm` endpoint with the MPI verbs
the distributed sampler needs: non-blocking point-to-point sends and
receives with tags, blocking receive, probe, allreduce, broadcast and
barrier.  Delivery is immediate and reliable (this layer models *data
movement*; :mod:`repro.distributed.scaling` models *time*), but the
discipline is real: a rank can only see another rank's data if a
message carrying it was posted, and every message is logged so tests and
the benchmark harness can audit the traffic.

:meth:`SimCommWorld.run` executes one blocking *rank program* on every
rank (what a socket world runs one process per rank), one thread per rank
under strict turn-taking: a rank keeps the turn until a blocking verb has
nothing to match, then the next unfinished rank in rank order gets it; a
completed collective hands it back to the lowest unfinished rank, so after
a barrier the ranks post in rank order — the matching order the socket
world's flush barrier reproduces.  The interleaving is a pure function of
the program (same ``message_log`` every run), and once every unfinished
rank has blocked with nothing posted in between they all raise the "would
deadlock" :class:`ValidationError` instead of hanging; outside ``run``
a blocking verb that cannot complete raises it at once.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_positive

__all__ = ["MessageRecord", "SimRequest", "SimComm", "SimCommWorld", "ReduceOp"]

#: Tag value matching any tag on the receive side (mirrors MPI_ANY_TAG).
ANY_TAG = -1
#: Source value matching any source on the receive side (mirrors MPI_ANY_SOURCE).
ANY_SOURCE = -1


@dataclass(frozen=True)
class MessageRecord:
    """Audit record of one posted message."""

    message_id: int
    source: int
    destination: int
    tag: int
    n_bytes: int
    description: str = ""


@dataclass
class _Envelope:
    """A message sitting in a destination mailbox."""

    record: MessageRecord
    payload: Any


@dataclass
class SimRequest:
    """Handle returned by the non-blocking operations.

    ``wait``/``test`` mirror ``MPI_Wait``/``MPI_Test``: for receives they
    return the payload once a matching message is available.
    """

    _completed: bool = False
    _payload: Any = None
    _poll: Optional[Callable[[], Tuple[bool, Any]]] = None
    _block: Optional[Callable[[], Any]] = None

    def test(self) -> bool:
        """Non-blocking completion check."""
        if not self._completed and self._poll is not None:
            done, payload = self._poll()
            if done:
                self._completed = True
                self._payload = payload
        return self._completed

    def wait(self) -> Any:
        """Block until complete and return the payload (``None`` for sends)."""
        if not self.test():
            self._payload = self._block()
            self._completed = True
        return self._payload


class ReduceOp:
    """Reduction operators for allreduce (a tiny subset of MPI_Op)."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"

    _FUNCS = {
        "sum": lambda arrays: sum(arrays[1:], start=arrays[0].copy()),
        "max": lambda arrays: np.maximum.reduce(arrays),
        "min": lambda arrays: np.minimum.reduce(arrays),
    }

    @classmethod
    def apply(cls, op: str, arrays: List[np.ndarray]) -> np.ndarray:
        if op not in cls._FUNCS:
            raise ValidationError(f"unsupported reduce op {op!r}")
        return cls._FUNCS[op](arrays)


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
        self._mailboxes: List[Deque[_Envelope]] = [deque() for _ in range(n_ranks)]
        self._message_log: List[MessageRecord] = []
        self._message_counter = itertools.count()
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
            for mailbox in self._mailboxes:
                mailbox.clear()
            raise turns.failure
        return results

    # -- message plumbing ----------------------------------------------------

    def _post(self, source: int, destination: int, tag: int, payload: Any,
              n_bytes: int, description: str) -> MessageRecord:
        if not 0 <= destination < self.n_ranks:
            raise ValidationError(f"destination rank {destination} out of range")
        record = MessageRecord(
            message_id=next(self._message_counter),
            source=source,
            destination=destination,
            tag=tag,
            n_bytes=n_bytes,
            description=description,
        )
        self._mailboxes[destination].append(_Envelope(record, payload))
        self._message_log.append(record)
        self._posted += 1
        return record

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

    def _match(self, rank: int, source: int, tag: int,
               pop: bool = True) -> Optional[_Envelope]:
        """The first waiting message matching ``(source, tag)``, if any."""
        mailbox = self._mailboxes[rank]
        for index, envelope in enumerate(mailbox):
            source_ok = source == ANY_SOURCE or envelope.record.source == source
            tag_ok = tag == ANY_TAG or envelope.record.tag == tag
            if source_ok and tag_ok:
                if pop:
                    del mailbox[index]
                return envelope
        return None

    # -- audit ---------------------------------------------------------------

    @property
    def message_log(self) -> List[MessageRecord]:
        """All messages posted so far, in posting order."""
        return list(self._message_log)

    def traffic_matrix(self) -> np.ndarray:
        """Bytes sent from rank i to rank j, as an ``(n, n)`` array."""
        matrix = np.zeros((self.n_ranks, self.n_ranks))
        for record in self._message_log:
            matrix[record.source, record.destination] += record.n_bytes
        return matrix

    def pending_messages(self) -> int:
        """Messages posted but not yet received (should be 0 after a clean run)."""
        return sum(len(mailbox) for mailbox in self._mailboxes)

    def total_messages_sent(self) -> int:
        return len(self._message_log)

    def total_bytes_sent(self) -> int:
        return sum(record.n_bytes for record in self._message_log)

    def reset_log(self) -> None:
        self._message_log.clear()


@dataclass
class SimComm:
    """One rank's communicator endpoint."""

    world: SimCommWorld
    rank: int

    @property
    def size(self) -> int:
        return self.world.n_ranks

    # -- point to point ------------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0,
              description: str = "") -> SimRequest:
        """Non-blocking send (delivery is immediate in the functional layer)."""
        self.world._post(self.rank, dest, tag, payload,
                         _payload_bytes(payload), description)
        return SimRequest(_completed=True, _payload=None)

    def send(self, payload: Any, dest: int, tag: int = 0,
             description: str = "") -> None:
        """Blocking send (identical to isend in this world)."""
        self.isend(payload, dest, tag, description=description)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> SimRequest:
        """Non-blocking receive; completes when a matching message exists."""
        def poll() -> Tuple[bool, Any]:
            envelope = self.world._match(self.rank, source, tag)
            return (False, None) if envelope is None else (True, envelope.payload)

        return SimRequest(_poll=poll, _block=lambda: self.recv(source, tag))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive of the first matching message."""
        return self.world._await(
            self.rank, lambda: self.world._match(self.rank, source, tag),
            f"recv(source={source}, tag={tag})").payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is waiting."""
        return self.world._match(self.rank, source, tag, pop=False) is not None

    def drain(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> List[Any]:
        """Receive every currently waiting matching message."""
        payloads = []
        while self.iprobe(source, tag):
            payloads.append(self.recv(source, tag))
        return payloads

    # -- collectives -----------------------------------------------------------

    def allreduce(self, array: np.ndarray, op: str = ReduceOp.SUM,
                  key: str = "allreduce") -> np.ndarray:
        """All-ranks reduction; blocks until every rank has contributed.

        The last contributor reduces in rank order and leaves every rank
        its own copy of the result.  Ranks calling with mismatched keys
        wait on different collectives and raise would-deadlock, mirroring
        an MPI collective mismatch hang.
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
            result = ReduceOp.apply(op, [parts[r] for r in range(self.size)])
            for rank in range(self.size):
                world._reduced[key, rank] = result.copy()
            if world._turns is not None:
                world._turns.restart(self.rank)
        return world._await(
            self.rank, lambda: world._reduced.pop((key, self.rank), None),
            f"allreduce(key={key!r})")

    def bcast(self, payload: Any, root: int = 0, tag: int = 999_999) -> Any:
        """Broadcast from ``root``: root posts one message per other rank."""
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.isend(payload, dest, tag=tag, description="bcast")
            return payload
        return self.recv(source=root, tag=tag)

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
