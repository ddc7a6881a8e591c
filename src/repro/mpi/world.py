"""One MPI world: the five verbs, matching, audit and collectives.

:class:`Comm` implements the verbs the distributed sampler's rank
program speaks — a non-blocking tagged ``isend``, a blocking
``recv(source, tag)``, ``allreduce``, ``bcast`` and ``barrier`` — once,
for every world.  A world is a :class:`CommWorld` subclass that supplies
only its *link*: the in-memory :class:`repro.mpi.simmpi.SimCommWorld` or
the framed-TCP :class:`repro.mpi.net.SocketCommWorld`.

A rank's mailbox is one FIFO per ``(source, tag)``, and a receive takes
the oldest message of the queue it names.  Each link keeps one source's
messages in posting order, so what a rank receives is a pure function of
the program on either link.

Collectives are messages on reserved negative tags, which the program's
own ``isend`` / ``recv`` refuse (MPICH builds them the same way; Thakur,
Rabenseifner & Gropp, IJHPCA 2005).  ``allreduce``: every rank but 0
sends rank 0 its ``(key, array)``; rank 0 receives them in rank order,
refuses a key or shape not its own ("collective mismatch"), sums with
:func:`rank_order_sum` and sends every rank the result.  ``bcast``: the
root sends every other rank the payload.  ``barrier``: every rank sends
every peer a marker, then receives one from each; as links keep their
order, a received marker proves everything its sender posted before the
barrier has been filed, so a run can audit its pending messages after
its final barrier.

Every message, collectives included, is logged as a
:class:`MessageRecord` with its :func:`payload_bytes`: one program logs
the same sequence on either link.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_positive

__all__ = ["ALLREDUCE", "BARRIER", "BCAST", "BYE", "Comm", "CommWorld",
           "MessageRecord", "payload_bytes", "rank_order_sum"]

#: Reserved tags: the collectives' messages and a socket link's goodbye.
ALLREDUCE, BCAST, BARRIER, BYE = -1, -2, -3, -4


@dataclass(frozen=True)
class MessageRecord:
    """Audit record of one posted message."""

    source: int
    destination: int
    tag: int
    n_bytes: int


def rank_order_sum(arrays: List[np.ndarray]) -> np.ndarray:
    """``arrays[0] + arrays[1] + ...`` left to right, in a new array: the
    one association of every allreduce, so all worlds agree bit for bit."""
    return sum(arrays[1:], start=arrays[0].copy())


def payload_bytes(payload: Any) -> int:
    """Size of a payload for the audit log: arrays count exactly, numbers
    8 bytes, containers the sum of their items, the rest its ``repr``."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        return int(sum(payload_bytes(item) for item in payload))
    if isinstance(payload, dict):
        return int(sum(payload_bytes(v) for v in payload.values()))
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    return len(repr(payload).encode("utf8"))


class CommWorld:
    """Mailboxes, audit log and collective counts of one world.

    A subclass is a link: ``_deliver(source, dest, tag, payload)`` gets a
    message to :meth:`_file` on ``dest``'s side, and ``_receive(rank,
    source, tag)`` blocks until :meth:`_pop` has one for ``rank``.
    """

    def __init__(self, n_ranks: int):
        check_positive("n_ranks", n_ranks)
        self.n_ranks = n_ranks
        # One FIFO per (destination, source, tag).
        self._queues: Dict[Tuple[int, int, int], Deque[Any]] = {}
        self._log: List[MessageRecord] = []
        #: Collective calls by verb, every rank of this process together.
        self.collectives: Counter = Counter()

    def _file(self, dest: int, source: int, tag: int, payload: Any) -> None:
        self._queues.setdefault((dest, source, tag), deque()).append(payload)

    def _pop(self, rank: int, source: int, tag: int) -> Optional[Tuple[Any]]:
        """The oldest payload of one queue as a 1-tuple (a payload may be
        ``None``), or ``None`` while the queue is empty."""
        queue = self._queues.get((rank, source, tag))
        return (queue.popleft(),) if queue else None

    def _send(self, source: int, dest: int, tag: int, payload: Any) -> None:
        if not 0 <= dest < self.n_ranks:
            raise ValidationError(f"destination rank {dest} out of range")
        self._deliver(source, dest, tag, payload)
        self._log.append(MessageRecord(source, dest, tag,
                                       payload_bytes(payload)))

    # -- audit ---------------------------------------------------------------

    @property
    def message_log(self) -> List[MessageRecord]:
        """Every message the ranks of this process posted, in order."""
        return list(self._log)

    def pending_messages(self) -> int:
        """Messages filed but not yet received (0 after a clean run)."""
        return sum(len(queue) for queue in self._queues.values())

    def total_messages_sent(self) -> int:
        return len(self._log)

    def total_bytes_sent(self) -> int:
        return sum(record.n_bytes for record in self._log)


def _program_tag(tag: int) -> int:
    tag = int(tag)
    if tag < 0:
        raise ValidationError(f"tag {tag} is reserved for collectives")
    return tag


def _float_part(value: Any, shape: Tuple[int, ...], what: str) -> np.ndarray:
    """``value`` as a new float64 array of ``shape``, or a mismatch."""
    try:
        part = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        part = None
    if part is None or part.shape != shape:
        raise ValidationError(f"collective mismatch: {what} is not a float "
                              f"array of shape {shape}")
    return part


class Comm:
    """One rank's endpoint: the five verbs, the same on every link."""

    def __init__(self, world: CommWorld, rank: int):
        if not 0 <= rank < world.n_ranks:
            raise ValidationError(
                f"rank {rank} out of range [0, {world.n_ranks})")
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.n_ranks

    # -- point to point ------------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Non-blocking send; the payload is on its link when this returns."""
        self.world._send(self.rank, dest, _program_tag(tag), payload)

    #: ``isend`` under the blocking name a timing proxy may wrap.
    send = isend

    def recv(self, source: int, tag: int) -> Any:
        """Blocking receive of the oldest message ``source`` sent this rank
        with ``tag``."""
        return self.world._receive(self.rank, source, _program_tag(tag))

    # -- collectives -----------------------------------------------------------

    def allreduce(self, array: np.ndarray, key: str = "allreduce") -> np.ndarray:
        """All-ranks sum in rank order; every rank gets its own copy.

        Ranks must call their collectives in the same order with the
        same ``key`` and shape; rank 0 raises "collective mismatch"
        otherwise.
        """
        world, rank = self.world, self.rank
        world.collectives["allreduce"] += 1
        mine = np.array(array, dtype=np.float64)
        if rank != 0:
            world._send(rank, 0, ALLREDUCE, (key, mine))
            return _float_part(world._receive(rank, 0, ALLREDUCE),
                               mine.shape, "the reduced array")
        parts = [mine]
        for source in range(1, self.size):
            message = world._receive(0, source, ALLREDUCE)
            if not (isinstance(message, (tuple, list)) and len(message) == 2
                    and isinstance(message[0], str) and message[0] == key):
                raise ValidationError(
                    f"collective mismatch: rank 0 runs allreduce {key!r}, "
                    f"rank {source} sent {message!r:.80}")
            parts.append(_float_part(message[1], mine.shape,
                                     f"rank {source}'s {key!r} contribution"))
        result = rank_order_sum(parts)
        for dest in range(1, self.size):
            world._send(0, dest, ALLREDUCE, result)
        return result

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """``root``'s payload on every rank."""
        if not 0 <= root < self.size:
            raise ValidationError(f"bcast root {root} out of range")
        self.world.collectives["bcast"] += 1
        if self.rank != root:
            return self.world._receive(self.rank, root, BCAST)
        for dest in range(self.size):
            if dest != root:
                self.world._send(root, dest, BCAST, payload)
        return payload

    def barrier(self) -> None:
        """Returns once every rank has entered, and everything posted to
        this rank before the barrier has been filed."""
        self.world.collectives["barrier"] += 1
        peers = [peer for peer in range(self.size) if peer != self.rank]
        for peer in peers:
            self.world._send(self.rank, peer, BARRIER, None)
        for peer in peers:
            self.world._receive(self.rank, peer, BARRIER)
