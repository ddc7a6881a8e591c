"""Send-buffer aggregation (Section IV-C of the paper).

*"the overhead of calling these routines is too much to individually send
each item ... Hence we store items that need to be sent in a temporary
buffer and only send when the buffer is full."*

The policy, per destination rank: items join the destination's buffer in
the order they are updated, a message leaves as soon as the buffer holds
``capacity`` items, and the remainders are flushed at the end of the phase.
Which items go where is fixed by the communication plan for the whole run,
so the messages that policy emits are too: :func:`send_schedule` computes
them once, vectorised, and a phase then posts one message per scheduled
``(dest, ids)`` pair — no per-item work on the exchange path.
:class:`BufferStats` records how many messages and how many items were
sent, which is what the buffering ablation benchmark compares against the
one-message-per-item strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_positive

__all__ = ["BufferStats", "send_schedule"]


@dataclass
class BufferStats:
    """Counters describing the message traffic produced by send buffers."""

    n_items: int = 0
    n_messages: int = 0
    n_flushes_full: int = 0
    n_flushes_partial: int = 0

    @property
    def items_per_message(self) -> float:
        return self.n_items / self.n_messages if self.n_messages else 0.0

    def merge(self, other: "BufferStats") -> "BufferStats":
        return BufferStats(
            n_items=self.n_items + other.n_items,
            n_messages=self.n_messages + other.n_messages,
            n_flushes_full=self.n_flushes_full + other.n_flushes_full,
            n_flushes_partial=self.n_flushes_partial + other.n_flushes_partial,
        )


def send_schedule(items: np.ndarray, destinations: np.ndarray, capacity: int
                  ) -> Tuple[List[Tuple[int, np.ndarray]], BufferStats]:
    """The messages one phase's send buffers emit, in posting order.

    ``items[i]`` must reach rank ``destinations[i]``; the pairs come in the
    order the items are updated.  Returns ``(messages, stats)``:
    ``messages`` lists ``(dest, item_ids)`` exactly as per-destination
    buffers of ``capacity`` items would post them — a destination's k-th
    full message when its ``k * capacity``-th item is added, then the
    partial remainders in order of each destination's first appearance —
    and ``stats`` counts them.
    """
    check_positive("capacity", capacity)
    items = np.asarray(items, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    if items.shape != destinations.shape or items.ndim != 1:
        raise ValidationError("items and destinations must be equal-length vectors")
    n = items.shape[0]
    # Each destination's items in adding order, destinations side by side.
    by_dest = np.argsort(destinations, kind="stable")
    sorted_dests = destinations[by_dest]
    positions = np.arange(n)
    new_dest = np.ones(n, dtype=bool)
    new_dest[1:] = sorted_dests[1:] != sorted_dests[:-1]
    dest_start = np.maximum.accumulate(np.where(new_dest, positions, 0))
    starts = np.flatnonzero((positions - dest_start) % capacity == 0)
    ends = np.append(starts, n)[1:]
    full = ends - starts == capacity
    # A full message leaves with its last item; the remainders follow, in
    # order of the first item each destination was sent.
    posted_at = np.where(full, by_dest[ends - 1],
                         n + by_dest[dest_start[starts]])
    messages = [(int(sorted_dests[starts[m]]), items[by_dest[starts[m]:ends[m]]])
                for m in np.argsort(posted_at)]
    n_full = int(full.sum())
    return messages, BufferStats(n_items=n, n_messages=len(messages),
                                 n_flushes_full=n_full,
                                 n_flushes_partial=len(messages) - n_full)
