"""Deterministic, exactly-once replay of logged mutations into a gateway.

The log (:mod:`repro.serving.wal.log`) gives mutations durability and an
order; this module gives them *semantics*: :func:`apply_record` turns
one record back into the gateway call it describes, and
:class:`MutationReplayer` wraps a gateway with an **applied-seqno
high-water mark** so that at-least-once delivery (log shipping retries,
catch-up overlap, duplicated batches) becomes exactly-once application:

* a record at or below the high-water mark is a counted no-op;
* the record just above it is applied and advances the mark;
* a record further ahead raises :class:`WalGapError` — the caller is
  missing history and must catch up before applying (the follower side
  of the shipper does exactly that).

A record payload (:func:`mutation_record_payload`) carries the
mutation's items and values as int64 / float64 arrays, which the log
stores as raw blocks, so a replayed record hands the gateway the very
numbers the leader applied live.  Replay is deterministic because the
gateways are: ``fold_in`` assigns
``service.n_users`` as the new id and ``add_ratings`` is a fixed
sequence of float operations, so two replicas applying the same record
sequence from the same snapshot produce bit-identical factor rows.  The
assigned fold-in id is recorded at commit time and checked on every
replay — an id mismatch means the replica diverged *before* this
record, and :class:`WalDivergenceError` makes that loud instead of
letting the fleet drift.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.obs.trace import annotate_active
from repro.serving.wal.log import WalError, WalRecord
from repro.utils.validation import ValidationError

__all__ = ["WalGapError", "WalDivergenceError", "validate_mutation",
           "mutation_record_payload", "apply_record", "MutationReplayer"]


class WalGapError(WalError):
    """A record arrived ahead of the high-water mark: history is missing."""

    def __init__(self, expected: int, got: int):
        super().__init__(
            f"record seqno {got} arrived with high-water mark expecting "
            f"{expected}: catch up before applying")
        self.expected = expected
        self.got = got


class WalDivergenceError(WalError):
    """Replay produced a different result than the leader recorded."""


def validate_mutation(service, kind: str, payload: Dict[str, object]) -> None:
    """Reject a mutation that could not be applied, *before* it is logged.

    The leader runs this ahead of the append so the log only ever holds
    applicable records — replay can then treat an application failure as
    a programming error instead of a client one.  Raises
    :class:`~repro.utils.validation.ValidationError` (or ``KeyError``/
    ``TypeError``/``ValueError`` for malformed payloads, matching the
    executor's error surface).
    """
    from repro.serving.service import check_item_range

    items = np.asarray(payload["items"], dtype=np.int64).ravel()
    values = np.asarray(payload["values"], dtype=np.float64).ravel()
    if items.shape != values.shape:
        raise ValidationError("items and values must align")
    check_item_range(items, service.n_items)
    if kind == "rate":
        user = int(payload["user"])
        if not service.n_train_users <= user < service.n_users:
            raise ValidationError(
                f"add_ratings only applies to folded-in users "
                f"[{service.n_train_users}, {service.n_users}), got {user}")
    elif kind != "foldin":
        raise ValidationError(f"unknown mutation kind {kind!r}")


def mutation_record_payload(service, kind: str,
                            payload: Dict[str, object],
                            write_id: Optional[str] = None
                            ) -> Dict[str, object]:
    """The log-record payload for one validated mutation request.

    Items and values go in as int64 / float64 arrays, which the record
    codec stores as raw blocks, so replay applies bit-identical numbers.
    For ``foldin`` the id the gateway *will* assign — ``service.n_users``
    at this point in the mutation order — is recorded so every replay
    can verify it assigns the same one.
    """
    record: Dict[str, object] = {
        "kind": kind,
        "items": np.asarray(payload["items"], dtype=np.int64).ravel(),
        "values": np.asarray(payload["values"], dtype=np.float64).ravel()}
    if kind == "rate":
        record["user"] = int(payload["user"])
    else:
        record["user"] = int(service.n_users)
    if write_id is not None:
        record["write_id"] = str(write_id)
    return record


def apply_record(service, payload: Dict[str, object]) -> Dict[str, object]:
    """Apply one record payload to a gateway; returns the ack payload.

    Deterministic by construction (see module docstring).  Raises
    :class:`WalDivergenceError` when a ``foldin`` lands on a different
    user id than the leader recorded.
    """
    kind = payload["kind"]
    items = np.asarray(payload["items"], dtype=np.int64)
    values = np.asarray(payload["values"], dtype=np.float64)
    if kind == "rate":
        user = int(payload["user"])
        service.add_ratings(user, items, values)
        return {"user": user}
    if kind == "foldin":
        assigned = int(service.fold_in(items, values))
        recorded = payload.get("user")
        if recorded is not None and int(recorded) != assigned:
            raise WalDivergenceError(
                f"replayed foldin assigned user {assigned}, leader "
                f"recorded {recorded}: this replica diverged earlier")
        return {"user": assigned}
    raise WalError(f"unknown mutation kind {kind!r} in the log")


class MutationReplayer:
    """Exactly-once application of an at-least-once record stream.

    Wraps one gateway with the applied-seqno high-water mark and the
    counters the observability surface reports (``replayed``,
    ``duplicates_skipped``).
    """

    def __init__(self, service):
        self.service = service
        self.applied_seqno = 0
        self.n_replayed = 0
        self.n_duplicates_skipped = 0

    def apply(self, record: WalRecord) -> Optional[Dict[str, object]]:
        """Apply one record exactly once.

        Returns the ack payload when the record was applied, ``None``
        when it was a duplicate (already at or below the high-water
        mark).  Raises :class:`WalGapError` when records are missing in
        between — nothing is applied in that case.
        """
        if record.seqno <= self.applied_seqno:
            self.n_duplicates_skipped += 1
            return None
        if record.seqno != self.applied_seqno + 1:
            raise WalGapError(self.applied_seqno + 1, record.seqno)
        ack = apply_record(self.service, record.payload)
        self.applied_seqno = record.seqno
        self.n_replayed += 1
        # A traced commit/apply (wal.commit or wal.follower_apply span
        # active on this thread) records which seqnos it replayed.
        annotate_active("replayed_seqno", record.seqno)
        return ack

    def apply_all(self, records: Iterable[WalRecord]) -> int:
        """Apply a record batch in order; returns how many were applied."""
        applied = 0
        for record in records:
            if self.apply(record) is not None:
                applied += 1
        return applied

    def stats(self) -> Dict[str, int]:
        return {
            "applied_seqno": self.applied_seqno,
            "replayed": self.n_replayed,
            "duplicates_skipped": self.n_duplicates_skipped,
        }
