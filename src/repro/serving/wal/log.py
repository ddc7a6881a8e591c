"""Append-only segment-file write-ahead log for serving mutations.

:class:`WriteAheadLog` is the durability substrate under the replicated
serving fleet: every ``rate``/``foldin`` mutation the write leader acks
is first appended here as a CRC-checked, length-prefixed record with a
monotonic sequence number.  The design goals, in order:

* **An acked write survives a crash.**  Appends hit the OS immediately
  and ``fsync`` according to ``sync_every`` (``1`` = fsync before every
  append returns — the strict default; ``N`` batches the syncs, trading
  the tail of unsynced records on a *power* failure for throughput — a
  process crash alone loses nothing either way).
* **A torn tail is not corruption.**  A crash mid-append leaves a
  truncated or CRC-broken final record; recovery truncates the segment
  back to the last whole record and carries on.  Such a record was by
  construction never acked (acks follow the append), so nothing
  acknowledged is lost.  A broken record *followed by valid data* — or
  any damage in a non-final segment — cannot be explained by a torn
  append and raises :class:`WalCorruptionError` instead of silently
  dropping acked writes.  So does a record whose CRC checks but whose
  body does not decode, wherever it sits: a torn append cannot write
  a valid CRC.
* **Replay is exact.**  A record body is the frame codec's binary array
  payload (:mod:`repro.serving.net.protocol`): rating items and values
  are raw int64 / float64 blocks, so replaying a record applies
  bit-identical floats to what the leader applied live.

Wire format of one record (integers big-endian)::

    +----------+---------+---------+------------------------+
    | length   | crc32   | seqno   | binary payload         |
    | u32      | u32     | u64     | length bytes           |
    +----------+---------+---------+------------------------+

``crc32`` covers the seqno bytes plus the payload, so a record that was
relocated or half-written never validates.  Segments are named by the
seqno of their first record (``wal-<seqno>.seg``); rotation starts a new
segment once the current one passes ``segment_bytes``, and
:meth:`compact` drops whole segments that fall entirely below a caller-
supplied retain point (e.g. once a published snapshot covers them).

``directory=None`` gives the same API over an in-process list — the
replication machinery uses it when no ``--wal DIR`` is configured:
shipping and exactly-once replay still work, only crash durability is
gone.
"""

from __future__ import annotations

import os
import re
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.obs.trace import maybe_span
from repro.serving.net.protocol import (
    ProtocolError,
    _decode_binary_payload,
    _encode_binary_payload,
)

__all__ = ["WalRecord", "WriteAheadLog", "WalError", "WalCorruptionError",
           "WalWriteError"]

_RECORD_HEADER = struct.Struct(">IIQ")
_SEGMENT_RE = re.compile(r"^wal-(\d{20})\.seg$")

#: Record payloads above this are refused at append time (a mutation
#: frame is tiny; anything near this is a caller bug, not a big write).
MAX_RECORD_PAYLOAD = 8 * 1024 * 1024


class WalError(RuntimeError):
    """A write-ahead-log operation failed."""


class WalCorruptionError(WalError):
    """Damage recovery must not repair silently: a broken record in the
    *interior* of the log (valid data follows it), where truncating
    would drop acknowledged writes, or a CRC-valid record whose body
    does not decode."""


class WalWriteError(WalError):
    """An append failed *before* the record became part of the log.

    The contract that makes this retryable: whenever it is raised the
    log's on-disk bytes and in-memory record list are exactly as they
    were before the append — no record, no seqno, no partial bytes — so
    the mutation was never applied and the server surfaces the refusal
    as a retryable error frame.  Raised by the injected filesystem
    faults (ENOSPC / torn write / fsync failure); a real ``OSError``
    from the filesystem still propagates as itself, because then the
    no-partial-state promise cannot be made."""


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation: its sequence number and payload (JSON values
    and ndarrays, as the record codec decodes them)."""

    seqno: int
    payload: Dict[str, object]


def _encode_record(seqno: int, payload: Dict[str, object]) -> bytes:
    body = _encode_binary_payload(payload)
    if len(body) > MAX_RECORD_PAYLOAD:
        raise WalError(
            f"record payload of {len(body)} bytes exceeds the "
            f"{MAX_RECORD_PAYLOAD}-byte record limit")
    seqno_bytes = struct.pack(">Q", seqno)
    crc = zlib.crc32(seqno_bytes + body) & 0xFFFFFFFF
    return _RECORD_HEADER.pack(len(body), crc, seqno) + body


def _segment_name(seqno: int) -> str:
    return f"wal-{seqno:020d}.seg"


class WriteAheadLog:
    """Durable, sequence-numbered mutation log (see module docstring).

    Parameters
    ----------
    directory:
        Segment directory (created if missing); existing segments are
        recovered on open.  ``None`` keeps records in memory only.
    sync_every:
        fsync after every ``sync_every``-th append (``1`` = every
        append, the strict default).  :meth:`sync`, rotation and
        :meth:`close` always flush regardless.
    segment_bytes:
        Rotate to a new segment file once the current one reaches this
        size (checked before each append, so one oversized record never
        splits).
    fault_injector:
        Optional :class:`~repro.serving.chaos.FaultInjector` driving the
        ``wal.append`` (ENOSPC / torn write) and ``wal.fsync`` fault
        sites inside :meth:`append`.  ``None`` (default): no injection,
        no overhead.  An injected fault always rolls the segment back to
        its pre-append bytes and raises :class:`WalWriteError` — the
        torn-write case deliberately exercises the same code path a
        crash-plus-recovery would (partial bytes written, then removed
        before anything was acked).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        every fsync duration is observed into the
        ``wal.append.fsync_ms`` histogram (qualified by
        ``metrics_labels``, e.g. ``replica=0``).
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 sync_every: int = 1, segment_bytes: int = 4 * 1024 * 1024,
                 fault_injector=None, registry=None,
                 metrics_labels: Optional[Dict[str, object]] = None):
        if sync_every < 1:
            raise WalError(f"sync_every must be >= 1, got {sync_every}")
        if segment_bytes < 1:
            raise WalError(
                f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = Path(directory) if directory is not None else None
        self.sync_every = int(sync_every)
        self.segment_bytes = int(segment_bytes)
        self.fault_injector = fault_injector
        self._fsync_ms = None
        if registry is not None:
            self._fsync_ms = registry.histogram(
                "wal.append.fsync_ms", **(metrics_labels or {}))
        self.n_injected_faults = 0
        self._records: List[WalRecord] = []
        self._handle = None
        self._handle_path: Optional[Path] = None
        self._unsynced = 0
        self.n_appended = 0
        self.n_syncs = 0
        self.n_recovered = 0
        self.truncated_bytes = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._recover()

    # -- recovery ----------------------------------------------------------

    def _segment_paths(self) -> List[Path]:
        assert self.directory is not None
        paths = [path for path in self.directory.iterdir()
                 if _SEGMENT_RE.match(path.name)]
        return sorted(paths, key=lambda path: path.name)

    def _recover(self) -> None:
        """Scan every segment; truncate a torn tail, refuse interior damage."""
        paths = self._segment_paths()
        expected: Optional[int] = None
        for position, path in enumerate(paths):
            is_last = position == len(paths) - 1
            raw = path.read_bytes()
            base = int(_SEGMENT_RE.match(path.name).group(1))
            if expected is None:
                expected = base  # compaction may have dropped the prefix
            elif base != expected:
                raise WalCorruptionError(
                    f"segment {path.name} starts at seqno {base}, "
                    f"expected {expected}: a segment is missing")
            offset = 0
            while offset < len(raw):
                try:
                    record, end = self._parse_record(raw, offset, expected)
                except ProtocolError as error:
                    raise WalCorruptionError(
                        f"record {expected} at offset {offset} of "
                        f"{path.name} passes its CRC but does not decode "
                        f"({error}): a torn append cannot produce it"
                    ) from error
                if record is None:
                    # Broken record: a torn tail only if nothing but this
                    # damage stands between us and the end of the log.
                    if not is_last:
                        raise WalCorruptionError(
                            f"broken record at offset {offset} of "
                            f"non-final segment {path.name}")
                    if self._valid_record_follows(raw, offset, expected):
                        raise WalCorruptionError(
                            f"broken record at offset {offset} of "
                            f"{path.name} with valid records after it: "
                            "interior damage, not a torn append — "
                            "truncating would drop acknowledged writes")
                    self.truncated_bytes += len(raw) - offset
                    with open(path, "r+b") as handle:
                        handle.truncate(offset)
                        handle.flush()
                        os.fsync(handle.fileno())
                    break
                self._records.append(record)
                expected += 1
                offset = end
        self.n_recovered = len(self._records)

    @staticmethod
    def _valid_record_follows(raw: bytes, offset: int,
                              broken_seqno: int) -> bool:
        """Does any CRC-valid record with the broken record's seqno or a
        later one start after the break?  A torn append damages only the
        *final* record, so valid data beyond the damage proves this is
        interior corruption — including bytes spliced in front of an
        intact record, which then still carries the expected seqno.  A
        garbage window validating by chance is a 2^-32 event per probe.
        """
        probe = offset + 1
        while probe + _RECORD_HEADER.size <= len(raw):
            length, crc, seqno = _RECORD_HEADER.unpack_from(raw, probe)
            end = probe + _RECORD_HEADER.size + length
            if (length <= MAX_RECORD_PAYLOAD and end <= len(raw)
                    and seqno >= broken_seqno
                    and zlib.crc32(
                        struct.pack(">Q", seqno)
                        + raw[probe + _RECORD_HEADER.size:end])
                    & 0xFFFFFFFF == crc):
                return True
            probe += 1
        return False

    @staticmethod
    def _parse_record(raw: bytes, offset: int,
                      expected_seqno: int) -> tuple:
        """``(record, end_offset)``, or ``(None, offset)`` when broken;
        :class:`ProtocolError` when the record is whole but its body
        does not decode."""
        if offset + _RECORD_HEADER.size > len(raw):
            return None, offset
        length, crc, seqno = _RECORD_HEADER.unpack_from(raw, offset)
        end = offset + _RECORD_HEADER.size + length
        if length > MAX_RECORD_PAYLOAD or end > len(raw):
            return None, offset
        body = raw[offset + _RECORD_HEADER.size:end]
        if zlib.crc32(struct.pack(">Q", seqno) + body) & 0xFFFFFFFF != crc:
            return None, offset
        if seqno != expected_seqno:
            return None, offset
        return WalRecord(seqno=seqno,
                         payload=_decode_binary_payload(body)), end

    # -- appending ---------------------------------------------------------

    @property
    def high_seqno(self) -> int:
        """Sequence number of the newest record (``0`` when empty)."""
        return self._records[-1].seqno if self._records else 0

    def __len__(self) -> int:
        return len(self._records)

    def _open_segment(self, first_seqno: int) -> None:
        assert self.directory is not None
        self._close_handle()
        self._handle_path = self.directory / _segment_name(first_seqno)
        self._handle = open(self._handle_path, "ab")

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._flush_and_sync()
            self._handle.close()
            self._handle = None
            self._handle_path = None

    def _flush_and_sync(self) -> None:
        if self._handle is not None and self._unsynced:
            with maybe_span("wal.fsync", unsynced=self._unsynced):
                start = time.perf_counter()
                self._handle.flush()
                os.fsync(self._handle.fileno())
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            if self._fsync_ms is not None:
                self._fsync_ms.observe(elapsed_ms)
            self.n_syncs += 1
        self._unsynced = 0

    def _rollback_bytes(self, offset: int) -> None:
        """Remove this append's partial bytes (injected-fault recovery).

        Leaves the segment exactly as before the append, so the live log
        stays self-consistent — an orphan half-record in the *interior*
        would read as corruption (not a torn tail) on the next recovery.
        """
        self._handle.flush()
        self._handle.truncate(offset)
        # truncate() leaves the file position past the new EOF; re-seek
        # so tell() keeps reporting real offsets (the next rollback's
        # truncate target) instead of phantom ones past the end.
        self._handle.seek(0, os.SEEK_END)
        os.fsync(self._handle.fileno())

    def _injected_append_fault(self) -> Optional[str]:
        if self.fault_injector is None:
            return None
        event = self.fault_injector.check("wal.append")
        return event.action if event is not None else None

    def append(self, payload: Dict[str, object]) -> int:
        """Durably append one record; returns its sequence number.

        The record is flushed to the OS before this returns; whether it
        is fsynced too depends on ``sync_every`` (see class docs).
        Inside a traced request (an active span on this thread) the
        append contributes ``wal.append`` / ``wal.fsync`` child spans;
        untraced, the cost is one thread-local read.
        """
        with maybe_span("wal.append") as span:
            seqno = self._append_record(payload)
            span.set_attr("seqno", seqno)
            return seqno

    def _append_record(self, payload: Dict[str, object]) -> int:
        seqno = self.high_seqno + 1
        encoded = _encode_record(seqno, payload)
        # The in-memory copy is exactly what recovery reads back: the
        # logged body, decoded.
        record = WalRecord(seqno=seqno, payload=_decode_binary_payload(
            encoded[_RECORD_HEADER.size:]))
        fault = self._injected_append_fault()
        if fault == "enospc":
            self.n_injected_faults += 1
            raise WalWriteError(
                f"injected ENOSPC: no space for record {seqno}")
        if fault == "torn" and self.directory is None:
            # No file to tear; the append still fails un-applied.
            self.n_injected_faults += 1
            raise WalWriteError(
                f"injected torn write: record {seqno} lost")
        if self.directory is not None:
            if (self._handle is not None
                    and self._handle.tell() >= self.segment_bytes):
                self._close_handle()
            if self._handle is None:
                self._open_segment(seqno)
            start = self._handle.tell()
            if fault == "torn":
                # Write a prefix of the record, then recover exactly as
                # a restart would: truncate the torn tail away.  One
                # step models crash-during-append plus recovery.
                self.n_injected_faults += 1
                self._handle.write(encoded[:max(1, len(encoded) // 2)])
                self._rollback_bytes(start)
                raise WalWriteError(
                    f"injected torn write: record {seqno} truncated "
                    "back out of the segment")
            self._handle.write(encoded)
            self._handle.flush()
            self._unsynced += 1
            if self._unsynced >= self.sync_every:
                if self.fault_injector is not None:
                    event = self.fault_injector.check("wal.fsync")
                    if event is not None and event.action == "fail":
                        # The record hit the OS but its durability sync
                        # failed; honour the WalWriteError contract by
                        # rolling the append back entirely.
                        self.n_injected_faults += 1
                        self._rollback_bytes(start)
                        self._unsynced -= 1
                        raise WalWriteError(
                            f"injected fsync failure: record {seqno} "
                            "rolled back")
                self._flush_and_sync()
        self._records.append(record)
        self.n_appended += 1
        return seqno

    def sync(self) -> None:
        """Force an fsync of any batched (unsynced) appends."""
        self._flush_and_sync()

    # -- reading -----------------------------------------------------------

    def records(self, start_seqno: int = 1) -> Iterator[WalRecord]:
        """All records with ``seqno >= start_seqno``, in order."""
        first = self._records[0].seqno if self._records else 1
        begin = max(0, int(start_seqno) - first)
        return iter(self._records[begin:])

    def read_range(self, start_seqno: int, limit: int) -> List[WalRecord]:
        """Up to ``limit`` records from ``start_seqno`` (catch-up batches)."""
        if limit < 1:
            raise WalError(f"limit must be >= 1, got {limit}")
        result = []
        for record in self.records(start_seqno):
            result.append(record)
            if len(result) >= limit:
                break
        return result

    # -- maintenance -------------------------------------------------------

    def compact(self, retain_from_seqno: int) -> int:
        """Drop whole segments whose records all precede ``retain_from_seqno``.

        Only call once something else (a published snapshot) durably
        covers the dropped range.  The active segment is never dropped.
        Returns the number of segment files removed.
        """
        if self.directory is None:
            before = len(self._records)
            self._records = [record for record in self._records
                             if record.seqno >= retain_from_seqno]
            return 1 if before != len(self._records) else 0
        paths = self._segment_paths()
        removed = 0
        for path, next_path in zip(paths, paths[1:]):
            next_base = int(_SEGMENT_RE.match(next_path.name).group(1))
            if next_base <= retain_from_seqno \
                    and path != self._handle_path:
                path.unlink()
                removed += 1
            else:
                break
        return removed

    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        self._close_handle()

    def stats(self) -> Dict[str, int]:
        """Counters for the observability surface (health/stats frames)."""
        return {
            "appended": self.n_appended,
            "syncs": self.n_syncs,
            "recovered": self.n_recovered,
            "truncated_bytes": self.truncated_bytes,
            "high_seqno": self.high_seqno,
            "durable": self.directory is not None,
            "sync_every": self.sync_every,
            "injected_faults": self.n_injected_faults,
        }

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
