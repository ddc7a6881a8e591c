"""The append-only segment WAL: durability, recovery, torn tails.

The contract pinned here (see ``repro.serving.wal.log``):

* appends get monotonic seqnos and survive a close/reopen bit-exactly;
* a torn tail — any truncation or byte damage in the *final* record —
  is repaired by truncating back to the last whole record (such a
  record was never acked, so nothing acknowledged is lost);
* damage anywhere *interior* (valid data follows it, or a non-final
  segment, or a missing segment) raises :class:`WalCorruptionError`
  instead of silently dropping acked writes;
* a CRC-valid record whose body does not decode as the binary array
  payload (bad UTF-8 or JSON, nesting past the parser's recursion
  limit, an integer past the int-parsing digit limit, a record body of
  the old JSON form) raises :class:`WalCorruptionError` wherever it
  sits: a torn append cannot produce a valid CRC;
* any bytes spliced into or after a valid segment recover an exact
  prefix of the appended records or raise :class:`WalCorruptionError`;
* rotation and compaction never change what replays.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.net.protocol import (ProtocolError, _JSON_LENGTH,
                                        _decode_binary_payload)
from repro.serving.wal import WalCorruptionError, WalError, WriteAheadLog
from repro.serving.wal.log import (_RECORD_HEADER, MAX_RECORD_PAYLOAD,
                                   _encode_record)


def _fill(log: WriteAheadLog, n: int, start: int = 0) -> list:
    payloads = [{"kind": "rate", "user": start + i, "value": 0.1 * i}
                for i in range(n)]
    for i, payload in enumerate(payloads):
        assert log.append(payload) == log.high_seqno
    return payloads


def _segments(directory) -> list:
    return sorted(path for path in directory.iterdir()
                  if path.name.endswith(".seg"))


def _raw_record(seqno: int, body: bytes) -> bytes:
    """A record with a valid CRC around an arbitrary body."""
    crc = zlib.crc32(struct.pack(">Q", seqno) + body) & 0xFFFFFFFF
    return _RECORD_HEADER.pack(len(body), crc, seqno) + body


def _binary_body(json_part: bytes) -> bytes:
    """A binary array payload body around ``json_part``, no arrays."""
    return _JSON_LENGTH.pack(len(json_part)) + json_part


#: CRC-valid binary bodies whose JSON part ``json.loads`` rejects with an
#: error other than ``JSONDecodeError``: RecursionError, and (where the
#: interpreter limits int parsing) ValueError.
HOSTILE_BODIES = {
    "deep_nesting": _binary_body(b"[" * 100_000 + b"]" * 100_000),
    "long_integer": _binary_body(b'{"v":' + b"9" * 5000 + b"}"),
}


def _hostile(name: str):
    if name == "long_integer" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter parses integers of any length")
    return HOSTILE_BODIES[name]


def test_append_assigns_monotonic_seqnos_and_reads_back(tmp_path):
    with WriteAheadLog(tmp_path) as log:
        payloads = _fill(log, 5)
        assert log.high_seqno == 5
        assert len(log) == 5
        records = list(log.records())
        assert [record.seqno for record in records] == [1, 2, 3, 4, 5]
        assert [record.payload for record in records] == payloads
        assert [record.seqno for record in log.records(start_seqno=4)] \
            == [4, 5]
        assert [record.seqno for record in log.read_range(2, 2)] == [2, 3]


def test_reopen_recovers_everything_bit_exactly(tmp_path):
    # Values chosen to stress IEEE round-tripping: replay must apply the
    # very same doubles the leader applied live.
    payloads = [{"value": 0.1 + 0.2}, {"value": 1e-308}, {"value": -0.0},
                {"value": 12345678901234567.0}]
    with WriteAheadLog(tmp_path) as log:
        for payload in payloads:
            log.append(payload)
    with WriteAheadLog(tmp_path) as reopened:
        assert reopened.n_recovered == len(payloads)
        assert reopened.high_seqno == len(payloads)
        recovered = [record.payload["value"]
                     for record in reopened.records()]
        expected = [payload["value"] for payload in payloads]
        assert struct.pack(f">{len(recovered)}d", *recovered) \
            == struct.pack(f">{len(expected)}d", *expected)
        # And appending continues from the recovered high-water mark.
        assert reopened.append({"more": True}) == len(payloads) + 1


def test_rating_arrays_recover_bit_exactly(tmp_path):
    """A mutation record's items and values are raw int64 / float64
    blocks: what the log holds, live and after a reopen, is the very
    array the leader applied."""
    items = np.array([4, 9, 2**40], dtype=np.int64)
    values = np.array([0.1 + 0.2, 1e-308, -0.0])
    with WriteAheadLog(tmp_path) as log:
        log.append({"kind": "rate", "user": 3, "items": items,
                    "values": values})
        live = next(log.records()).payload
    with WriteAheadLog(tmp_path) as reopened:
        recovered = next(reopened.records()).payload
    for payload in (live, recovered):
        assert payload["items"].dtype == np.int64
        assert payload["items"].tobytes() == items.tobytes()
        assert payload["values"].dtype == np.float64
        assert payload["values"].tobytes() == values.tobytes()
        assert (payload["kind"], payload["user"]) == ("rate", 3)


def test_torn_tail_is_truncated_not_fatal(tmp_path):
    with WriteAheadLog(tmp_path) as log:
        _fill(log, 3)
    segment = _segments(tmp_path)[-1]
    raw = segment.read_bytes()
    segment.write_bytes(raw[:-7])  # tear the last record mid-payload
    with WriteAheadLog(tmp_path) as log:
        assert log.n_recovered == 2
        assert log.truncated_bytes > 0
        assert log.high_seqno == 2
        # The torn bytes are gone from disk too: the next append starts
        # at a clean record boundary and seqno 3 is reissued.
        assert log.append({"again": 3}) == 3
    with WriteAheadLog(tmp_path) as log:
        assert [record.seqno for record in log.records()] == [1, 2, 3]


def test_crc_flip_in_the_final_record_is_a_torn_tail(tmp_path):
    with WriteAheadLog(tmp_path) as log:
        _fill(log, 3)
    segment = _segments(tmp_path)[-1]
    raw = bytearray(segment.read_bytes())
    raw[-1] ^= 0xFF  # corrupt the last record's payload
    segment.write_bytes(bytes(raw))
    with WriteAheadLog(tmp_path) as log:
        assert log.n_recovered == 2


def test_crc_flip_in_the_interior_refuses_to_recover(tmp_path):
    with WriteAheadLog(tmp_path) as log:
        _fill(log, 3)
    segment = _segments(tmp_path)[-1]
    raw = bytearray(segment.read_bytes())
    raw[_RECORD_HEADER.size + 2] ^= 0xFF  # inside record 1's payload
    segment.write_bytes(bytes(raw))
    with pytest.raises(WalCorruptionError):
        WriteAheadLog(tmp_path)


@pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
def test_an_undecodable_final_record_refuses_to_recover(tmp_path, name):
    """A torn append cannot write a valid CRC, so a whole final record
    that does not decode is damage, not a tail to truncate."""
    body = _hostile(name)
    with WriteAheadLog(tmp_path) as log:
        _fill(log, 2)
    segment = _segments(tmp_path)[-1]
    damaged = segment.read_bytes() + _raw_record(3, body)
    segment.write_bytes(damaged)
    with pytest.raises(WalCorruptionError, match="record 3 .* not decode"):
        WriteAheadLog(tmp_path)
    assert segment.read_bytes() == damaged


@pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
def test_an_undecodable_interior_record_refuses_to_recover(tmp_path, name):
    body = _hostile(name)
    with WriteAheadLog(tmp_path) as log:
        _fill(log, 2)
    segment = _segments(tmp_path)[-1]
    segment.write_bytes(segment.read_bytes() + _raw_record(3, body)
                        + _encode_record(4, {"after": 4}))
    with pytest.raises(WalCorruptionError, match="record 3 .* not decode"):
        WriteAheadLog(tmp_path)


def test_a_json_form_final_record_is_refused_not_truncated(tmp_path):
    """A segment written before records took the binary array payload
    holds JSON bodies.  Its one acked record must not read as a torn
    tail and vanish: recovery refuses the log and leaves it as it is."""
    record = {"kind": "foldin", "user": 60, "items": [0, 1],
              "values": [4.5, 3.0], "write_id": "a1-1"}
    body = json.dumps(record, separators=(",", ":"),
                      sort_keys=True).encode("utf8")
    segment = tmp_path / f"wal-{1:020d}.seg"
    segment.write_bytes(_raw_record(1, body))
    with pytest.raises(WalCorruptionError, match="record 1 .* not decode"):
        WriteAheadLog(tmp_path)
    assert segment.read_bytes() == _raw_record(1, body)


def test_bytes_spliced_before_the_final_record_refuse_to_recover(tmp_path):
    """The final record is intact behind the damage, so truncating there
    would drop an acknowledged write."""
    with WriteAheadLog(tmp_path) as log:
        payloads = _fill(log, 3)
    segment = _segments(tmp_path)[-1]
    raw = segment.read_bytes()
    final = len(raw) - len(_encode_record(3, payloads[-1]))
    segment.write_bytes(raw[:final] + b"\x00junk" + raw[final:])
    with pytest.raises(WalCorruptionError, match="interior"):
        WriteAheadLog(tmp_path)


def _decodes_to_a_record(body: bytes) -> bool:
    try:
        _decode_binary_payload(body)
    except ProtocolError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_spliced_bytes_recover_an_exact_prefix_or_refuse(tmp_path_factory,
                                                         data):
    """Arbitrary bytes — raw garbage, or a CRC-valid record around an
    undecodable body — spliced anywhere into or after a valid segment:
    recovery yields an exact prefix of the appended records or raises
    WalCorruptionError, nothing else.  Damage in front of an intact
    final record always raises; bytes after the segment drop nothing,
    and raise when they are a whole record with the next seqno."""
    directory = tmp_path_factory.mktemp("wal")
    n_records = data.draw(st.integers(min_value=1, max_value=6),
                          label="n_records")
    with WriteAheadLog(directory) as log:
        payloads = _fill(log, n_records)
    segment = _segments(directory)[-1]
    raw = segment.read_bytes()
    final = len(raw) - len(_encode_record(n_records, payloads[-1]))
    garbage = st.binary(min_size=1, max_size=64)
    body = st.one_of(st.binary(max_size=64),
                     st.sampled_from(sorted(HOSTILE_BODIES.values())))
    framed = st.tuples(
        st.integers(min_value=1, max_value=n_records + 1),
        body.filter(lambda b: not _decodes_to_a_record(b)))
    splice = data.draw(st.one_of(garbage, framed), label="splice")
    next_record = isinstance(splice, tuple) and splice[0] == n_records + 1
    if isinstance(splice, tuple):
        splice = _raw_record(*splice)
    at = data.draw(st.integers(min_value=0, max_value=len(raw)), label="at")
    segment.write_bytes(raw[:at] + splice + raw[at:])

    try:
        with WriteAheadLog(directory) as log:
            recovered = [record.payload for record in log.records()]
    except WalCorruptionError:
        assert at < len(raw) or next_record
        return
    assert not (at == len(raw) and next_record)
    assert recovered == payloads[:len(recovered)]
    assert at > final
    if at == len(raw):
        assert recovered == payloads


def test_damage_in_a_non_final_segment_refuses_to_recover(tmp_path):
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        _fill(log, 3)  # one record per segment
    first = _segments(tmp_path)[0]
    first.write_bytes(first.read_bytes()[:-2])
    with pytest.raises(WalCorruptionError, match="non-final"):
        WriteAheadLog(tmp_path)


def test_a_missing_segment_refuses_to_recover(tmp_path):
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        _fill(log, 3)
    _segments(tmp_path)[1].unlink()
    with pytest.raises(WalCorruptionError, match="missing"):
        WriteAheadLog(tmp_path)


def test_rotation_spreads_segments_and_replays_identically(tmp_path):
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        payloads = _fill(log, 5)
        assert len(_segments(tmp_path)) == 5
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        assert [record.payload for record in log.records()] == payloads


def test_compaction_drops_covered_segments_and_reopens(tmp_path):
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        _fill(log, 5)
        assert log.compact(retain_from_seqno=4) == 3
        assert len(_segments(tmp_path)) == 2
        assert [record.seqno for record in log.read_range(4, 10)] == [4, 5]
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        # Recovery starts at the first surviving segment's base seqno.
        assert [record.seqno for record in log.records()] == [4, 5]
        assert log.append({"post": True}) == 6
        # The active segment is never dropped.
        assert log.compact(retain_from_seqno=10**6) == 2


def test_segment_creates_and_compaction_unlinks_fsync_the_directory(
        tmp_path, monkeypatch):
    """A segment's directory entry is durable before its first record is
    synced, and a compaction's unlinks are durable once it returns."""
    events = []
    directory = tmp_path.stat().st_ino
    real_fsync, real_unlink = os.fsync, os.unlink

    def fsync(fd):
        events.append("dir" if os.fstat(fd).st_ino == directory else "file")
        real_fsync(fd)

    def unlink(path, *args, **kwargs):
        events.append("unlink")
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "unlink", unlink)
    with WriteAheadLog(tmp_path, segment_bytes=1) as log:
        _fill(log, 3)
        assert events == ["dir", "file"] * 3
        events.clear()
        assert log.compact(retain_from_seqno=3) == 2
        assert events == ["unlink", "unlink", "dir"]


def test_sync_every_batches_fsyncs(tmp_path):
    with WriteAheadLog(tmp_path, sync_every=3) as log:
        _fill(log, 2)
        assert log.n_syncs == 0  # two unsynced appends
        log.append({"third": True})
        assert log.n_syncs == 1  # the batch threshold
        log.append({"fourth": True})
        log.sync()
        assert log.n_syncs == 2  # explicit flush of the partial batch
        log.sync()
        assert log.n_syncs == 2  # nothing pending: no-op
    strict = WriteAheadLog(tmp_path)
    assert strict.n_recovered == 4
    strict.close()


def test_in_memory_mode_has_the_same_api(tmp_path):
    log = WriteAheadLog(directory=None)
    payloads = _fill(log, 4)
    assert [record.payload for record in log.records()] == payloads
    assert log.compact(retain_from_seqno=3) == 1
    assert [record.seqno for record in log.records()] == [3, 4]
    assert log.stats()["durable"] is False
    log.close()


def test_oversized_payloads_are_refused_at_append(tmp_path):
    with WriteAheadLog(tmp_path) as log:
        with pytest.raises(WalError, match="record limit"):
            log.append({"blob": "x" * (MAX_RECORD_PAYLOAD + 1)})
        assert log.high_seqno == 0


def test_invalid_configuration_is_refused(tmp_path):
    with pytest.raises(WalError, match="sync_every"):
        WriteAheadLog(tmp_path, sync_every=0)
    with pytest.raises(WalError, match="segment_bytes"):
        WriteAheadLog(tmp_path, segment_bytes=0)
    with WriteAheadLog(tmp_path) as log:
        with pytest.raises(WalError, match="limit"):
            log.read_range(1, 0)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_any_crash_point_recovers_an_exact_acked_prefix(tmp_path_factory,
                                                        data):
    """The crash-recovery property: cut the final segment *anywhere* and
    recovery yields an exact prefix of what was appended — every record
    acked before the cut point survives, bit for bit, and nothing
    invented appears."""
    directory = tmp_path_factory.mktemp("wal")
    n_records = data.draw(st.integers(min_value=1, max_value=8),
                          label="n_records")
    payloads = [
        {"user": i,
         "value": data.draw(st.floats(allow_nan=False), label=f"v{i}"),
         "note": data.draw(st.text(max_size=8), label=f"t{i}")}
        for i in range(n_records)]
    with WriteAheadLog(directory) as log:
        for payload in payloads:
            log.append(payload)
    segment = _segments(directory)[-1]
    raw = segment.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)),
                    label="cut")
    segment.write_bytes(raw[:cut])

    with WriteAheadLog(directory) as log:
        recovered = list(log.records())
    # json round-trip of the originals: what append() itself stored.
    canonical = [json.loads(json.dumps(payload)) for payload in payloads]
    assert [record.payload for record in recovered] \
        == canonical[:len(recovered)]
    assert [record.seqno for record in recovered] \
        == list(range(1, len(recovered) + 1))
    if cut == len(raw):  # no tear at all: nothing may be dropped
        assert len(recovered) == n_records
