"""Frame codec and shared line-protocol tests.

The codec is the single parser for both transports, so these tests pin
(1) exact round-trips for every message kind under arbitrary chunking,
(2) loud rejection of truncated/oversized/garbage frames, and of any
frame outside the one payload form, (3) the protocol-version handshake
refusal, and (4) a golden REPL transcript:
the refactored ``serve`` loop (parse_line → execute → format_reply) must
reproduce the historical ad-hoc loop's output bit-for-bit.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.recommend import Recommendation
from repro.serving.__main__ import main
from repro.serving.net.protocol import (
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    ProtocolError,
    check_hello,
    encode_frame,
    execute,
    format_reply,
    hello_frame,
    parse_line,
    recommendation_payload,
)
from repro.serving.net.protocol import (
    _BINARY_FLAG,
    _HEADER,
    _JSON,
    _JSON_LENGTH,
    _KIND_CODES,
    _MAGIC,
    _decode_binary_payload,
    _encode_binary_payload,
    _extract_arrays,
    _json_part,
    _restore_arrays,
)
from repro.serving.service import PredictionService

ALL_KINDS = sorted(_KIND_CODES)

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20))

# The encoder rejects the reserved "__nd__" marker key at *any* nesting
# depth (documented contract), so payloads must exclude it everywhere,
# not just at the top level.
_marker_free_keys = st.text(max_size=8).filter(lambda key: key != "__nd__")
_marker_free_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_marker_free_keys, children, max_size=4)),
    max_leaves=12)
_marker_free_payloads = st.dictionaries(
    st.text(max_size=12).filter(lambda key: key != "__nd__"),
    _marker_free_values, max_size=6)


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), payload=_marker_free_payloads,
       cut=st.integers(min_value=0, max_value=10_000))
def test_round_trip_survives_arbitrary_chunking(kind, payload, cut):
    """encode → split at any byte → decode reproduces the frame exactly."""
    wire = encode_frame(Frame(kind, payload))
    decoder = FrameDecoder()
    first = wire[:cut % (len(wire) + 1)]
    frames = decoder.feed(first)
    frames += decoder.feed(wire[len(first):])
    assert len(frames) == 1
    assert frames[0].kind == kind
    assert frames[0].payload == payload
    assert frames[0].version == PROTOCOL_VERSION
    assert decoder.pending_bytes == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ALL_KINDS),
                          _marker_free_payloads),
                min_size=1, max_size=5),
       st.integers(min_value=1, max_value=7))
def test_pipelined_frames_decode_in_order(messages, chunk):
    """Many frames in one stream come out in order, whatever the chunking."""
    wire = b"".join(encode_frame(Frame(kind, payload))
                    for kind, payload in messages)
    decoder = FrameDecoder()
    frames = []
    for start in range(0, len(wire), chunk):
        frames += decoder.feed(wire[start:start + chunk])
    assert [(frame.kind, frame.payload) for frame in frames] == messages


def test_scores_round_trip_bit_exactly():
    """The JSON part preserves IEEE doubles exactly — the parity backbone."""
    scores = np.random.default_rng(3).standard_normal(64)
    scores[0] = 1e-308  # subnormal-adjacent
    scores[1] = np.nextafter(1.0, 2.0)
    wire = encode_frame(Frame("ok", {"scores": scores.tolist()}))
    frame = FrameDecoder().feed(wire)[0]
    assert np.asarray(frame.payload["scores"]).tobytes() == scores.tobytes()


# ---------------------------------------------------------------------------
# the binary array payload kind
# ---------------------------------------------------------------------------

_array_dtypes = st.sampled_from(["<f8", "<i8", "<f4", "<i4"])


@st.composite
def _ndarrays(draw):
    dtype = np.dtype(draw(_array_dtypes))
    shape = tuple(draw(st.lists(st.integers(min_value=0, max_value=5),
                                min_size=1, max_size=3)))
    count = int(np.prod(shape))
    if dtype.kind == "f":
        values = draw(st.lists(
            st.floats(allow_nan=False, width=32 if dtype.itemsize == 4
                      else 64),
            min_size=count, max_size=count))
    else:
        bound = 2 ** (8 * dtype.itemsize - 1) - 1
        values = draw(st.lists(
            st.integers(min_value=-bound, max_value=bound),
            min_size=count, max_size=count))
    return np.asarray(values, dtype=dtype).reshape(shape)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS),
       arrays=st.lists(_ndarrays(), min_size=1, max_size=3),
       scalars=_marker_free_payloads,
       cut=st.integers(min_value=0, max_value=10_000))
def test_binary_round_trip_is_bit_exact(kind, arrays, scalars, cut):
    """ndarray payloads survive the binary wire form exactly, any chunking."""
    payload = dict(scalars)
    for index, array in enumerate(arrays):
        payload[f"array_{index}"] = array
    wire = encode_frame(Frame(kind, payload))
    decoder = FrameDecoder()
    first = wire[:cut % (len(wire) + 1)]
    frames = decoder.feed(first) + decoder.feed(wire[len(first):])
    assert len(frames) == 1 and frames[0].kind == kind
    decoded = frames[0].payload
    for index, array in enumerate(arrays):
        out = decoded[f"array_{index}"]
        assert isinstance(out, np.ndarray)
        assert out.shape == array.shape
        assert out.dtype == array.dtype
        assert out.tobytes() == array.tobytes()
    for key, value in scalars.items():
        if key != "__nd__":
            assert decoded[key] == value
    assert decoder.pending_bytes == 0


# ---------------------------------------------------------------------------
# same bytes on the wire
# ---------------------------------------------------------------------------

def _reference_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(type(value).__name__)


def _reference_extract(value, arrays):
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {"__nd__": len(arrays) - 1}
    if isinstance(value, dict):
        return {key: _reference_extract(item, arrays)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_extract(item, arrays) for item in value]
    return value


def _reference_encode(frame: Frame) -> bytes:
    """The encoder the wire format was defined by: a fresh ``json.dumps``
    per frame and per-array dtype/shape formatting.  The codec must stay
    byte-identical to it."""
    arrays = []
    json_part = json.dumps(_reference_extract(frame.payload, arrays),
                           separators=(",", ":"), sort_keys=True,
                           default=_reference_default).encode("utf8")
    blocks = [struct.pack(">I", len(json_part)), json_part]
    for array in arrays:
        tag = array.dtype.newbyteorder("<").str
        wire = np.ascontiguousarray(array).astype(tag, copy=False)
        blocks.append(struct.pack(">BB", {"<f8": 0, "<i8": 1, "<f4": 2,
                                          "<i4": 3}[tag], wire.ndim))
        blocks.append(struct.pack(f">{wire.ndim}I", *wire.shape))
        blocks.append(wire.tobytes())
    body = b"".join(blocks)
    code = _KIND_CODES[frame.kind] | _BINARY_FLAG
    return _HEADER.pack(_MAGIC, frame.version, code, len(body)) + body


@st.composite
def _wire_arrays(draw):
    """Arrays of every wire dtype in either byte order, 0-d, sliced
    (non-contiguous) and empty ones included."""
    array = draw(_ndarrays())
    order = draw(st.sampled_from("<>"))
    array = array.astype(array.dtype.newbyteorder(order))
    if draw(st.booleans()) and array.ndim:
        array = array[::2]
    if draw(st.booleans()):
        array = np.asarray(array.ravel()[:1].reshape(()) if array.size
                           else array)
    return array


_numpy_scalars = st.one_of(
    st.integers(-2**31, 2**31 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64))
_wire_values = st.recursive(
    st.one_of(_json_scalars, st.floats(), _numpy_scalars, _wire_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_marker_free_keys, children, max_size=4)),
    max_leaves=10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(ALL_KINDS),
       payload=st.dictionaries(_marker_free_keys, _wire_values, max_size=5))
def test_encoder_is_byte_identical_to_the_reference(kind, payload):
    frame = Frame(kind, payload)
    assert encode_frame(frame) == _reference_encode(frame)


#: A one-record WAL shipment: nested, and no array anywhere.
_SHIPMENT = {"records": [{"seqno": 7, "payload": {
    "kind": "rate", "user": 3, "items": [4, 9], "values": [3.5, 1.0],
    "write_id": "a1-2"}}], "leader_hwm": 7, "leader_instance": "9f3c"}
#: The same shipment as the leader sends it: the record's ratings are
#: arrays, nested two levels down.
_ARRAY_SHIPMENT = {"records": [{"seqno": 7, "payload": {
    "kind": "rate", "user": 3, "items": np.array([4, 9]),
    "values": np.array([3.5, 1.0]), "write_id": "a1-2"}}],
    "leader_hwm": 7, "leader_instance": "9f3c"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=st.dictionaries(_marker_free_keys, _wire_values, max_size=5))
@example(payload=_SHIPMENT)
@example(payload=_ARRAY_SHIPMENT)
@example(payload={"user": 7, "items": np.arange(3), "id": 1})
def test_codec_fast_paths_match_the_general_walk(payload):
    """Flat payloads substituted in one loop, nested ones without arrays
    encoded as they stand, restores skipped without arrays: the JSON
    part, the arrays and the decoded payload are the general walk's,
    byte for byte."""
    arrays, walked = [], []
    assert _json_part(payload, arrays) == \
        _JSON.encode(_extract_arrays(payload, walked))
    assert [array is walk for array, walk in zip(arrays, walked)] == \
        [True] * len(walked) and len(arrays) == len(walked)
    body = _encode_binary_payload(payload)
    (length,) = _JSON_LENGTH.unpack_from(body)
    substituted = json.loads(body[_JSON_LENGTH.size:
                                  _JSON_LENGTH.size + length])
    assert repr(_wire_view(_decode_binary_payload(body))) == \
        repr(_wire_view(_restore_arrays(substituted, arrays)))


def _wire_view(value):
    """``value`` with each array as its wire dtype and bytes (``repr``
    of the result compares NaNs equal)."""
    if isinstance(value, np.ndarray):
        dtype = value.dtype.newbyteorder("<")
        return (dtype.str, np.ascontiguousarray(value, dtype=dtype)
                .tobytes())
    if isinstance(value, dict):
        return {key: _wire_view(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire_view(item) for item in value]
    return value


@pytest.mark.parametrize("json_part", [b'{"a":{"__nd__":0}}',
                                       b'{"a":[{"\\u005f_nd__":0}]}'])
def test_a_stray_array_marker_is_refused_without_arrays(json_part):
    """The decoder skips the restore walk for array-free frames, but a
    marker with no array behind it, spelled plainly or escaped, is still
    refused."""
    with pytest.raises(ProtocolError, match="references array 0"):
        _decode_binary_payload(_JSON_LENGTH.pack(len(json_part))
                               + json_part)


@pytest.mark.parametrize("with_array", [False, True])
def test_a_top_level_array_marker_is_refused(with_array):
    """A payload that is itself an array reference is no JSON object,
    whether or not the frame carries the array it names."""
    body = _encode_binary_payload({"a": np.arange(3)})
    (length,) = _JSON_LENGTH.unpack_from(body)
    blocks = body[_JSON_LENGTH.size + length:] if with_array else b""
    json_part = b'{"__nd__":0}'
    with pytest.raises(ProtocolError, match="JSON object"):
        _decode_binary_payload(_JSON_LENGTH.pack(len(json_part)) + json_part
                               + blocks)


#: A fixed request and its reply, hex-recorded before the codec was
#: reworked: the wire bytes may not move.  (The fifth byte is the
#: protocol version.)
_PINNED_REQUEST = Frame("top_n", {"user": 7, "n": 10, "exclude_seen": True,
                                  "id": 3, "deadline_ms": 250.5})
_PINNED_REPLY = Frame("ok", {
    "user": 7, "id": 3,
    "items": np.array([3, 141, 59, 2653, 589, 79, 323, 846, 26, 433],
                      dtype=np.int64),
    "scores": np.array([4.5, 4.25, 3.875, 3.5, 3.0625, 2.75, 2.5, 1.125,
                        -0.5, -1.0e-3])})


def test_pinned_frames_keep_their_bytes():
    assert encode_frame(_PINNED_REQUEST).hex() == (
        "5250524f048200000044000000407b22646561646c696e655f6d73223a3235302e"
        "352c226578636c7564655f7365656e223a747275652c226964223a332c226e223a"
        "31302c2275736572223a377d")
    assert encode_frame(_PINNED_REPLY).hex() == (
        "5250524f0490000000ec0000003c7b226964223a332c226974656d73223a7b225f"
        "5f6e645f5f223a307d2c2273636f726573223a7b225f5f6e645f5f223a317d2c22"
        "75736572223a377d01010000000a03000000000000008d00000000000000"
        "3b000000000000005d0a0000000000004d020000000000004f0000000000"
        "000043010000000000004e030000000000001a00000000000000b1010000"
        "0000000000010000000a000000000000124000000000000011400000000000"
        "000f400000000000000c40000000000080084000000000000006400000000"
        "000000440000000000000f23f000000000000e0bffca9f1d24d6250bf")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_frame_without_the_binary_flag_is_refused(kind):
    """The one payload form: a kind byte without the flag (the JSON form
    of protocol version 3) is an unknown kind, whatever its body."""
    body = b'{"user":7}'
    code = _KIND_CODES[kind] & ~_BINARY_FLAG
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, code, len(body)) + body
    with pytest.raises(ProtocolError, match=f"unknown frame kind code {code}"):
        FrameDecoder().feed(wire)


def test_the_perfbench_spellings_take_only_their_one_value():
    """``encode_frame(binary=True)`` and ``recommendation_payload(
    arrays=True)`` are kept only as the spellings perfbench passes."""
    assert encode_frame(_PINNED_REPLY, binary=True) == \
        encode_frame(_PINNED_REPLY)
    with pytest.raises(ValueError, match="only form"):
        encode_frame(_PINNED_REPLY, binary=False)
    reply = Recommendation(user=7, items=np.arange(3), scores=np.zeros(3))
    assert _wire_view(recommendation_payload(reply, arrays=True)) == \
        _wire_view(recommendation_payload(reply))
    with pytest.raises(ValueError, match="are arrays"):
        recommendation_payload(reply, arrays=False)


def test_binary_payload_rejects_reserved_marker_key():
    with pytest.raises(ProtocolError, match="reserved key"):
        encode_frame(Frame("ok", {"__nd__": 0}))


def test_binary_payload_rejects_unsupported_dtype():
    with pytest.raises(ProtocolError, match="no binary wire form"):
        _encode_binary_payload({"x": np.zeros(2, dtype=np.complex128)})


def test_truncated_binary_array_is_rejected():
    body = _encode_binary_payload(
        {"scores": np.arange(16, dtype=np.float64)})
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION,
                        _KIND_CODES["ok"] | _BINARY_FLAG, len(body) - 8)
    with pytest.raises(ProtocolError, match="truncates an array"):
        FrameDecoder().feed(wire + body[:-8])


def test_unknown_binary_dtype_code_is_rejected():
    body = _encode_binary_payload({"scores": np.zeros(4)})
    # The dtype code byte sits right after the u32 json length + JSON.
    (json_length,) = np.frombuffer(body[:4], dtype=">u4")
    corrupt = bytearray(body)
    corrupt[4 + int(json_length)] = 99
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION,
                        _KIND_CODES["ok"] | _BINARY_FLAG, len(corrupt))
    with pytest.raises(ProtocolError, match="dtype code 99"):
        FrameDecoder().feed(wire + bytes(corrupt))


def test_binary_array_reference_out_of_range_is_rejected():
    body = json.dumps({"scores": {"__nd__": 3}}).encode("utf8")
    framed = np.asarray([len(body)], dtype=">u4").tobytes() + body
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION,
                        _KIND_CODES["ok"] | _BINARY_FLAG, len(framed))
    with pytest.raises(ProtocolError, match="references array"):
        FrameDecoder().feed(wire + framed)


def test_wrapped_array_element_count_is_rejected(wrapped_array_frame):
    """Dims whose product overflows int64 are counted exactly and fail
    the bounds check as a ProtocolError (they used to escape as
    ``ValueError`` out of ``reshape``)."""
    assert len(wrapped_array_frame) == 65
    with pytest.raises(ProtocolError, match="truncates an array"):
        FrameDecoder().feed(wrapped_array_frame)


@pytest.mark.parametrize("text", [b"[" * 100_000,
                                  b'{"n":' + b"1" * 5000 + b"}"],
                         ids=["deep", "long_int"])
def test_hostile_json_decodes_or_is_a_protocol_error(text):
    """JSON nested past the interpreter stack, or an integer literal over
    the int-conversion digit limit, raises ``RecursionError`` /
    ``ValueError`` inside ``json.loads``; the decoder refuses both."""
    body = _JSON_LENGTH.pack(len(text)) + text
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, _KIND_CODES["ok"],
                        len(body)) + body
    try:
        frames = FrameDecoder().feed(wire)
    except ProtocolError:
        return
    assert frames[0].payload == json.loads(text)




def _mutations(draw, wire: bytearray) -> bytearray:
    """One damage to an encoded frame (see the fuzz test below)."""
    mutation = draw(st.sampled_from(
        ["overwrite", "truncate", "u32", "dims"]))
    if mutation == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            wire[draw(st.integers(0, len(wire) - 1))] = draw(
                st.integers(0, 255))
    elif mutation == "truncate":
        # Cut the body and rewrite the header length to match, so the
        # decoder parses the torn payload instead of waiting for more.
        cut = draw(st.integers(_HEADER.size, len(wire)))
        del wire[cut:]
        wire[_HEADER.size - 4:_HEADER.size] = _JSON_LENGTH.pack(
            cut - _HEADER.size)
    elif mutation == "u32":
        # Rewrite any aligned-or-not u32: the header length, the binary
        # JSON length, an array dim.
        at = draw(st.integers(_HEADER.size - 4, max(_HEADER.size - 4,
                                                    len(wire) - 4)))
        wire[at:at + 4] = _JSON_LENGTH.pack(draw(st.integers(0, 2**32 - 1)))
    else:
        # Every dim of the first array block, when there is one, made
        # huge: their product overflows any fixed-width element count.
        (json_length,) = _JSON_LENGTH.unpack_from(wire, _HEADER.size)
        block = _HEADER.size + _JSON_LENGTH.size + json_length
        if block + 2 <= len(wire):
            ndim = wire[block + 1]
            for axis in range(ndim):
                at = block + 2 + 4 * axis
                wire[at:at + 4] = _JSON_LENGTH.pack(
                    draw(st.integers(2**30, 2**32 - 1)))
    return wire


@st.composite
def _damaged_frames(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    payload = dict(draw(_marker_free_payloads))
    if kind == "mpi_msg":
        # Collectives and the goodbye ride reserved negative tags.
        payload.update(tag=draw(st.integers(-4, 99)))
    for index, array in enumerate(draw(st.lists(_ndarrays(), max_size=2))):
        payload[f"array_{index}"] = array
    wire = bytearray(encode_frame(Frame(kind, payload)))
    return bytes(_mutations(draw, wire))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wire=_damaged_frames())
def test_damaged_frames_decode_or_raise_protocol_error(wire):
    """The decoder is the trust boundary of every socket reader (async
    client, server, MPI rank): mutated, truncated and length-rewritten
    encodings of every kind either decode or raise
    :class:`ProtocolError` — never anything else."""
    try:
        frames = FrameDecoder().feed(wire)
    except ProtocolError:
        return
    for frame in frames:
        assert isinstance(frame.payload, dict)


# ---------------------------------------------------------------------------
# rejection: truncated / oversized / garbage
# ---------------------------------------------------------------------------

def test_truncated_frame_stays_pending_never_partial():
    wire = encode_frame(Frame("top_n", {"user": 3, "n": 5}))
    decoder = FrameDecoder()
    assert decoder.feed(wire[:-1]) == []
    assert decoder.pending_bytes == len(wire) - 1
    frames = decoder.feed(wire[-1:])
    assert len(frames) == 1 and frames[0].payload == {"user": 3, "n": 5}


def test_garbage_magic_is_rejected():
    with pytest.raises(ProtocolError, match="magic"):
        FrameDecoder().feed(b"GET / HTTP/1.1\r\n\r\n")


def test_oversized_frame_is_rejected_before_buffering():
    header = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, _KIND_CODES["stats"],
                          MAX_PAYLOAD + 1)
    with pytest.raises(ProtocolError, match="limit"):
        FrameDecoder().feed(header)
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(Frame("ok", {"blob": "x" * (MAX_PAYLOAD + 1)}))


def test_unknown_kind_code_is_rejected():
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, 250, 2) + b"{}"
    with pytest.raises(ProtocolError, match="kind code 250"):
        FrameDecoder().feed(wire)


def test_malformed_payload_is_rejected():
    text = b"not json"
    body = _JSON_LENGTH.pack(len(text)) + text
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, _KIND_CODES["ok"],
                        len(body)) + body
    with pytest.raises(ProtocolError, match="malformed"):
        FrameDecoder().feed(wire)
    text = b"[1,2]"  # valid JSON, wrong shape
    body = _JSON_LENGTH.pack(len(text)) + text
    wire = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, _KIND_CODES["ok"],
                        len(body)) + body
    with pytest.raises(ProtocolError, match="JSON object"):
        FrameDecoder().feed(wire)


def test_encode_unknown_kind_is_rejected():
    with pytest.raises(ProtocolError, match="unknown frame kind"):
        encode_frame(Frame("bogus"))


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

def test_handshake_accepts_matching_version():
    assert hello_frame().payload == {"version": PROTOCOL_VERSION}
    assert check_hello(hello_frame()) is None


def test_handshake_refuses_cross_version_clients():
    refusal = check_hello(Frame("hello", {"version": PROTOCOL_VERSION + 1}))
    assert refusal is not None and refusal.is_error
    assert "not supported" in refusal.payload["message"]
    assert refusal.payload["server_version"] == PROTOCOL_VERSION
    missing = check_hello(Frame("hello", {}))
    assert missing is not None and missing.is_error


def test_handshake_refuses_non_hello_openers():
    refusal = check_hello(Frame("top_n", {"user": 0}))
    assert refusal is not None and refusal.is_error
    assert "handshake" in refusal.payload["message"]


# ---------------------------------------------------------------------------
# the shared line protocol (REPL parser/formatter)
# ---------------------------------------------------------------------------

def test_parse_line_covers_the_command_set():
    assert parse_line("   ") is None
    assert parse_line("quit").kind == "quit"
    assert parse_line("predict 3 7").payload == {"user": 3, "item": 7}
    assert parse_line("top 2").payload == {"user": 2, "n": 10}
    assert parse_line("top 2 5").payload == {"user": 2, "n": 5}
    assert parse_line("foldin 0:4.5 9:3.0").payload == {
        "items": [0, 9], "values": [4.5, 3.0]}
    assert parse_line("rate 60 2:4.0").payload == {
        "user": 60, "items": [2], "values": [4.0]}
    assert parse_line("stats").kind == "stats"
    assert parse_line("health").kind == "health"


def test_parse_line_raises_exactly_what_the_legacy_parser_raised():
    with pytest.raises(ValueError, match="invalid literal"):
        parse_line("predict zero 1")
    with pytest.raises(IndexError):
        parse_line("predict 0")
    with pytest.raises(ProtocolError, match="unknown command 'bogus'"):
        parse_line("bogus")


@pytest.fixture(scope="module")
def trained_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("protocol") / "model.npz"
    assert main(["train", "--snapshot", str(path),
                 "--users", "60", "--movies", "40", "--num-latent", "4",
                 "--burn-in", "2", "--n-samples", "3"]) == 0
    return path


def _legacy_transcript(service, commands: str) -> list[str]:
    """The historical ad-hoc serve loop, verbatim — the golden oracle."""
    out = []
    for line in commands.splitlines():
        parts = line.split()
        if not parts:
            continue
        command, rest = parts[0], parts[1:]
        try:
            if command == "quit":
                break
            elif command == "predict":
                user, item = int(rest[0]), int(rest[1])
                out.append(f"{service.predict(user, item):.4f}")
            elif command == "top":
                user = int(rest[0])
                n = int(rest[1]) if len(rest) > 1 else 10
                recommendation = service.top_n(user, n=n)
                out.append(" ".join(f"{item}:{score:.4f}" for item, score
                                    in recommendation.as_pairs()))
            elif command == "foldin":
                items = [int(token.partition(":")[0]) for token in rest]
                values = [float(token.partition(":")[2]) for token in rest]
                user = service.fold_in(np.array(items), np.array(values))
                out.append(f"user {user}")
            elif command == "rate":
                user = int(rest[0])
                items = [int(token.partition(":")[0]) for token in rest[1:]]
                values = [float(token.partition(":")[2])
                          for token in rest[1:]]
                service.add_ratings(user, np.array(items), np.array(values))
                out.append(f"user {user} updated")
            elif command == "stats":
                out.append(json.dumps(service.stats(), sort_keys=True))
            else:
                out.append(f"error: unknown command {command!r}")
        except (ValueError, IndexError, KeyError) as error:
            out.append(f"error: {error}")
        except Exception as error:  # ValidationError
            out.append(f"error: {error}")
    return out


def test_golden_repl_transcript(trained_snapshot, capsys, monkeypatch):
    """The codec-backed REPL is bit-identical to the legacy loop."""
    commands = ("predict 0 1\n"
                "top 0 3\n"
                "top 5\n"
                "foldin 0:4.5 1:3.0\n"
                "predict 60 2\n"
                "rate 60 2:4.0\n"
                "top 60 4\n"
                "predict 999 0\n"
                "predict x 1\n"
                "predict 0\n"
                "bogus\n"
                "stats\n"
                "quit\n"
                "top 0 99\n")  # after quit: never served
    expected = _legacy_transcript(
        PredictionService(trained_snapshot), commands)
    monkeypatch.setattr("sys.stdin", io.StringIO(commands))
    assert main(["serve", "--snapshot", str(trained_snapshot)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("serving 60 users x 40 items")
    assert lines[1:] == expected


# ---------------------------------------------------------------------------
# the shared executor
# ---------------------------------------------------------------------------

def test_execute_unknown_kind_and_bad_payload_become_error_frames(
        trained_snapshot):
    service = PredictionService(trained_snapshot)
    reply = execute(service, Frame("hello"))
    assert reply.is_error and "unknown command" in reply.payload["message"]
    reply = execute(service, Frame("top_n", {}))  # missing "user"
    assert reply.is_error
    reply = execute(service, Frame("predict", {"user": 0, "item": "seven"}))
    assert reply.is_error


def test_execute_top_n_batch_orders_and_dedupes(trained_snapshot):
    service = PredictionService(trained_snapshot)
    reply = execute(service, Frame("top_n_batch",
                                   {"users": [3, 1, 3], "n": 4}))
    assert not reply.is_error
    results = reply.payload["results"]
    assert [entry["user"] for entry in results] == [3, 1]
    solo = execute(service, Frame("top_n", {"user": 3, "n": 4}))
    assert _wire_view(results[0]) == _wire_view(solo.payload)
