"""Versioned, length-prefixed frame protocol for the serving frontend.

One codec, two transports: every message that crosses the TCP socket
(:mod:`repro.serving.net.server`) and every command line the stdin REPL
reads (``python -m repro.serving serve``) goes through the functions in
this module, so there is exactly one parser and one executor for the
serving command set.

Wire format (all integers big-endian)::

    +-------+---------+------+----------------+-----------------+
    | magic | version | kind | payload length | payload         |
    | 4 B   | 1 B     | 1 B  | 4 B            | length bytes    |
    +-------+---------+------+----------------+-----------------+

There is one payload form, the binary array payload, and the kind byte
says so with its high bit (``code | 0x80``)::

    u32 json_length | JSON part | array block ...
    array block := u8 dtype | u8 ndim | u32 dim[ndim] | raw C-order bytes

Every :class:`numpy.ndarray` in the payload (at any nesting depth) is
replaced in the JSON part by the marker mapping ``{"__nd__": i}`` and
shipped as the ``i``-th raw little-endian array block: item ids, score
vectors, factor blocks and logged ratings cross the wire as straight
``memcpy``s of their float64/int64 buffers, bit-exact by construction.
Everything else rides in the UTF-8 JSON part (msgpack-free, so any
language with ``struct`` and JSON can speak it; Python's JSON
round-trips IEEE doubles exactly).  Serving clients and servers, the WAL
coordinators' links, the MPI ranks (hellos included) and the WAL segment
records (:mod:`repro.serving.wal.log`) all use it; a kind byte without
the flag is an unknown kind.

``Frame`` is also the in-process request/response object: the REPL's
:func:`parse_line` produces request frames, :func:`execute` runs a frame
against a gateway (:class:`~repro.serving.service.PredictionService` or
:class:`~repro.serving.cluster.ShardedScorer`) and returns a response
frame, and :func:`format_reply` renders a response back into the
REPL line format (pinned bit-identical by a golden transcript test).

A connection starts with a ``hello`` handshake carrying the protocol
version and nothing else: there is one version and no optional
capability to negotiate.  Servers refuse a mismatched version with an
explicit ``error`` frame before closing, so other versions fail loudly
instead of misparsing.

**Per-frame cost.**  Every served request crosses this codec four times
(request and reply, each encoded once and decoded once), so the
encoder does no work per frame that depends only on the frame's kind or
an array's dtype: one module-level :class:`json.JSONEncoder` (the exact
arguments the wire has always used, so the bytes are unchanged), and
precomputed kind-code, dtype and dimension tables.  No payload is
walked in Python where no array needs a marker (see :func:`_json_part`;
the decoder restores only frames that carry arrays).  The decoder is the
trust boundary: any byte string either decodes or raises
:class:`ProtocolError` — array element counts are exact Python integers
checked against the body, and JSON that is too deep or has an
over-long integer is refused like any other malformed payload.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "PROTOCOL_VERSION", "MAX_PAYLOAD", "ProtocolError", "Frame",
    "encode_frame", "FrameDecoder", "parse_line", "execute", "format_reply",
    "hello_frame", "check_hello", "MUTATION_KINDS",
    "ERROR_DEADLINE", "ERROR_OVERLOADED", "error_frame",
]

#: Bump on any wire-visible change; the handshake refuses mismatches.
PROTOCOL_VERSION = 4

#: Frames advertising a larger payload are rejected before buffering.
MAX_PAYLOAD = 16 * 1024 * 1024

_MAGIC = b"RPRO"
_HEADER = struct.Struct(">4sBBI")

#: High bit of the kind byte: the binary array payload.
_BINARY_FLAG = 0x80

#: kind name -> wire code (the binary flag included).  Requests sit
#: below 16, responses above.
_KIND_CODES = {kind: code | _BINARY_FLAG for kind, code in {
    "hello": 1,
    "top_n": 2,
    "top_n_batch": 3,
    "predict": 4,
    "rate": 5,
    "foldin": 6,
    "stats": 7,
    "health": 8,
    "predict_batch": 9,
    "wal_append": 10,
    "wal_catchup": 11,
    "metrics": 12,
    "trace": 13,
    # MPI transport kinds (repro.mpi.net): the rank rendezvous/mesh
    # handshake and the tagged messages (collectives and the goodbye on
    # reserved tags) reuse this codec — factor blocks cross the wire as
    # the same bit-exact binary array payloads the serving frontend ships.
    "mpi_hello": 14,
    "mpi_msg": 15,
    "ok": 16,
    "error": 17,
}.items()}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

#: Request kinds that mutate gateway state.  When a server has a WAL
#: coordinator attached these are routed through it (commit on the
#: leader, forward on a follower) instead of the plain executor.
MUTATION_KINDS = frozenset({"rate", "foldin"})

#: Array dtypes the binary payload can carry (code <-> wire dtype).
#: Explicit little-endian tags: raw bytes mean the same thing on every
#: architecture, and ``astype`` is zero-copy on little-endian hosts.
_DTYPE_CODES = {"<f8": 0, "<i8": 1, "<f4": 2, "<i4": 3}
_CODE_DTYPES = {code: np.dtype(tag) for tag, code in _DTYPE_CODES.items()}
#: An outgoing array's dtype (either byte order) -> (wire code,
#: little-endian wire dtype).
_WIRE_DTYPES = {dtype.newbyteorder(order): (code, dtype)
                for code, dtype in _CODE_DTYPES.items() for order in "<>"}
_ARRAY_HEADER = struct.Struct(">BB")
#: The ``u32 dim[ndim]`` block of an array header, per ndim (a u8).
_DIMS = tuple(struct.Struct(f">{ndim}I") for ndim in range(256))
_JSON_LENGTH = struct.Struct(">I")
_ARRAY_MARKER = "__nd__"


class ProtocolError(ValueError):
    """A frame or command line that violates the protocol."""


#: Machine-readable ``error`` frame codes for the overload defenses.
#: ``deadline_exceeded``: the request's ``deadline_ms`` budget ran out
#: before dispatch — the work was *not* done (retryable with a fresh
#: deadline, but pointless to replay with the spent one, which is why
#: the clients surface it as :class:`~repro.serving.net.client.
#: DeadlineError` instead of failing over).  ``overloaded``: admission
#: control shed the request before any state changed — always safe to
#: retry on another replica, and the clients do.
ERROR_DEADLINE = "deadline_exceeded"
ERROR_OVERLOADED = "overloaded"


def error_frame(message: str, code: Optional[str] = None,
                retryable: bool = False) -> Frame:
    """Build an ``error`` frame, optionally coded and marked retryable.

    ``retryable`` is the server's promise that the request was refused
    *without being applied*; clients fail such errors over to another
    replica (mutations included).  ``code`` gives defenses a
    machine-readable identity (see :data:`ERROR_DEADLINE` /
    :data:`ERROR_OVERLOADED`) on top of the human-readable message.
    """
    payload: Dict[str, object] = {"message": str(message)}
    if code is not None:
        payload["code"] = str(code)
    if retryable:
        payload["retryable"] = True
    return Frame("error", payload)


@dataclass
class Frame:
    """One protocol message: a kind tag plus a payload dict (JSON values
    and ndarrays)."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)
    version: int = PROTOCOL_VERSION

    @property
    def is_error(self) -> bool:
        return self.kind == "error"


class _ArrayFound(Exception):
    """A nested ndarray: :func:`_json_part` takes the walk."""


def _json_default(value):
    """JSON fallback for numpy scalars in payloads (exact conversions)."""
    if isinstance(value, np.ndarray):
        raise _ArrayFound
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(
        f"payload value of type {type(value).__name__} is not JSON-able")


#: The one JSON encoder of the wire: exactly what ``json.dumps(payload,
#: separators=(",", ":"), sort_keys=True, default=_json_default)`` builds
#: afresh per call.  ``encode`` keeps no state between calls, so every
#: thread shares it.
_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                         default=_json_default)

#: JSON leaf types the array walks pass through without a call.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _extract_arrays(value, arrays: List[np.ndarray]):
    """Replace every ndarray in ``value`` by a ``{"__nd__": i}`` marker.

    Returns the substituted structure; the arrays land in ``arrays`` in
    marker order.  Raises on payloads that already contain the reserved
    marker key (they would be indistinguishable after a round-trip).
    """
    if isinstance(value, np.ndarray):
        index = len(arrays)
        arrays.append(value)
        return {_ARRAY_MARKER: index}
    if isinstance(value, dict):
        if _ARRAY_MARKER in value:
            raise ProtocolError(
                f"payload objects must not use the reserved key "
                f"{_ARRAY_MARKER!r}")
        return {key: item if type(item) in _SCALARS
                else _extract_arrays(item, arrays)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SCALARS
                else _extract_arrays(item, arrays) for item in value]
    return value


def _bad_reference(index, arrays: List[np.ndarray]) -> ProtocolError:
    return ProtocolError(f"binary payload references array {index!r}, "
                         f"frame carries {len(arrays)}")


def _restore_arrays(value, arrays: List[np.ndarray]):
    """Inverse of :func:`_extract_arrays` on a decoded JSON structure."""
    if isinstance(value, dict):
        if len(value) == 1 and _ARRAY_MARKER in value:
            index = value[_ARRAY_MARKER]
            if not isinstance(index, int) or not 0 <= index < len(arrays):
                raise _bad_reference(index, arrays)
            return arrays[index]
        return {key: item if type(item) in _SCALARS
                else _restore_arrays(item, arrays)
                for key, item in value.items()}
    if isinstance(value, list):
        return [item if type(item) in _SCALARS
                else _restore_arrays(item, arrays) for item in value]
    return value


def _json_part(payload: Dict[str, object], arrays: List[np.ndarray]) -> str:
    """``_JSON.encode(_extract_arrays(payload, arrays))``, byte for byte,
    walking only what may hold an ndarray: one loop over the top level
    (a list holding more than JSON scalars is walked: an MPI block, a
    WAL shipment's records, batch results), then the C encoder, which
    falls back to the walk at a deeper ndarray or a reserved key."""
    substituted = {}
    for key, value in payload.items():
        kind = type(value)
        if kind is np.ndarray:
            arrays.append(value)
            value = {_ARRAY_MARKER: len(arrays) - 1}
        elif kind in (list, tuple) \
                and not _SCALARS.issuperset(map(type, value)):
            value = _extract_arrays(value, arrays)
        substituted[key] = value
    try:
        json_part = _JSON.encode(substituted)
        if json_part.count('"__nd__":') == len(arrays):
            return json_part
    except _ArrayFound:
        pass
    del arrays[:]
    return _JSON.encode(_extract_arrays(payload, arrays))


def _encode_binary_payload(payload: Dict[str, object]) -> bytes:
    """The binary array payload: JSON part + raw array blocks."""
    arrays: List[np.ndarray] = []
    json_part = _json_part(payload, arrays).encode("utf8")
    blocks = [_JSON_LENGTH.pack(len(json_part)), json_part]
    for array in arrays:
        wire = _WIRE_DTYPES.get(array.dtype)
        if wire is None:
            raise ProtocolError(
                f"array dtype {array.dtype} has no binary wire form")
        if array.ndim > 255:
            raise ProtocolError(f"{array.ndim}-dimensional array payload")
        code, dtype = wire
        # ascontiguousarray makes a 0-d array 1-d: shipped as shape (1,).
        array = np.ascontiguousarray(array).astype(dtype, copy=False)
        blocks.append(_ARRAY_HEADER.pack(code, array.ndim))
        blocks.append(_DIMS[array.ndim].pack(*array.shape))
        blocks.append(array.tobytes())
    return b"".join(blocks)


def _decode_binary_payload(body: bytes) -> Dict[str, object]:
    """Parse the binary array payload back into a payload dict."""
    try:
        (json_length,) = _JSON_LENGTH.unpack_from(body)
        cursor = _JSON_LENGTH.size + json_length
        if cursor > len(body):
            raise ProtocolError("binary payload truncates its JSON part")
        json_part = body[_JSON_LENGTH.size:cursor]
        substituted = json.loads(json_part.decode("utf8"))
        arrays: List[np.ndarray] = []
        while cursor < len(body):
            code, ndim = _ARRAY_HEADER.unpack_from(body, cursor)
            cursor += _ARRAY_HEADER.size
            dtype = _CODE_DTYPES.get(code)
            if dtype is None:
                raise ProtocolError(f"unknown array dtype code {code}")
            dims = _DIMS[ndim]
            shape = dims.unpack_from(body, cursor)
            cursor += dims.size
            # Exact: a fixed-width product of u32 dims can wrap negative
            # and slip past the bounds check below.
            count = math.prod(shape)
            end = cursor + count * dtype.itemsize
            if end > len(body):
                raise ProtocolError("binary payload truncates an array")
            # frombuffer is zero-copy; the view is read-only, which is
            # exactly right for decoded request/response vectors.
            arrays.append(np.frombuffer(body, dtype=dtype, count=count,
                                        offset=cursor).reshape(shape))
            cursor = end
        if not isinstance(substituted, dict):
            raise ProtocolError(
                f"frame payload must be a JSON object, got "
                f"{type(substituted).__name__}")
        # No array, and no marker to refuse (spelled out or escaped):
        # nothing to restore.  Otherwise the top level is restored in one
        # loop (the inverse of _json_part's) and only nested values walk.
        if arrays or b'"__nd__"' in json_part or b"\\u" in json_part:
            if len(substituted) == 1 and _ARRAY_MARKER in substituted:
                raise ProtocolError(
                    "frame payload must be a JSON object, got an array "
                    "reference")
            for key, value in substituted.items():
                kind = type(value)
                if kind is dict and len(value) == 1 \
                        and _ARRAY_MARKER in value:
                    index = value[_ARRAY_MARKER]
                    if not isinstance(index, int) \
                            or not 0 <= index < len(arrays):
                        raise _bad_reference(index, arrays)
                    substituted[key] = arrays[index]
                elif kind not in _SCALARS:
                    substituted[key] = _restore_arrays(value, arrays)
        return substituted
    except ProtocolError:
        raise
    except (struct.error, ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON, an over-long integer
        # literal and a shape numpy cannot hold; RecursionError, JSON
        # nested deeper than the interpreter stack.
        raise ProtocolError(f"malformed binary payload: {error}") from error


def encode_frame(frame: Frame, binary: bool = True) -> bytes:
    """Serialize one frame to wire bytes, in the binary array payload.

    ``binary=True`` is the only value: the keyword stays because
    perfbench's ``serve_mixed`` codec replay passes it by name.
    """
    if binary is not True:
        raise ValueError(
            f"binary={binary!r}: the binary array payload is the only form")
    code = _KIND_CODES.get(frame.kind)
    if code is None:
        raise ProtocolError(f"unknown frame kind {frame.kind!r}")
    body = _encode_binary_payload(frame.payload)
    if len(body) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(body)} bytes exceeds the {MAX_PAYLOAD}-byte "
            "frame limit")
    return _HEADER.pack(_MAGIC, frame.version, code, len(body)) + body


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    Feed it whatever chunks the transport delivers; complete frames come
    out, partial ones wait in the buffer.  Garbage (bad magic, unknown
    kind, oversized or malformed payload) raises :class:`ProtocolError`
    immediately — a framing error is unrecoverable mid-stream, so callers
    drop the connection.
    """

    def __init__(self):
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every frame it completes."""
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[Frame]:
        if len(self._buffer) < _HEADER.size:
            return None
        magic, version, code, length = _HEADER.unpack_from(self._buffer)
        if magic != _MAGIC:
            raise ProtocolError(
                f"bad frame magic {bytes(magic)!r} (expected {_MAGIC!r})")
        if length > MAX_PAYLOAD:
            raise ProtocolError(
                f"frame advertises a {length}-byte payload, over the "
                f"{MAX_PAYLOAD}-byte limit")
        kind = _CODE_KINDS.get(code)
        if kind is None:
            raise ProtocolError(f"unknown frame kind code {code}")
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_HEADER.size:end])
        del self._buffer[:end]
        return Frame(kind=kind, payload=_decode_binary_payload(body),
                     version=version)


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

def hello_frame() -> Frame:
    """The client's opening frame: the protocol version it speaks."""
    return Frame("hello", {"version": PROTOCOL_VERSION})


def check_hello(frame: Frame) -> Optional[Frame]:
    """Validate a client's opening frame; an ``error`` frame on refusal.

    Returns ``None`` when the handshake is acceptable.  The version in
    the *payload* is authoritative (the header byte travels with every
    frame; the payload states what the client actually speaks).
    """
    if frame.kind != "hello":
        return Frame("error", {
            "message": f"expected a hello handshake, got {frame.kind!r}"})
    version = frame.payload.get("version")
    if version != PROTOCOL_VERSION:
        return Frame("error", {
            "message": f"protocol version {version!r} is not supported "
                       f"(server speaks {PROTOCOL_VERSION})",
            "server_version": PROTOCOL_VERSION})
    return None


# ---------------------------------------------------------------------------
# the line protocol (stdin REPL) in terms of the same frames
# ---------------------------------------------------------------------------

def parse_line(line: str) -> Optional[Frame]:
    """Parse one REPL command line into a request frame.

    Returns ``None`` for a blank line and a ``quit``-kind sentinel frame
    (not a wire kind) for ``quit``.  Raises exactly what the historical
    ad-hoc parser raised — ``ValueError`` from ``int()``/``float()``,
    ``IndexError`` for missing arguments, :class:`ProtocolError` for an
    unknown command — so the REPL's error lines stay bit-identical.
    """
    parts = line.split()
    if not parts:
        return None
    command, rest = parts[0], parts[1:]
    if command == "quit":
        return Frame("quit")
    if command == "predict":
        return Frame("predict", {"user": int(rest[0]), "item": int(rest[1])})
    if command == "top":
        return Frame("top_n", {
            "user": int(rest[0]),
            "n": int(rest[1]) if len(rest) > 1 else 10,
        })
    if command == "foldin":
        return Frame("foldin", {
            "items": [int(token.partition(":")[0]) for token in rest],
            "values": [float(token.partition(":")[2]) for token in rest],
        })
    if command == "rate":
        return Frame("rate", {
            "user": int(rest[0]),
            "items": [int(token.partition(":")[0]) for token in rest[1:]],
            "values": [float(token.partition(":")[2]) for token in rest[1:]],
        })
    if command == "stats":
        return Frame("stats")
    if command == "health":
        return Frame("health")
    raise ProtocolError(f"unknown command {command!r}")


def format_reply(request: Frame, response: Frame) -> str:
    """Render a response frame as the REPL output line."""
    if response.is_error:
        return f"error: {response.payload['message']}"
    payload = response.payload
    if request.kind == "predict":
        return f"{payload['score']:.4f}"
    if request.kind == "top_n":
        return " ".join(f"{item}:{score:.4f}" for item, score
                        in zip(payload["items"], payload["scores"]))
    if request.kind == "foldin":
        return f"user {payload['user']}"
    if request.kind == "rate":
        return f"user {payload['user']} updated"
    if request.kind in ("stats", "health"):
        return json.dumps(payload, sort_keys=True)
    raise ProtocolError(f"no line rendering for {request.kind!r} replies")


# ---------------------------------------------------------------------------
# the shared executor
# ---------------------------------------------------------------------------

def recommendation_payload(recommendation,
                           arrays: bool = True) -> Dict[str, object]:
    """One recommendation as a payload dict.

    The item-id and score vectors stay the gateway's own int64/float64
    buffers, which the frame encoder memcpys straight onto the wire.
    ``arrays=True`` is the only value: the keyword stays because
    perfbench's ``serve_mixed`` codec replay passes it by name.
    """
    if arrays is not True:
        raise ValueError(
            f"arrays={arrays!r}: recommendation payloads are arrays")
    return {"user": int(recommendation.user),
            "items": np.ascontiguousarray(recommendation.items,
                                          dtype=np.int64),
            "scores": np.ascontiguousarray(recommendation.scores,
                                           dtype=np.float64)}


def execute(service, request: Frame, extra_health=None) -> Frame:
    """Run one request frame against a gateway; returns the response frame.

    ``service`` is anything with the :class:`PredictionService` serving
    surface (the sharded gateway included).  Domain failures — bad
    indices, crashed workers, malformed arguments — come back as
    ``error`` frames; only programming errors propagate.  ``extra_health``
    optionally supplies server-side blocks merged into ``health``
    replies (the TCP server passes its ``server``/``fusion``/``wal``
    counters).  Score and item vectors come back as ndarray response
    buffers (see :func:`recommendation_payload`).
    """
    from repro.serving.cluster import ClusterError
    from repro.utils.validation import ValidationError

    kind, payload = request.kind, request.payload
    try:
        if kind == "top_n":
            recommendation = service.top_n(
                int(payload["user"]), n=int(payload.get("n", 10)),
                exclude_seen=bool(payload.get("exclude_seen", True)))
            return Frame("ok", recommendation_payload(recommendation))
        if kind == "top_n_batch":
            results = service.top_n_batch(
                [int(user) for user in payload["users"]],
                n=int(payload.get("n", 10)),
                exclude_seen=bool(payload.get("exclude_seen", True)))
            return Frame("ok", {"results": [
                recommendation_payload(results[int(user)])
                for user in dict.fromkeys(
                    int(user) for user in payload["users"])]})
        if kind == "predict":
            score = service.predict(int(payload["user"]),
                                    int(payload["item"]))
            return Frame("ok", {"score": float(score)})
        if kind == "predict_batch":
            scores = service.predict_batch(
                np.asarray(payload["users"], dtype=np.int64),
                np.asarray(payload["items"], dtype=np.int64))
            return Frame("ok", {"scores": np.ascontiguousarray(
                scores, dtype=np.float64)})
        if kind == "foldin":
            user = service.fold_in(
                np.asarray(payload["items"], dtype=np.int64),
                np.asarray(payload["values"], dtype=np.float64))
            return Frame("ok", {"user": int(user)})
        if kind == "rate":
            service.add_ratings(
                int(payload["user"]),
                np.asarray(payload["items"], dtype=np.int64),
                np.asarray(payload["values"], dtype=np.float64))
            return Frame("ok", {"user": int(payload["user"])})
        if kind == "stats":
            return Frame("ok", dict(service.stats()))
        if kind == "health":
            body = {
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "n_users": int(service.n_users),
                "n_items": int(service.n_items),
                "stats": dict(service.stats()),
            }
            if payload.get("digest") and hasattr(service, "state_digest"):
                # Opt-in (it hashes every factor row): the fleet
                # convergence check — two replicas with equal digests
                # hold bit-identical mutable state.
                body["digest"] = str(service.state_digest())
            if extra_health is not None:
                body.update(extra_health())
            return Frame("ok", body)
        return Frame("error", {"message": f"unknown command {kind!r}"})
    except (ValidationError, ClusterError, IndexError, ValueError,
            KeyError, TypeError) as error:
        # ClusterError included: a crashed worker must not kill the
        # serving session — the gateway respawns its pool on the next
        # command.  KeyError/TypeError cover missing or mistyped payload
        # fields from remote clients.
        return Frame("error", {"message": str(error)})
