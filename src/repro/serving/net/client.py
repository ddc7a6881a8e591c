"""Client library for the framed TCP serving protocol.

Two variants over one failover policy:

* :class:`ServingClient` — blocking sockets, for scripts, benchmarks and
  the CLI;
* :class:`AsyncServingClient` — asyncio streams, for event-loop callers.

Both take the :class:`~repro.serving.net.replica.ReplicaSet` address
list and do health-checked round-robin with automatic failover:

* **Transport failures** (refused, reset, timeout, EOF, torn frames) on
  an *idempotent read* (``top_n``, ``top_n_batch``, ``predict``,
  ``predict_batch``, ``stats``, ``health``) retry at most once per
  remaining replica; the failed replica enters a cooldown and is skipped
  until it expires.
* **Mutations** (``rate``, ``foldin``) are retryable too — by default
  every mutation carries a client-unique ``write_id``, and the WAL
  leader (:mod:`repro.serving.wal`) dedups on it, so replaying the
  request onto another replica applies it *exactly once*: the retry of
  an already-committed write gets the original ack back.  Pass
  ``retry_writes=False`` to drop the write_id and restore the old
  at-most-once behaviour (a transport failure mid-mutation then raises
  :class:`NetError` naming the replica, with no failover).
* **Server-side domain errors** (an ``error`` frame: bad user id, worker
  crash message) are definitive answers, not transport failures — they
  raise :class:`NetError` immediately, with no failover.  The one
  exception is an error frame marked ``"retryable": true`` (the server
  refused *without applying*, e.g. a replica whose WAL leader is
  unreachable): those fail over like a transport error.

Two wire-speed features ride on the same connections:

* **Binary array frames** — the hello handshake negotiates the binary
  payload encoding (see :mod:`repro.serving.net.protocol`); when both
  peers advertise it, item-id and score vectors cross the wire as raw
  little-endian buffers instead of JSON decimal text, bit-exact either
  way.  Pass ``binary=False`` to force the JSON fallback.
* **Request pipelining** — :meth:`ServingClient.top_n_pipelined` keeps a
  window of id-tagged requests in flight on one connection instead of
  one round-trip per request; replies are matched by id, so arrival
  order does not matter.  :class:`AsyncServingClient` dispatches *every*
  request by id, which makes concurrent use from many coroutines safe
  and gives :meth:`AsyncServingClient.top_n_pipelined` for free.

Every decoded frame a read produces is queued per connection and
consumed in order — a read that completes two replies can never drop
the second one.

On :class:`AsyncServingClient` one request costs one loop timer: the
round-trip's deadline is a single ``call_later`` handle that fails the
reply future when it fires and is cancelled when the reply lands.  A
request's waits are not wrapped in ``asyncio.wait_for``, which gives
each wait its own waiter future, timer and (for a coroutine) Task.
"""

from __future__ import annotations

import asyncio
import collections
import secrets
import socket
import time
from typing import (Deque, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.core.recommend import Recommendation
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.serving.net.backoff import Backoff
from repro.serving.net.protocol import (
    ENCODINGS,
    ERROR_DEADLINE,
    Frame,
    FrameDecoder,
    IDEMPOTENT_KINDS,
    ProtocolError,
    TRACE_FEATURE,
    encode_frame,
    hello_frame,
    negotiated_encoding,
    negotiated_features,
)

__all__ = ["NetError", "DeadlineError", "ServingClient",
           "AsyncServingClient"]

_READ_CHUNK = 1 << 16


class NetError(RuntimeError):
    """A request could not be served (transport or server-side).

    ``retryable`` is True when the failed request is known *not* to have
    been applied anywhere (an all-replicas-down read, a shed write): the
    caller may safely re-issue it.  It is False for definitive
    server-side answers and for an unreplayable mutation failure.
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = bool(retryable)


class DeadlineError(NetError):
    """The request's ``deadline_ms`` budget expired before it was served.

    Always retryable — expiry happens *before* dispatch (client-side, or
    the server's pre-dispatch gate), so nothing was applied — but never
    failed over automatically: the budget is spent, and replaying the
    request elsewhere with an already-expired deadline could only
    produce more of the same error.  Callers that still care re-issue
    with a fresh budget.
    """

    def __init__(self, message: str):
        super().__init__(message, retryable=True)


class _AddressRing:
    """Round-robin address selection with per-address failure backoff.

    A replica's cooldown grows exponentially with its *consecutive*
    failure count (capped, jittered — see :class:`Backoff`) and resets
    on the first success, so a flapping replica is probed quickly while
    a down one stops eating a connect-timeout from every request cycle.
    """

    def __init__(self, addresses: Sequence[Tuple[str, int]],
                 backoff: Optional[Backoff] = None):
        if not addresses:
            raise ValueError("at least one replica address is required")
        self.addresses = [(str(host), int(port))
                          for host, port in addresses]
        self.backoff = backoff if backoff is not None else Backoff()
        self._next = 0
        self._failures: Dict[int, int] = {}
        self._dead_until: Dict[int, float] = {}

    def candidates(self) -> List[int]:
        """Every index once, healthy first, starting after the last used."""
        order = [(self._next + step) % len(self.addresses)
                 for step in range(len(self.addresses))]
        now = time.monotonic()
        healthy = [index for index in order
                   if self._dead_until.get(index, 0.0) <= now]
        cooling = [index for index in order if index not in healthy]
        # Cooling replicas stay last-resort candidates: with every replica
        # down we would rather retry one than fail without trying.
        return healthy + cooling

    def mark_used(self, index: int) -> None:
        self._next = (index + 1) % len(self.addresses)

    def mark_alive(self, index: int) -> None:
        self._dead_until.pop(index, None)
        self._failures.pop(index, None)

    def mark_dead(self, index: int) -> None:
        failures = self._failures.get(index, 0) + 1
        self._failures[index] = failures
        self._dead_until[index] = (time.monotonic()
                                   + self.backoff.delay(failures))


def _expire(future: asyncio.Future) -> None:
    """A round-trip's deadline timer fired: fail its reply future."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


def _recommendation(payload: Dict[str, object]) -> Recommendation:
    return Recommendation(
        user=int(payload["user"]),
        items=np.asarray(payload["items"], dtype=np.int64),
        scores=np.asarray(payload["scores"], dtype=np.float64))


class _ClientCore:
    """Failover policy and request construction shared by both clients.

    The sync and async variants differ only in their transport
    primitives (connect / roundtrip / drop); every policy decision —
    cooldown bookkeeping, when a mutation may be retried, how errors
    surface — lives here so the two cannot drift apart.
    """

    _ring: _AddressRing
    binary: bool
    retry_writes: bool
    n_failovers: int
    tracer: Optional[Tracer]

    def _init_writes(self, retry_writes: bool) -> None:
        self.retry_writes = bool(retry_writes)
        # write_ids must be unique per *logical* write across every
        # client instance that could retry it: a random prefix plus a
        # local counter, never reused between calls.
        self._write_prefix = secrets.token_hex(8)
        self._write_count = 0
        #: Highest WAL seqno any ack reported — after a write returns,
        #: every replica whose applied seqno reaches this value reflects
        #: it (read-your-writes across the fleet).
        self.last_seqno = 0

    def _new_write_id(self) -> str:
        self._write_count += 1
        return f"{self._write_prefix}-{self._write_count}"

    def _hello(self) -> Frame:
        """The opening frame, offering binary only when we accept it
        (and the ``trace`` feature only when tracing is on)."""
        return hello_frame(
            ENCODINGS if self.binary else ("json",),
            features=(TRACE_FEATURE,) if self.tracer is not None else ())

    def _negotiate(self, reply: Frame) -> bool:
        """Whether this connection speaks binary frames both ways."""
        return self.binary and negotiated_encoding(reply.payload) == "binary"

    def _negotiate_trace(self, reply: Frame) -> bool:
        """Whether trace context may ride this connection's frames.

        Both peers must advertise the feature — an old server ignores
        the client's offer and its reply carries no ``features``, so
        frames to it stay trace-free and it keeps working unchanged.
        """
        return (self.tracer is not None
                and TRACE_FEATURE in negotiated_features(reply.payload))

    # -- tracing helpers ---------------------------------------------------

    def _trace_root(self, frame: Frame) -> Optional[Span]:
        """The root span of one logical request (``client.<kind>``)."""
        if self.tracer is None:
            return None
        return self.tracer.start(f"client.{frame.kind}")

    def _trace_attempt(self, root: Optional[Span], index: int,
                       attempt: int):
        """One failover attempt's child span (``client.attempt``).

        Every attempt of a request shares the root's ``trace_id`` —
        failover produces a *new attempt span in the same trace*, which
        is the invariant the failover tracing test pins.  Returns the
        inert :data:`NULL_SPAN` when tracing is off.
        """
        if root is None:
            return NULL_SPAN
        host, port = self._ring.addresses[index]
        return self.tracer.start("client.attempt", parent=root,
                                 attrs={"replica": f"{host}:{port}",
                                        "attempt": attempt})

    @staticmethod
    def _stamp_trace(frame: Frame, enabled: bool, span) -> None:
        """Stamp (or strip) this attempt's trace context on the frame.

        Per-attempt like ``deadline_ms``: each attempt parents the
        server side on *its own* span.  A connection that did not
        negotiate the feature gets a clean frame, keeping the bytes to
        an old server identical to the pre-trace protocol.
        """
        if enabled and isinstance(span, Span):
            frame.payload["trace"] = span.context().to_wire()
        else:
            frame.payload.pop("trace", None)

    def _finish_root(self, root: Optional[Span], frame: Frame,
                     error: Optional[BaseException]) -> None:
        if root is None:
            return
        frame.payload.pop("trace", None)
        if error is not None:
            root.set_attr("error", repr(error))
        root.finish()

    def _on_connect_failure(self, index: int, error: BaseException,
                            failures: List[str]) -> None:
        """Connect/handshake failed: no byte of the request was sent.

        Always safe to try the next replica — even for mutations
        (a :class:`NetError` here is a handshake refusal).
        """
        self._ring.mark_dead(index)
        failures.append(f"{self._ring.addresses[index]}: {error!r}")

    def _on_roundtrip_failure(self, frame: Frame, index: int,
                              error: BaseException,
                              failures: List[str]) -> None:
        """The request went out and the reply never came back whole.

        Idempotent reads move on to the next replica, and so do
        mutations carrying a ``write_id`` — the WAL leader dedups the
        replay, so a retry of an already-applied write returns the
        original ack instead of double-applying.  Only a mutation
        *without* a write_id (``retry_writes=False``) raises: it may
        already have been applied and nothing could dedup the replay.
        """
        address = self._ring.addresses[index]
        self._ring.mark_dead(index)
        failures.append(f"{address}: {error!r}")
        if frame.kind not in IDEMPOTENT_KINDS \
                and "write_id" not in frame.payload:
            raise NetError(
                f"{frame.kind!r} against {address} failed ({error!r}); "
                "not retried — the request mutates state, may already "
                "have been applied, and carries no write_id to dedup a "
                "replay") from error

    @staticmethod
    def _retryable_error(reply: Frame) -> bool:
        """An ``error`` frame the server marked ``retryable``: it refused
        the request *without applying it* (e.g. a replica whose WAL
        leader is unreachable, or admission control shed it), so failing
        over is always safe."""
        return reply.is_error and bool(reply.payload.get("retryable"))

    def _raise_if_deadline_reply(self, reply: Frame, index: int) -> None:
        """A ``deadline_exceeded`` error ends the request *now*.

        The frame is marked retryable (nothing was applied), but failing
        over would replay an already-spent budget — so unlike other
        retryable errors it surfaces immediately, as
        :class:`DeadlineError`, and the replica (which answered
        promptly and healthily) stays out of cooldown.
        """
        if reply.is_error and reply.payload.get("code") == ERROR_DEADLINE:
            self._ring.mark_alive(index)
            raise DeadlineError(str(reply.payload.get("message")))

    def _on_retryable_error(self, reply: Frame, index: int,
                            failures: List[str]) -> None:
        """The replica answered but declined: leave it out of cooldown
        (it is healthy for reads) and move on to the next one."""
        self._ring.mark_alive(index)
        failures.append(f"{self._ring.addresses[index]}: "
                        f"{reply.payload.get('message')}")

    def _on_reply(self, reply: Frame, index: int,
                  attempt: int) -> Dict[str, object]:
        """A complete reply: a server-side ``error`` frame is definitive
        (no failover); anything else is the answer."""
        self._ring.mark_alive(index)
        self._ring.mark_used(index)
        if attempt > 0:
            self.n_failovers += 1
        if reply.is_error:
            raise NetError(str(reply.payload.get("message")))
        seqno = reply.payload.get("seqno")
        if isinstance(seqno, int):
            self.last_seqno = max(self.last_seqno, seqno)
        return reply.payload

    @staticmethod
    def _every_replica_failed(failures: List[str]) -> NetError:
        # Retryable by construction: any request that exhausts the ring
        # was safe to fail over in the first place (an idempotent read,
        # or a mutation whose write_id dedups a replay) — an unreplayable
        # mutation raised on its first transport failure instead.
        return NetError("every replica failed: " + "; ".join(failures),
                        retryable=True)

    class _DeadlineClock:
        """Per-request budget bookkeeping shared by both clients.

        Created once per logical request; each failover attempt asks for
        the *remaining* budget, which is stamped into that attempt's
        frame as ``deadline_ms`` (and bounds its transport timeout), so
        queue time on a first replica is never granted again on the
        second.
        """

        __slots__ = ("budget_s", "started")

        def __init__(self, deadline_ms: Optional[float]):
            self.budget_s = (None if deadline_ms is None
                             else float(deadline_ms) / 1000.0)
            if self.budget_s is not None and self.budget_s <= 0:
                raise DeadlineError(
                    f"deadline_ms={deadline_ms} leaves no budget")
            self.started = time.monotonic()

        def remaining(self, frame: Frame) -> Optional[float]:
            """Seconds left; stamps the frame and raises when spent."""
            if self.budget_s is None:
                frame.payload.pop("deadline_ms", None)
                return None
            left = self.budget_s - (time.monotonic() - self.started)
            if left <= 0:
                raise DeadlineError(
                    f"{frame.kind!r} spent its "
                    f"{self.budget_s * 1000.0:.0f} ms budget before "
                    "any replica answered")
            frame.payload["deadline_ms"] = round(left * 1000.0, 3)
            return left

        def expired(self) -> bool:
            return (self.budget_s is not None and
                    time.monotonic() - self.started >= self.budget_s)

        def spent(self, frame: Frame, failures: List[str]) -> DeadlineError:
            return DeadlineError(
                f"{frame.kind!r} spent its {self.budget_s * 1000.0:.0f} ms "
                f"budget retrying ({'; '.join(failures[-2:])})")

    @staticmethod
    def _top_n_frame(user, n, exclude_seen) -> Frame:
        return Frame("top_n", {"user": int(user), "n": int(n),
                               "exclude_seen": bool(exclude_seen)})

    @staticmethod
    def _batch_frame(users, n, exclude_seen) -> Frame:
        return Frame("top_n_batch", {
            "users": [int(user) for user in users], "n": int(n),
            "exclude_seen": bool(exclude_seen)})

    @staticmethod
    def _predict_batch_frame(users, items) -> Frame:
        # ndarray payload values work on both encodings: raw blocks on a
        # binary connection, exact JSON lists on a JSON one.
        return Frame("predict_batch", {
            "users": np.ascontiguousarray(
                np.asarray(users, dtype=np.int64).ravel()),
            "items": np.ascontiguousarray(
                np.asarray(items, dtype=np.int64).ravel())})

    def _rating_payload(self, items, values) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "items": [int(item) for item in np.asarray(items).ravel()],
            "values": [float(value)
                       for value in np.asarray(values).ravel()]}
        if self.retry_writes:
            payload["write_id"] = self._new_write_id()
        return payload

    @staticmethod
    def _batch_result(payload) -> Dict[int, Recommendation]:
        return {int(entry["user"]): _recommendation(entry)
                for entry in payload["results"]}

    @staticmethod
    def _pipeline_errors(errors: Dict[int, str], total: int) -> NetError:
        slot = min(errors)
        return NetError(
            f"{len(errors)} of {total} pipelined requests failed; "
            f"first (slot {slot}): {errors[slot]}")


class _SyncConnection:
    """One cached socket plus its decode state and negotiated encoding."""

    __slots__ = ("sock", "decoder", "frames", "binary", "trace")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.frames: Deque[Frame] = collections.deque()
        self.binary = False
        self.trace = False


class ServingClient(_ClientCore):
    """Blocking client over the replica address list (see module docs).

    Connections are cached per replica and re-established on demand; use
    as a context manager or call :meth:`close`.  ``binary=False`` forces
    the JSON payload encoding even against a binary-capable server;
    ``retry_writes=False`` drops the ``write_id`` from mutations and
    with it their failover (back to at-most-once).

    ``cooldown``/``backoff_max`` shape the failure backoff: a replica's
    cooldown starts at ``cooldown`` seconds and doubles per consecutive
    failure up to ``backoff_max`` (with seeded jitter via
    ``backoff_seed`` — chaos drills pin it for replayable timing).
    ``fault_injector`` (a :class:`~repro.serving.chaos.FaultInjector`)
    wraps every connection in a :class:`~repro.serving.chaos.ChaosSocket`
    and drives the ``net.connect``/``net.send``/``net.recv`` fault
    sites; ``None`` (the default) leaves the transport untouched.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) turns on request
    tracing: every request opens a ``client.<kind>`` root span with one
    ``client.attempt`` child per failover attempt, and — against
    servers that negotiated the ``trace`` feature — stamps the attempt's
    context into the frame so the server side joins the same trace.
    """

    def __init__(self, addresses: Sequence[Tuple[str, int]],
                 timeout: float = 10.0, cooldown: float = 1.0,
                 backoff_max: float = 30.0,
                 backoff_seed: Optional[int] = None,
                 binary: bool = True, retry_writes: bool = True,
                 fault_injector=None, tracer: Optional[Tracer] = None):
        self._ring = _AddressRing(addresses, backoff=Backoff(
            base=cooldown, cap=max(float(backoff_max), float(cooldown)),
            seed=backoff_seed))
        self.timeout = float(timeout)
        self.binary = bool(binary)
        self.tracer = tracer
        self._init_writes(retry_writes)
        self._fault_injector = fault_injector
        self._connections: Dict[int, _SyncConnection] = {}
        self.n_failovers = 0

    # -- transport ---------------------------------------------------------

    def _connect(self, index: int) -> _SyncConnection:
        cached = self._connections.get(index)
        if cached is not None:
            return cached
        if self._fault_injector is not None:
            event = self._fault_injector.check("net.connect")
            if event is not None:
                from repro.serving.chaos.shims import InjectedConnectError
                if event.action == "fail":
                    raise InjectedConnectError(
                        f"injected connect failure to "
                        f"{self._ring.addresses[index]}")
                if event.action == "delay":
                    time.sleep(event.arg)
        sock = socket.create_connection(self._ring.addresses[index],
                                        timeout=self.timeout)
        sock.settimeout(self.timeout)
        if self._fault_injector is not None:
            from repro.serving.chaos.shims import ChaosSocket
            sock = ChaosSocket(sock, self._fault_injector)
        connection = _SyncConnection(sock)
        self._connections[index] = connection
        try:
            reply = self._roundtrip(connection, self._hello())
        except BaseException:
            self._drop(index)
            raise
        if reply.is_error:
            self._drop(index)
            raise NetError(
                f"replica {self._ring.addresses[index]} refused the "
                f"handshake: {reply.payload.get('message')}")
        connection.binary = self._negotiate(reply)
        connection.trace = self._negotiate_trace(reply)
        return connection

    def _drop(self, index: int) -> None:
        connection = self._connections.pop(index, None)
        if connection is not None:
            try:
                connection.sock.close()
            except OSError:  # pragma: no cover
                pass

    @staticmethod
    def _next_frame(connection: _SyncConnection) -> Frame:
        """The next reply frame, reading only when the queue is empty.

        One socket read can complete several frames; they are queued on
        the connection and consumed strictly in order, never dropped.
        """
        while not connection.frames:
            data = connection.sock.recv(_READ_CHUNK)
            if not data:
                raise ConnectionError("server closed the connection")
            connection.frames.extend(connection.decoder.feed(data))
        return connection.frames.popleft()

    def _roundtrip(self, connection: _SyncConnection, frame: Frame) -> Frame:
        connection.sock.sendall(encode_frame(frame,
                                             binary=connection.binary))
        return self._next_frame(connection)

    def _request(self, frame: Frame, timeout: Optional[float] = None,
                 deadline_ms: Optional[float] = None) -> Dict[str, object]:
        root = self._trace_root(frame)
        try:
            result = self._request_attempts(frame, timeout, deadline_ms,
                                            root)
        except BaseException as error:
            self._finish_root(root, frame, error)
            raise
        self._finish_root(root, frame, None)
        return result

    def _request_attempts(self, frame: Frame, timeout: Optional[float],
                          deadline_ms: Optional[float],
                          root: Optional[Span]) -> Dict[str, object]:
        clock = self._DeadlineClock(deadline_ms)
        base_timeout = self.timeout if timeout is None else float(timeout)
        failures: List[str] = []
        for attempt, index in enumerate(self._ring.candidates()):
            # Each attempt re-stamps the *remaining* budget (raising
            # DeadlineError once it is spent) and never blocks on the
            # socket longer than that budget.
            remaining = clock.remaining(frame)
            # The attempt span is entered for the attempt's duration:
            # thread-locally active, so client-side chaos fault sites
            # (net.connect/send/recv) annotate it when they fire.
            with self._trace_attempt(root, index, attempt) as span:
                try:
                    connection = self._connect(index)
                except (OSError, ConnectionError, ProtocolError,
                        socket.timeout, NetError) as error:
                    span.annotate("error", repr(error))
                    self._on_connect_failure(index, error, failures)
                    continue
                self._stamp_trace(frame, connection.trace, span)
                connection.sock.settimeout(
                    base_timeout if remaining is None
                    else min(base_timeout, remaining))
                try:
                    reply = self._roundtrip(connection, frame)
                except (OSError, ConnectionError, ProtocolError,
                        socket.timeout) as error:
                    self._drop(index)
                    span.annotate("error", repr(error))
                    self._on_roundtrip_failure(frame, index, error,
                                               failures)
                    continue
                self._raise_if_deadline_reply(reply, index)
                if self._retryable_error(reply):
                    span.annotate("error", reply.payload.get("message"))
                    self._on_retryable_error(reply, index, failures)
                    continue
                return self._on_reply(reply, index, attempt)
        if clock.expired():
            # The last attempt's socket wait was clamped to the budget:
            # running out of replicas *because* the budget ran out is a
            # deadline failure, not a fleet failure.
            raise clock.spent(frame, failures)
        raise self._every_replica_failed(failures)

    # -- pipelining --------------------------------------------------------

    def _pump(self, connection: _SyncConnection, users: List[int], n: int,
              exclude_seen: bool, remaining: Set[int],
              results: List[Optional[Recommendation]],
              errors: Dict[int, str], max_in_flight: int) -> None:
        """Drive the pipelined send window over one connection.

        ``remaining``/``results``/``errors`` are mutated as replies land,
        so a mid-stream transport failure leaves exactly the unanswered
        slots in ``remaining`` for the next replica to retry.
        """
        connection.sock.settimeout(self.timeout)  # undo per-call overrides
        queue: Deque[int] = collections.deque(sorted(remaining))
        outstanding: Set[int] = set()
        while queue or outstanding:
            burst = bytearray()
            while queue and len(outstanding) < max_in_flight:
                slot = queue.popleft()
                burst += encode_frame(Frame("top_n", {
                    "user": users[slot], "n": n,
                    "exclude_seen": exclude_seen, "id": slot}),
                    binary=connection.binary)
                outstanding.add(slot)
            if burst:
                connection.sock.sendall(bytes(burst))
            reply = self._next_frame(connection)
            slot = reply.payload.get("id")
            if not isinstance(slot, int) or slot not in outstanding:
                raise ProtocolError(
                    f"pipelined reply carries unmatched id {slot!r}")
            outstanding.discard(slot)
            remaining.discard(slot)
            if reply.is_error:
                errors[slot] = str(reply.payload.get("message"))
            else:
                results[slot] = _recommendation(reply.payload)

    def top_n_pipelined(self, users: Iterable[int], n: int = 10,
                        exclude_seen: bool = True,
                        max_in_flight: int = 32) -> List[Recommendation]:
        """Many ``top_n`` requests down one connection, a window at a time.

        Keeps up to ``max_in_flight`` id-tagged requests outstanding
        instead of one blocking round-trip per request; returns one
        Recommendation per input user, in input order (duplicates are
        served, not deduplicated).  Transport failures retry the
        *unanswered* slots on the next replica (``top_n`` is idempotent);
        a server-side error frame for any slot raises :class:`NetError`
        after the window drains.
        """
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}")
        user_list = [int(user) for user in users]
        if not user_list:
            return []
        results: List[Optional[Recommendation]] = [None] * len(user_list)
        errors: Dict[int, str] = {}
        remaining: Set[int] = set(range(len(user_list)))
        failures: List[str] = []
        for attempt, index in enumerate(self._ring.candidates()):
            try:
                connection = self._connect(index)
            except (OSError, ConnectionError, ProtocolError,
                    socket.timeout, NetError) as error:
                self._on_connect_failure(index, error, failures)
                continue
            try:
                self._pump(connection, user_list, int(n),
                           bool(exclude_seen), remaining, results, errors,
                           int(max_in_flight))
            except (OSError, ConnectionError, ProtocolError,
                    socket.timeout) as error:
                self._drop(index)
                self._ring.mark_dead(index)
                failures.append(f"{self._ring.addresses[index]}: {error!r}")
                continue
            self._ring.mark_alive(index)
            self._ring.mark_used(index)
            if attempt > 0:
                self.n_failovers += 1
            if errors:
                raise self._pipeline_errors(errors, len(user_list))
            return results
        raise self._every_replica_failed(failures)

    # -- the serving surface ----------------------------------------------

    # Every request method takes per-call ``timeout=`` (socket-level
    # override of the constructor-wide timeout, seconds) and
    # ``deadline_ms=`` (an end-to-end budget stamped into the frame:
    # the server sheds the request instead of serving it late, and the
    # client raises :class:`DeadlineError` once the budget is spent).

    def top_n(self, user: int, n: int = 10, exclude_seen: bool = True,
              timeout: Optional[float] = None,
              deadline_ms: Optional[float] = None) -> Recommendation:
        return _recommendation(self._request(
            self._top_n_frame(user, n, exclude_seen),
            timeout=timeout, deadline_ms=deadline_ms))

    def top_n_batch(self, users: Iterable[int], n: int = 10,
                    exclude_seen: bool = True,
                    timeout: Optional[float] = None,
                    deadline_ms: Optional[float] = None
                    ) -> Dict[int, Recommendation]:
        return self._batch_result(self._request(
            self._batch_frame(users, n, exclude_seen),
            timeout=timeout, deadline_ms=deadline_ms))

    def predict(self, user: int, item: int,
                timeout: Optional[float] = None,
                deadline_ms: Optional[float] = None) -> float:
        payload = self._request(
            Frame("predict", {"user": int(user), "item": int(item)}),
            timeout=timeout, deadline_ms=deadline_ms)
        return float(payload["score"])

    def predict_batch(self, users, items,
                      timeout: Optional[float] = None,
                      deadline_ms: Optional[float] = None) -> np.ndarray:
        payload = self._request(self._predict_batch_frame(users, items),
                                timeout=timeout, deadline_ms=deadline_ms)
        return np.asarray(payload["scores"], dtype=np.float64)

    def fold_in(self, items, values, timeout: Optional[float] = None,
                deadline_ms: Optional[float] = None) -> int:
        return int(self._request(
            Frame("foldin", self._rating_payload(items, values)),
            timeout=timeout, deadline_ms=deadline_ms)["user"])

    def rate(self, user: int, items, values,
             timeout: Optional[float] = None,
             deadline_ms: Optional[float] = None) -> int:
        payload = self._rating_payload(items, values)
        payload["user"] = int(user)
        return int(self._request(Frame("rate", payload), timeout=timeout,
                                 deadline_ms=deadline_ms)["user"])

    def stats(self, timeout: Optional[float] = None,
              deadline_ms: Optional[float] = None) -> Dict[str, object]:
        return self._request(Frame("stats"), timeout=timeout,
                             deadline_ms=deadline_ms)

    def health(self, digest: bool = False,
               timeout: Optional[float] = None,
               deadline_ms: Optional[float] = None) -> Dict[str, object]:
        """The health frame; ``digest=True`` asks the replica for its
        :meth:`~repro.serving.service.PredictionService.state_digest`
        (pin the client to one address to compare replicas)."""
        return self._request(
            Frame("health", {"digest": True} if digest else {}),
            timeout=timeout, deadline_ms=deadline_ms)

    def metrics(self, timeout: Optional[float] = None,
                deadline_ms: Optional[float] = None) -> Dict[str, object]:
        """The replica's unified registry snapshot (dotted names)."""
        return self._request(Frame("metrics"), timeout=timeout,
                             deadline_ms=deadline_ms)["metrics"]

    def spans(self, limit: Optional[int] = None, drain: bool = False,
              timeout: Optional[float] = None,
              deadline_ms: Optional[float] = None) -> Dict[str, object]:
        """The replica's buffered trace spans (``drain=True`` clears).

        Returns ``{"enabled": bool, "spans": [...], "tracer": {...}}``;
        ``enabled`` is False against an untraced server.
        """
        payload: Dict[str, object] = {}
        if limit is not None:
            payload["limit"] = int(limit)
        if drain:
            payload["drain"] = True
        return self._request(Frame("trace", payload), timeout=timeout,
                             deadline_ms=deadline_ms)

    def close(self) -> None:
        for index in list(self._connections):
            self._drop(index)

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _AsyncConnection:
    """One open stream plus the id-keyed reply dispatch state."""

    __slots__ = ("reader", "writer", "decoder", "backlog", "pending",
                 "binary", "trace", "reader_task")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.backlog: List[Frame] = []
        self.pending: Dict[int, asyncio.Future] = {}
        self.binary = False
        self.trace = False
        self.reader_task: Optional[asyncio.Task] = None


class AsyncServingClient(_ClientCore):
    """Asyncio variant of :class:`ServingClient` (same failover policy).

    Every request carries a client-assigned id and a per-connection
    reader task matches replies back to their futures, so any number of
    coroutines can share one client (and one connection) concurrently —
    requests pipeline naturally instead of serializing round-trips.
    """

    def __init__(self, addresses: Sequence[Tuple[str, int]],
                 timeout: float = 10.0, cooldown: float = 1.0,
                 backoff_max: float = 30.0,
                 backoff_seed: Optional[int] = None,
                 binary: bool = True, retry_writes: bool = True,
                 tracer: Optional[Tracer] = None):
        self._ring = _AddressRing(addresses, backoff=Backoff(
            base=cooldown, cap=max(float(backoff_max), float(cooldown)),
            seed=backoff_seed))
        self.timeout = float(timeout)
        self.binary = bool(binary)
        self.tracer = tracer
        self._init_writes(retry_writes)
        self._connections: Dict[int, _AsyncConnection] = {}
        self._next_id = 0
        self.n_failovers = 0

    # -- transport ---------------------------------------------------------

    async def _connect(self, index: int) -> _AsyncConnection:
        cached = self._connections.get(index)
        if cached is not None:
            if cached.reader_task is None or not cached.reader_task.done():
                return cached
            # The reader loop ended (the replica closed the link): nothing
            # would answer a request sent here before the timeout.
            await self._drop(index)
        host, port = self._ring.addresses[index]
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=self.timeout)
        connection = _AsyncConnection(reader, writer)
        self._connections[index] = connection
        try:
            reply = await self._handshake(connection)
        except BaseException:
            await self._drop(index)
            raise
        if reply.is_error:
            await self._drop(index)
            raise NetError(
                f"replica {self._ring.addresses[index]} refused the "
                f"handshake: {reply.payload.get('message')}")
        connection.binary = self._negotiate(reply)
        connection.trace = self._negotiate_trace(reply)
        connection.reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(connection))
        return connection

    async def _handshake(self, connection: _AsyncConnection) -> Frame:
        """Blocking hello exchange, before the reader task exists.

        Frames decoded beyond the hello reply (none today, but the
        protocol allows pipelining behind it) go to the backlog the
        reader task drains first — never dropped.
        """
        connection.writer.write(encode_frame(self._hello()))
        await asyncio.wait_for(connection.writer.drain(),
                               timeout=self.timeout)
        while True:
            data = await asyncio.wait_for(
                connection.reader.read(_READ_CHUNK), timeout=self.timeout)
            if not data:
                raise ConnectionError("server closed the connection")
            frames = connection.decoder.feed(data)
            if frames:
                connection.backlog.extend(frames[1:])
                return frames[0]

    async def _read_loop(self, connection: _AsyncConnection) -> None:
        """Match incoming frames to pending request futures by id."""
        try:
            for frame in connection.backlog:
                self._dispatch(connection, frame)
            connection.backlog.clear()
            while True:
                data = await connection.reader.read(_READ_CHUNK)
                if not data:
                    raise ConnectionError("server closed the connection")
                for frame in connection.decoder.feed(data):
                    self._dispatch(connection, frame)
        except asyncio.CancelledError:
            self._fail_pending(connection,
                               ConnectionError("connection closed"))
            raise
        except (OSError, ConnectionError, ProtocolError) as error:
            self._fail_pending(connection, error)

    @staticmethod
    def _dispatch(connection: _AsyncConnection, frame: Frame) -> None:
        request_id = frame.payload.get("id")
        future = (connection.pending.pop(request_id, None)
                  if isinstance(request_id, int) else None)
        if future is None:
            # A reply we cannot attribute means the stream is desynced;
            # poison every in-flight request rather than misdeliver.
            raise ProtocolError(
                f"reply carries unmatched id {request_id!r}")
        if not future.done():
            future.set_result(frame)

    @staticmethod
    def _fail_pending(connection: _AsyncConnection,
                      error: BaseException) -> None:
        pending, connection.pending = connection.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _drop(self, index: int) -> None:
        connection = self._connections.pop(index, None)
        if connection is None:
            return
        if connection.reader_task is not None:
            connection.reader_task.cancel()
            try:
                await connection.reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        connection.writer.close()
        try:
            await connection.writer.wait_closed()
        except (OSError, ConnectionError):  # pragma: no cover
            pass

    async def _roundtrip(self, connection: _AsyncConnection, frame: Frame,
                         timeout: Optional[float] = None) -> Frame:
        """Send one id-tagged request and await its reply.

        One deadline covers the whole round-trip: a single loop timer
        fails the reply future with :class:`asyncio.TimeoutError` when
        it fires, and is cancelled when the reply lands first.
        ``drain()`` is awaited only while the transport's write buffer
        is non-empty (the socket refused part of the frame), and then
        under the same deadline.
        """
        wait = self.timeout if timeout is None else float(timeout)
        request_id = self._next_id
        self._next_id += 1
        frame.payload["id"] = request_id
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        connection.pending[request_id] = future
        timer = loop.call_later(wait, _expire, future)
        try:
            writer = connection.writer
            writer.write(encode_frame(frame, binary=connection.binary))
            if writer.transport.get_write_buffer_size():
                await asyncio.wait_for(writer.drain(),
                                       timeout=timer.when() - loop.time())
            reply = await future
        except BaseException:
            abandoned = connection.pending.pop(request_id, None)
            if (abandoned is not None and abandoned.done()
                    and not abandoned.cancelled()):
                abandoned.exception()  # mark retrieved
            raise
        finally:
            timer.cancel()
        reply.payload.pop("id", None)
        return reply

    async def _request(self, frame: Frame,
                       timeout: Optional[float] = None,
                       deadline_ms: Optional[float] = None
                       ) -> Dict[str, object]:
        root = self._trace_root(frame)
        try:
            result = await self._request_attempts(frame, timeout,
                                                  deadline_ms, root)
        except BaseException as error:
            self._finish_root(root, frame, error)
            raise
        self._finish_root(root, frame, None)
        return result

    async def _request_attempts(self, frame: Frame,
                                timeout: Optional[float],
                                deadline_ms: Optional[float],
                                root) -> Dict[str, object]:
        clock = self._DeadlineClock(deadline_ms)
        base_timeout = self.timeout if timeout is None else float(timeout)
        failures: List[str] = []
        for attempt, index in enumerate(self._ring.candidates()):
            remaining = clock.remaining(frame)
            effective = (base_timeout if remaining is None
                         else min(base_timeout, remaining))
            # Explicit span management (no thread-local activation):
            # attempt spans on the event loop would leak across
            # interleaved coroutines.
            span = self._trace_attempt(root, index, attempt)
            try:
                connection = await self._connect(index)
            except (OSError, ConnectionError, ProtocolError,
                    asyncio.TimeoutError, NetError) as error:
                span.annotate("error", repr(error))
                span.finish()
                self._on_connect_failure(index, error, failures)
                continue
            self._stamp_trace(frame, connection.trace, span)
            try:
                reply = await self._roundtrip(connection, frame,
                                              timeout=effective)
            except (OSError, ConnectionError, ProtocolError,
                    asyncio.TimeoutError) as error:
                span.annotate("error", repr(error))
                span.finish()
                await self._drop(index)
                self._on_roundtrip_failure(frame, index, error, failures)
                continue
            if reply.is_error:
                span.annotate("error", reply.payload.get("message"))
            span.finish()
            self._raise_if_deadline_reply(reply, index)
            if self._retryable_error(reply):
                self._on_retryable_error(reply, index, failures)
                continue
            return self._on_reply(reply, index, attempt)
        if clock.expired():
            raise clock.spent(frame, failures)
        raise self._every_replica_failed(failures)

    # -- the serving surface ----------------------------------------------

    # As on the sync client, every request method takes per-call
    # ``timeout=``/``deadline_ms=`` overrides.

    async def top_n(self, user: int, n: int = 10,
                    exclude_seen: bool = True,
                    timeout: Optional[float] = None,
                    deadline_ms: Optional[float] = None) -> Recommendation:
        return _recommendation(await self._request(
            self._top_n_frame(user, n, exclude_seen),
            timeout=timeout, deadline_ms=deadline_ms))

    async def top_n_pipelined(self, users: Iterable[int], n: int = 10,
                              exclude_seen: bool = True,
                              max_in_flight: int = 32
                              ) -> List[Recommendation]:
        """Concurrent ``top_n`` for many users over the shared connection.

        The id-dispatched transport pipelines them naturally; the
        semaphore only bounds how many are outstanding at once.  Returns
        one Recommendation per input user, in input order.
        """
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}")
        gate = asyncio.Semaphore(int(max_in_flight))

        async def one(user: int) -> Recommendation:
            async with gate:
                return await self.top_n(user, n=n,
                                        exclude_seen=exclude_seen)

        return list(await asyncio.gather(
            *(one(int(user)) for user in users)))

    async def top_n_batch(self, users: Iterable[int], n: int = 10,
                          exclude_seen: bool = True,
                          timeout: Optional[float] = None,
                          deadline_ms: Optional[float] = None
                          ) -> Dict[int, Recommendation]:
        return self._batch_result(await self._request(
            self._batch_frame(users, n, exclude_seen),
            timeout=timeout, deadline_ms=deadline_ms))

    async def predict(self, user: int, item: int,
                      timeout: Optional[float] = None,
                      deadline_ms: Optional[float] = None) -> float:
        payload = await self._request(
            Frame("predict", {"user": int(user), "item": int(item)}),
            timeout=timeout, deadline_ms=deadline_ms)
        return float(payload["score"])

    async def predict_batch(self, users, items,
                            timeout: Optional[float] = None,
                            deadline_ms: Optional[float] = None
                            ) -> np.ndarray:
        payload = await self._request(
            self._predict_batch_frame(users, items),
            timeout=timeout, deadline_ms=deadline_ms)
        return np.asarray(payload["scores"], dtype=np.float64)

    async def fold_in(self, items, values,
                      timeout: Optional[float] = None,
                      deadline_ms: Optional[float] = None) -> int:
        payload = await self._request(
            Frame("foldin", self._rating_payload(items, values)),
            timeout=timeout, deadline_ms=deadline_ms)
        return int(payload["user"])

    async def rate(self, user: int, items, values,
                   timeout: Optional[float] = None,
                   deadline_ms: Optional[float] = None) -> int:
        payload = self._rating_payload(items, values)
        payload["user"] = int(user)
        return int((await self._request(
            Frame("rate", payload), timeout=timeout,
            deadline_ms=deadline_ms))["user"])

    async def stats(self, timeout: Optional[float] = None,
                    deadline_ms: Optional[float] = None
                    ) -> Dict[str, object]:
        return await self._request(Frame("stats"), timeout=timeout,
                                   deadline_ms=deadline_ms)

    async def health(self, digest: bool = False,
                     timeout: Optional[float] = None,
                     deadline_ms: Optional[float] = None
                     ) -> Dict[str, object]:
        return await self._request(
            Frame("health", {"digest": True} if digest else {}),
            timeout=timeout, deadline_ms=deadline_ms)

    async def metrics(self, timeout: Optional[float] = None,
                      deadline_ms: Optional[float] = None
                      ) -> Dict[str, object]:
        """The replica's unified registry snapshot (dotted names)."""
        payload = await self._request(Frame("metrics"), timeout=timeout,
                                      deadline_ms=deadline_ms)
        return payload["metrics"]

    async def spans(self, limit: Optional[int] = None,
                    drain: bool = False,
                    timeout: Optional[float] = None,
                    deadline_ms: Optional[float] = None
                    ) -> Dict[str, object]:
        """The replica's buffered trace spans (``drain=True`` clears)."""
        payload: Dict[str, object] = {}
        if limit is not None:
            payload["limit"] = int(limit)
        if drain:
            payload["drain"] = True
        return await self._request(Frame("trace", payload),
                                   timeout=timeout,
                                   deadline_ms=deadline_ms)

    async def close(self) -> None:
        for index in list(self._connections):
            await self._drop(index)

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
