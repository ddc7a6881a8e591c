"""Client library for the framed TCP serving protocol.

One implementation, two ways to call it: :class:`AsyncServingClient`,
and :class:`ServingClient`, a blocking facade for scripts, drills and
the CLI that runs each call to completion on a private event loop, on
the caller's thread (``loop.run_until_complete``, no extra thread).

A connection is one :class:`asyncio.Protocol` per replica (module
:func:`dial`).  Every request is id-tagged; ``data_received`` matches
each decoded reply to its request by id, so any number of coroutines
share the connection, replies may arrive in any order, and
``top_n_pipelined`` keeps up to ``max_in_flight`` requests outstanding,
each failing over on its own.
A request is written at once; its wait costs one loop timer, which
fails the reply future when it fires (no ``asyncio.wait_for``, no
task).  On a live cached connection an untraced request without a
deadline is one coroutine around that round-trip; the failover loop
runs only without one, or after the round-trip failed.

Both clients take the :class:`~repro.serving.net.replica.ReplicaSet`
address list and do health-checked round-robin with automatic failover:

* **Transport failures** (refused, reset, timeout, EOF, torn frames) on
  an *idempotent read* retry at most once per remaining replica; the
  failed replica cools down (exponential, jittered) and is skipped
  until it expires.
* **Mutations** (``rate``, ``foldin``) carry a client-unique
  ``write_id``, which the WAL leader (:mod:`repro.serving.wal`)
  dedups, so a replay onto another replica applies *exactly once*.
* **Error frames** are definitive answers and raise :class:`NetError`
  at once — unless marked ``"retryable": true`` (refused *without
  applying*: shed, or cut off from the WAL leader), which fail over.

Every wait of an attempt — dial, hello, reply — is bounded by
``min(timeout, what is left of deadline_ms)``.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import secrets
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.recommend import Recommendation
from repro.obs.trace import NULL_SPAN, Span, Tracer, activated
from repro.serving.net.backoff import Backoff
from repro.serving.net.protocol import (
    ERROR_DEADLINE,
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    hello_frame,
)

__all__ = ["NetError", "DeadlineError", "ServingClient",
           "AsyncServingClient"]

#: What a failed transport raises: the attempt fails over (or, for an
#: unreplayable mutation, surfaces).
_TRANSPORT_ERRORS = (OSError, ConnectionError, ProtocolError,
                     asyncio.TimeoutError)


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

    def turn(self) -> Optional[int]:
        """The replica whose turn it is, unless a failure marks it."""
        index = self._next
        return None if index in self._dead_until else index

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


class _Deadline:
    """One logical request's ``deadline_ms`` budget, across its attempts.

    Every wait of every failover attempt asks :meth:`wait` for its
    bound, which stamps the *remaining* budget into the frame as
    ``deadline_ms`` — so queue time on a first replica is never granted
    again on the second.
    """

    __slots__ = ("budget_s", "started")

    def __init__(self, deadline_ms: Optional[float]):
        self.budget_s = (None if deadline_ms is None
                         else float(deadline_ms) / 1000.0)
        if self.budget_s is not None and self.budget_s <= 0:
            raise DeadlineError(
                f"deadline_ms={deadline_ms} leaves no budget")
        self.started = time.monotonic()

    def wait(self, frame: Frame, timeout: float) -> float:
        """``min(timeout, seconds left)``; stamps the frame, raises once
        the budget is spent."""
        if self.budget_s is None:
            return timeout
        left = self.budget_s - (time.monotonic() - self.started)
        if left <= 0:
            raise DeadlineError(
                f"{frame.kind!r} spent its {self.budget_s * 1000.0:.0f} ms "
                "budget before any replica answered")
        frame.payload["deadline_ms"] = round(left * 1000.0, 3)
        return min(timeout, left)

    def expired(self) -> bool:
        return (self.budget_s is not None and
                time.monotonic() - self.started >= self.budget_s)

    def spent(self, frame: Frame, failures: List[str]) -> DeadlineError:
        return DeadlineError(
            f"{frame.kind!r} spent its {self.budget_s * 1000.0:.0f} ms "
            f"budget retrying ({'; '.join(failures[-2:])})")


def _expire(future: asyncio.Future) -> None:
    """A round-trip's deadline timer fired: fail its reply future."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


def _recommendation(payload: Dict[str, object]) -> Recommendation:
    return Recommendation(
        user=int(payload["user"]),
        items=np.asarray(payload["items"], dtype=np.int64),
        scores=np.asarray(payload["scores"], dtype=np.float64))


class _AsyncConnection(asyncio.Protocol):
    """One open connection, and its id-keyed reply dispatch.

    ``pending`` maps request ids to reply futures (the hello reply, the
    one frame without an id, resolves the ``None`` entry), and
    ``data_received`` resolves them as frames decode.  The serving
    client and the WAL coordinators' links (:mod:`repro.serving.wal.
    shipper`) both speak through :meth:`roundtrip`.
    """

    __slots__ = ("transport", "decoder", "pending", "next_id", "alive",
                 "lost")

    def __init__(self):
        self.transport = self.lost = None  # lost: resolved once it is gone
        self.decoder = FrameDecoder()
        self.pending: Dict[Optional[int], asyncio.Future] = {}
        self.next_id = 0
        self.alive = True  # until the transport is gone

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.lost = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self.decoder.feed(data):
                request_id = frame.payload.get("id")
                future = (self.pending.pop(request_id, None)
                          if request_id is None
                          or isinstance(request_id, int) else None)
                if future is None:
                    # A reply we cannot attribute means the stream is
                    # desynced; poison every in-flight request rather
                    # than misdeliver.
                    raise ProtocolError(
                        f"reply carries unmatched id {request_id!r}")
                if not future.done():
                    future.set_result(frame)
        except ProtocolError as error:
            self._break(error)

    def connection_lost(self, exc) -> None:
        self.alive = False
        self._fail_pending(
            exc or ConnectionError("server closed the connection"))
        self.lost.set_result(None)

    def send(self, data: bytes, span) -> None:
        self.transport.write(data)

    async def roundtrip(self, frame: Frame, timeout: float,
                        span=NULL_SPAN) -> Frame:
        """Send one id-tagged request and await its reply.

        The request is written at once (no ``drain()``), and one
        deadline covers the whole round-trip: a single loop timer fails
        the reply future with :class:`asyncio.TimeoutError` when it
        fires, and is cancelled when the reply lands first.
        """
        if not self.alive:
            raise ConnectionError("connection closed")
        request_id = self.next_id
        self.next_id += 1
        frame.payload["id"] = request_id
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.pending[request_id] = future
        timer = loop.call_later(timeout, _expire, future)
        try:
            self.send(encode_frame(frame), span)
            reply = await future
        except BaseException:
            abandoned = self.pending.pop(request_id, None)
            if (abandoned is not None and abandoned.done()
                    and not abandoned.cancelled()):
                abandoned.exception()  # mark retrieved
            raise
        finally:
            timer.cancel()
        reply.payload.pop("id", None)
        return reply

    def _fail_pending(self, error: BaseException) -> None:
        pending, self.pending = self.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    def _break(self, error: BaseException) -> None:
        """The link is unusable: fail every request on it, drop it."""
        self.alive = False
        self._fail_pending(error)
        self.transport.abort()

    async def close(self) -> None:
        """Fail what is pending, drop the transport, wait until it is
        gone (an unanswered request needs no flush)."""
        self._break(ConnectionError("connection closed"))
        await self.lost


async def dial(host: str, port: int, fault_injector=None,
               span=NULL_SPAN) -> _AsyncConnection:
    """Open one connection and complete its hello (a refusal raises
    :class:`NetError`); with a fault injector, a :class:`_ChaosConnection`."""
    loop = asyncio.get_running_loop()
    if fault_injector is None:
        protocol = _AsyncConnection
    else:
        from repro.serving.chaos.shims import ChaosShim, chaos_connect
        await chaos_connect(host, port, fault_injector, span)
        protocol = functools.partial(_ChaosConnection,
                                     ChaosShim(fault_injector))
    _, connection = await loop.create_connection(protocol, host, port)
    hello = connection.pending[None] = loop.create_future()
    try:
        connection.send(encode_frame(hello_frame()), span)
        reply = await hello
        if reply.is_error:
            raise NetError(
                f"replica {(host, port)} refused the handshake: "
                f"{reply.payload.get('message')}")
        if not connection.alive:
            raise ConnectionError("connection closed after the hello")
    except BaseException:
        await connection.close()
        raise
    return connection


class _ChaosConnection(_AsyncConnection):
    """Sends and received chunks pass a :class:`~repro.serving.chaos.
    shims.ChaosShim`; a fired ``net.send`` fault annotates the attempt."""

    __slots__ = ("shim",)

    def __init__(self, shim):
        super().__init__()
        self.shim = shim

    def send(self, data: bytes, span) -> None:
        with activated(span):
            self.shim.send(self.transport, data)

    def data_received(self, data: bytes) -> None:
        try:
            self.shim.receive(self.transport, data, super().data_received)
        except ConnectionError as error:  # an injected reset
            self._break(error)


class AsyncServingClient:
    """The serving client over the replica address list (see module docs).

    Connections are cached per replica and re-dialled on demand; use as
    an async context manager or await :meth:`close`.  Every mutation
    carries a ``write_id``, so it fails over like a read.  A replica's
    failure cooldown starts at ``cooldown`` seconds and doubles per
    consecutive failure up to ``backoff_max``, jittered by
    ``backoff_seed`` (the chaos drills pin it).  ``fault_injector`` (a :class:`~repro.serving.chaos.
    FaultInjector`) dials through the chaos shims (the ``net.connect``,
    ``net.send`` and ``net.recv`` sites).  ``tracer`` opens a
    ``client.<kind>`` root span per request with one ``client.attempt``
    child per attempt, whose context the frame carries to the server.
    """

    def __init__(self, addresses: Sequence[Tuple[str, int]],
                 timeout: float = 10.0, cooldown: float = 1.0,
                 backoff_max: float = 30.0,
                 backoff_seed: Optional[int] = None,
                 fault_injector=None, tracer: Optional[Tracer] = None):
        self._ring = _AddressRing(addresses, backoff=Backoff(
            base=cooldown, cap=max(float(backoff_max), float(cooldown)),
            seed=backoff_seed))
        self.timeout = float(timeout)
        self.tracer = tracer
        self._fault_injector = fault_injector
        self._connections: Dict[int, _AsyncConnection] = {}
        self._dials: Dict[int, asyncio.Future] = {}
        # write_ids must be unique per *logical* write across every
        # client instance that could retry it: a random prefix plus a
        # local counter, never reused between calls.
        self._write_prefix = secrets.token_hex(8)
        self._write_count = 0
        self.n_failovers = 0
        #: Highest WAL seqno any ack reported — after a write returns,
        #: every replica whose applied seqno reaches this value reflects
        #: it (read-your-writes across the fleet).
        self.last_seqno = 0

    # -- transport ---------------------------------------------------------

    async def _connect(self, index: int, wait: Optional[float] = None,
                       span=NULL_SPAN) -> _AsyncConnection:
        """The cached connection to replica ``index``, or a new one whose
        dial and hello wait at most ``wait`` seconds (default: the client
        timeout).  Concurrent callers share one dial."""
        cached = self._connections.get(index)
        if cached is not None:
            if cached.alive:
                return cached
            # The replica closed the link: nothing would answer a
            # request sent here before the timeout.
            await self._drop(index, cached)
        wait = self.timeout if wait is None else wait
        dial = self._dials.get(index)
        if dial is None:
            dial = self._dials[index] = asyncio.ensure_future(
                asyncio.wait_for(self._dial(index, span), timeout=wait))
            dial.add_done_callback(lambda _: self._dials.pop(index, None))
        return await asyncio.wait_for(asyncio.shield(dial), timeout=wait)

    async def _dial(self, index: int, span) -> _AsyncConnection:
        connection = await dial(*self._ring.addresses[index],
                                self._fault_injector, span)
        self._connections[index] = connection
        return connection

    async def _drop(self, index: int, connection: _AsyncConnection) -> None:
        """Close ``connection`` and forget it, unless a newer connection
        to the replica already took its place in the cache."""
        if self._connections.get(index) is connection:
            del self._connections[index]
        await connection.close()

    # -- failover policy ---------------------------------------------------

    async def _request(self, frame: Frame,
                       timeout: Optional[float] = None,
                       deadline_ms: Optional[float] = None
                       ) -> Dict[str, object]:
        """One logical request: untraced, without a deadline and on a
        live cached connection to the replica whose turn it is, one
        round-trip; the failover loop only without one or after it
        failed.  Traced, under one ``client.<kind>`` root span."""
        first = None
        if self.tracer is None and deadline_ms is None:
            index = self._ring.turn()
            connection = self._connections.get(index)
            if connection is not None and connection.alive:
                try:
                    reply = await connection.roundtrip(
                        frame, self.timeout if timeout is None
                        else float(timeout))
                except _TRANSPORT_ERRORS as error:
                    reply = error
                if isinstance(reply, Frame) and not reply.is_error:
                    self._ring.mark_used(index)
                    return self._accepted(reply)
                first = (index, connection, reply)
        root = (None if self.tracer is None
                else self.tracer.start(f"client.{frame.kind}"))
        try:
            return await self._attempts(frame, timeout, deadline_ms, root,
                                        first)
        except BaseException as error:
            if root is not None:
                root.set_attr("error", repr(error))
            raise
        finally:
            if root is not None:
                frame.payload.pop("trace", None)
                root.finish()

    def _accepted(self, reply: Frame) -> Dict[str, object]:
        seqno = reply.payload.get("seqno")
        if isinstance(seqno, int):
            self.last_seqno = max(self.last_seqno, seqno)
        return reply.payload

    async def _attempts(self, frame: Frame, timeout: Optional[float],
                        deadline_ms: Optional[float], root: Optional[Span],
                        first=None) -> Dict[str, object]:
        """The failover loop; ``first`` is the ``(index, connection,
        reply or transport error)`` of the attempt :meth:`_request`
        made, which the loop takes as its first."""
        deadline = _Deadline(deadline_ms)
        base_timeout = self.timeout if timeout is None else float(timeout)
        failures: List[str] = []
        order = self._ring.candidates()
        if first is not None:
            order = [first[0]] + [index for index in order
                                  if index != first[0]]
        for attempt, index in enumerate(order):
            address = self._ring.addresses[index]
            span = NULL_SPAN
            try:
                if attempt == 0 and first is not None:
                    _, connection, reply = first
                else:
                    # Each wait — dial and hello, then the reply — is
                    # bounded by what is left of the budget, re-stamped
                    # into the frame (DeadlineError once it is spent).
                    wait = deadline.wait(frame, base_timeout)
                    # One child span per attempt, every one in the
                    # root's trace.  It is never the active span across
                    # an await: interleaved coroutines would see each
                    # other's.
                    if root is not None:
                        span = self.tracer.start(
                            "client.attempt", parent=root,
                            attrs={"replica": "%s:%d" % address,
                                   "attempt": attempt})
                    try:
                        connection = await self._connect(index, wait, span)
                    except _TRANSPORT_ERRORS + (NetError,) as error:
                        # No byte of the request went out (a NetError
                        # here is a handshake refusal): any request may
                        # move on.
                        span.annotate("error", repr(error))
                        self._ring.mark_dead(index)
                        failures.append(f"{address}: {error!r}")
                        continue
                    # Each attempt parents the server side on its span.
                    if root is not None:
                        frame.payload["trace"] = span.context().to_wire()
                    try:
                        reply = await connection.roundtrip(
                            frame, deadline.wait(frame, base_timeout), span)
                    except _TRANSPORT_ERRORS as error:
                        reply = error
                if not isinstance(reply, Frame):
                    span.annotate("error", repr(reply))
                    await self._drop(index, connection)
                    self._ring.mark_dead(index)
                    failures.append(f"{address}: {reply!r}")
                    # The request went out and no whole reply came back.
                    # Reads fail over, and so do mutations: each carries
                    # a write_id, so the WAL leader dedups the replay and
                    # returns the original ack.
                    continue
                if reply.is_error:
                    span.annotate("error", reply.payload.get("message"))
            finally:
                span.finish()
            self._ring.mark_alive(index)
            if reply.is_error:
                if reply.payload.get("code") == ERROR_DEADLINE:
                    # Nothing was applied, but failing over would replay
                    # a spent budget: surface it now.
                    raise DeadlineError(str(reply.payload.get("message")))
                if reply.payload.get("retryable"):
                    # Refused without applying (a replica cut off from
                    # its WAL leader, or shed by admission control):
                    # healthy, but the next replica may serve it.
                    failures.append(
                        f"{address}: {reply.payload.get('message')}")
                    continue
            self._ring.mark_used(index)
            if attempt > 0:
                self.n_failovers += 1
            if reply.is_error:
                # Any other error frame is a definitive answer.
                raise NetError(str(reply.payload.get("message")))
            return self._accepted(reply)
        if deadline.expired():
            # The last attempt's wait was clamped to the budget: running
            # out of replicas *because* the budget ran out is a deadline
            # failure, not a fleet failure.
            raise deadline.spent(frame, failures)
        # Retryable by construction: a request that exhausts the ring was
        # safe to fail over in the first place (an idempotent read, or a
        # mutation whose write_id dedups a replay).
        raise NetError("every replica failed: " + "; ".join(failures),
                       retryable=True)

    def _rating_payload(self, items, values) -> Dict[str, object]:
        self._write_count += 1
        return {
            "items": np.array(items, dtype=np.int64).ravel(),
            "values": np.array(values, dtype=np.float64).ravel(),
            "write_id": f"{self._write_prefix}-{self._write_count}"}

    # -- the serving surface ----------------------------------------------

    # Every request method takes per-call ``timeout=`` (an override of
    # the constructor-wide timeout, seconds, for each wait) and
    # ``deadline_ms=`` (an end-to-end budget stamped into the frame: the
    # server sheds the request instead of serving it late, and the
    # client raises :class:`DeadlineError` once the budget is spent).

    async def top_n(self, user: int, n: int = 10,
                    exclude_seen: bool = True,
                    timeout: Optional[float] = None,
                    deadline_ms: Optional[float] = None) -> Recommendation:
        return _recommendation(await self._request(
            Frame("top_n", {"user": int(user), "n": int(n),
                            "exclude_seen": bool(exclude_seen)}),
            timeout=timeout, deadline_ms=deadline_ms))

    async def top_n_pipelined(self, users: Iterable[int], n: int = 10,
                              exclude_seen: bool = True,
                              max_in_flight: int = 32
                              ) -> List[Recommendation]:
        """Many ``top_n`` requests over the shared connection at once.

        At most ``max_in_flight`` are outstanding; each fails over on
        its own.  Returns one Recommendation per input user, in input
        order (duplicates are served, not deduplicated).  Once every
        request has finished, any that failed raise one
        :class:`NetError` counting them and naming the first.
        """
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}")
        user_list = [int(user) for user in users]
        gate = asyncio.Semaphore(int(max_in_flight))

        async def one(user: int) -> Recommendation:
            async with gate:
                return await self.top_n(user, n=n,
                                        exclude_seen=exclude_seen)

        outcomes = await asyncio.gather(*map(one, user_list),
                                        return_exceptions=True)
        errors = {}
        for slot, outcome in enumerate(outcomes):
            if isinstance(outcome, NetError):
                errors[slot] = outcome
            elif isinstance(outcome, BaseException):
                raise outcome
        if errors:
            slot = min(errors)
            raise NetError(
                f"{len(errors)} of {len(outcomes)} pipelined requests "
                f"failed; first (slot {slot}): {errors[slot]}")
        return outcomes

    async def top_n_batch(self, users: Iterable[int], n: int = 10,
                          exclude_seen: bool = True,
                          timeout: Optional[float] = None,
                          deadline_ms: Optional[float] = None
                          ) -> Dict[int, Recommendation]:
        payload = await self._request(
            Frame("top_n_batch", {"users": [int(user) for user in users],
                                  "n": int(n),
                                  "exclude_seen": bool(exclude_seen)}),
            timeout=timeout, deadline_ms=deadline_ms)
        return {int(entry["user"]): _recommendation(entry)
                for entry in payload["results"]}

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
        payload = await self._request(Frame("predict_batch", {
            "users": np.ascontiguousarray(
                np.asarray(users, dtype=np.int64).ravel()),
            "items": np.ascontiguousarray(
                np.asarray(items, dtype=np.int64).ravel())}),
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
        """The health frame; ``digest=True`` asks the replica for its
        :meth:`~repro.serving.service.PredictionService.state_digest`
        (pin the client to one address to compare replicas)."""
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
        """The replica's buffered trace spans (``drain=True`` clears).

        Returns ``{"enabled": bool, "spans": [...], "tracer": {...}}``;
        ``enabled`` is False against an untraced server.
        """
        payload: Dict[str, object] = {}
        if limit is not None:
            payload["limit"] = int(limit)
        if drain:
            payload["drain"] = True
        return await self._request(Frame("trace", payload),
                                   timeout=timeout,
                                   deadline_ms=deadline_ms)

    async def close(self) -> None:
        dials = list(self._dials.values())
        for dial in dials:
            dial.cancel()
        await asyncio.gather(*dials, return_exceptions=True)
        for index, connection in list(self._connections.items()):
            await self._drop(index, connection)

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


def _blocking(method):
    """``method`` of :class:`AsyncServingClient` as a blocking call on the
    facade's private loop, with the same signature and docstring."""
    @functools.wraps(method)
    def call(self, *args, **kwargs):
        return self._run(method(self._client, *args, **kwargs))
    return call


class ServingClient:
    """Blocking facade over :class:`AsyncServingClient` (see module docs).

    Same parameters, methods, results and exceptions.  Each call runs to
    completion on a private event loop, on the caller's thread: the loop
    is created on first use and closed by :meth:`close` (a later call
    opens a new one).  A client may be built on one thread and used on
    another, one call at a time, but never from a thread that is running
    an event loop — that raises ``RuntimeError``; await the async client
    there.
    """

    @functools.wraps(AsyncServingClient.__init__)  # same signature
    def __init__(self, *args, **kwargs):
        self._client = AsyncServingClient(*args, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def n_failovers(self) -> int:
        return self._client.n_failovers

    @property
    def last_seqno(self) -> int:
        return self._client.last_seqno

    def _run(self, coroutine):
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        try:
            return self._loop.run_until_complete(coroutine)
        except BaseException:
            if inspect.getcoroutinestate(coroutine) == inspect.CORO_CREATED:
                coroutine.close()  # the loop refused to run it
            raise

    top_n = _blocking(AsyncServingClient.top_n)
    top_n_pipelined = _blocking(AsyncServingClient.top_n_pipelined)
    top_n_batch = _blocking(AsyncServingClient.top_n_batch)
    predict = _blocking(AsyncServingClient.predict)
    predict_batch = _blocking(AsyncServingClient.predict_batch)
    fold_in = _blocking(AsyncServingClient.fold_in)
    rate = _blocking(AsyncServingClient.rate)
    stats = _blocking(AsyncServingClient.stats)
    health = _blocking(AsyncServingClient.health)
    metrics = _blocking(AsyncServingClient.metrics)
    spans = _blocking(AsyncServingClient.spans)

    def close(self) -> None:
        """Close every connection, then the private loop."""
        if self._loop is None:
            return
        try:
            self._run(self._client.close())
        finally:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
