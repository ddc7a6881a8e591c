"""Asyncio TCP server wrapping a serving gateway.

:class:`NetServer` puts a real socket in front of
:class:`~repro.serving.service.PredictionService` or the sharded
:class:`~repro.serving.cluster.ShardedScorer`:

* **One Protocol per connection** — each connection is an
  :class:`asyncio.Protocol` (:class:`_Connection`), callbacks and no
  task: ``data_received`` feeds the :class:`FrameDecoder` and replies go
  straight to ``transport.write`` (the codec has one payload form).  A
  connection opens with a version handshake; a framing violation drops
  only that connection.  While a client leaves replies unread past the
  write buffer's high-water mark (``pause_writing``), its connection
  reads no more requests.
* **Pipelining** — requests carrying an ``id`` are served concurrently
  and their replies may come out of order (the id is echoed); a bare
  request holds the later frames of its connection until its reply is
  written, the one-at-a-time order raw-socket callers rely on.
* **Admission** — a slot counter caps in-flight requests across all
  connections; the rest wait in one FIFO of frames, at most
  ``max_queue_depth`` per class (reads, writes), and the excess is shed.
* **One owner thread** — the event loop owns the gateway, so no lock
  guards gateway state.  Only a sharded scorer's calls (worker IPC, on
  one private thread) and a leader's log append (on the coordinator's
  WAL thread) leave it.
* **Query fusion (default)** — concurrent ``top_n`` requests coalesce
  into one batched gateway call
  (:class:`~repro.serving.net.fusion.QueryFuser`), bit-identical per
  request to serving them alone; ``fuse_window_ms=None`` turns it off.
* **Lifecycle** — :meth:`stop` drains (no more reads, every admitted
  request answered, then close); :meth:`abort` is a crash (transports
  aborted, request tasks and windows cancelled, a commit included).  An
  optional :class:`SnapshotWatcher` starts and stops with the server.

**The request path.**  A request runs synchronously, inside the
``data_received`` call that decoded it, until it truly has to wait.
:meth:`NetServer._admit` takes a slot or queues the frame;
:meth:`NetServer._dispatch` applies the deadline gate and routes it.  A
``top_n`` is validated and queued on the fuser, and its window's
completion writes the reply.  Other gateway calls go through
:meth:`NetServer._call_gateway`: with an in-process gateway and no
:meth:`~NetServer.stall` in force the call is made at once (a window in
its flush callback) and the reply written; otherwise the request (or
window) becomes one task around :meth:`NetServer._gateway`, which waits
out the stall and puts a sharded scorer's call on its thread.  Commits
and WAL traffic are tasks too: a leader commit awaits its log append on
the WAL thread
(:meth:`~repro.serving.wal.shipper.LeaderCoordinator.handle_mutation`),
and reads keep flowing meanwhile.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import functools
import inspect
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, Optional, Set

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, Tracer
from repro.serving.net.fusion import DeadlineExpired, FuserClosed, QueryFuser
from repro.serving.net.protocol import (
    ERROR_DEADLINE,
    ERROR_OVERLOADED,
    Frame,
    FrameDecoder,
    MUTATION_KINDS,
    PROTOCOL_VERSION,
    ProtocolError,
    error_frame,
    recommendation_payload,
    check_hello,
    encode_frame,
    execute,
)
from repro.serving.service import PredictionService, check_user_range
from repro.utils.validation import ValidationError, check_positive

__all__ = ["NetServer"]

#: Request kinds that mutate state, for per-class admission control:
#: shedding reads under a read storm must not also starve writes (and
#: vice versa), so each class has its own queue-depth budget.
_WRITE_KINDS = frozenset(MUTATION_KINDS | {"wal_append"})


def _request_class(kind: str) -> str:
    return "write" if kind in _WRITE_KINDS else "read"


class _Connection(asyncio.Protocol):
    """One client connection (module docstring): frames wait in
    :attr:`backlog` behind a bare request (:attr:`ordered`)."""

    __slots__ = ("server", "transport", "decoder", "backlog", "greeted",
                 "ordered", "in_flight", "ending", "open", "reading",
                 "write_paused", "lost")

    def __init__(self, server: "NetServer"):
        self.server = server
        self.transport = None
        self.decoder = FrameDecoder()
        self.backlog: Deque[Frame] = collections.deque()
        self.greeted = self.ordered = self.ending = self.write_paused = False
        self.in_flight = 0
        self.open = self.reading = True  # open: replies may be written
        self.lost = server._loop.create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.n_connections += 1
        if self.server._draining:  # accepted in the same pass as stop()
            self.end()

    def data_received(self, data: bytes) -> None:
        try:
            self.backlog.extend(self.decoder.feed(data))
        except ProtocolError as error:
            self.server.n_protocol_errors += 1
            self.send(Frame("error", {"message": str(error)}))
            self.end()
            return
        self.pump()

    def eof_received(self) -> bool:
        self.end()
        return True  # keep the transport to write what is still owed

    def connection_lost(self, exc) -> None:
        self.open = False
        self.backlog.clear()
        self.server._connections.discard(self)
        self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.write_paused = True
        self._update_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._update_reading()

    def pump(self) -> None:
        """Admit decoded frames, in order, until a bare request holds
        the rest."""
        backlog = self.backlog
        while backlog and not self.ordered and self.open:
            frame = backlog.popleft()
            if not self.greeted:
                self._greet(frame)
                continue
            if frame.payload.get("id") is None:
                self.ordered = True
            self.in_flight += 1
            self.server._admit(self, frame)
        if backlog or not self.reading:
            self._update_reading()

    def _greet(self, frame: Frame) -> None:
        refusal = check_hello(frame)
        if refusal is not None:
            self.server.n_protocol_errors += 1
            self.send(refusal)
            self.backlog.clear()
            self.end()
            return
        self.greeted = True
        self.send(Frame("ok", {"version": PROTOCOL_VERSION,
                               "server": "repro-serving"}))

    def reply(self, frame: Frame, response: Frame) -> None:
        """Write the reply to the admitted request ``frame``."""
        request_id = frame.payload.get("id")
        if request_id is not None:
            response.payload.setdefault("id", request_id)
        self.send(response)
        self.in_flight -= 1
        if request_id is None:
            self.ordered = False
            if self.backlog:
                self.server._loop.call_soon(self.pump)
        if self.ending:
            self._close_if_done()

    def send(self, frame: Frame) -> None:
        if self.open:
            if frame.is_error:
                self.server.n_error_replies += 1
            # One write per frame: replies interleave whole, never inside
            # one another.
            self.transport.write(encode_frame(frame))

    def end(self) -> None:
        """Read no more; close once every admitted request is answered."""
        self.ending = True
        self._update_reading()
        self._close_if_done()

    def _close_if_done(self) -> None:
        if self.open and not self.in_flight and not self.backlog:
            self.open = False
            self.transport.close()

    def _update_reading(self) -> None:
        """Read only while nothing holds the connection: not ending, no
        unread replies piling up, no frame waiting behind a bare one."""
        reading = not (self.ending or self.write_paused or self.backlog)
        if reading != self.reading:
            self.reading = reading
            if reading:
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()


class NetServer:
    """One TCP serving frontend over one gateway (see module docstring).

    Parameters
    ----------
    service:
        The gateway to serve (``PredictionService`` or ``ShardedScorer``).
    host, port:
        Bind address; port ``0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    fuse_window_ms:
        The :class:`QueryFuser`'s fallback flush timer (a window flushes
        early at ``fusion.FUSE_MAX_BATCH`` requests); ``None`` or a non-positive window
        serves every request unbatched.
    max_in_flight:
        Cap on concurrently admitted requests across all connections.
    max_queue_depth:
        With every slot busy, at most this many requests *per class*
        (reads, writes) queue for one; the excess is shed with a
        retryable ``overloaded`` error.  ``None`` queues without bound.
    watcher:
        Optional :class:`SnapshotWatcher` started and stopped with the
        server.
    wal_expected:
        Refuse mutations (retryable) until a WAL coordinator is attached
        with :meth:`set_wal`, instead of applying them unreplicated; every
        :class:`ReplicaSet` replica sets it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: admission spans
        (queue wait vs execute) for every request carrying trace
        context.  ``None`` costs one ``is None`` check per request.
    registry, metrics_labels:
        :class:`~repro.obs.metrics.MetricsRegistry` for this server's
        histograms and stats providers (a private one when omitted); a
        :class:`ReplicaSet` shares one, labelled ``{"replica": i}``.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 fuse_window_ms: Optional[float] = 2.0,
                 max_in_flight: int = 64,
                 max_queue_depth: Optional[int] = 256,
                 watcher=None, wal_expected: bool = False,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 metrics_labels: Optional[Dict[str, object]] = None):
        check_positive("max_in_flight", max_in_flight)
        if max_queue_depth is not None:
            check_positive("max_queue_depth", max_queue_depth)
        self.service = service
        self.host = host
        self.port = int(port)
        self.watcher = watcher
        self.wal_expected = bool(wal_expected)
        self.max_in_flight = int(max_in_flight)
        self.max_queue_depth = (int(max_queue_depth)
                                if max_queue_depth is not None else None)
        self.tracer = tracer
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._metrics_labels = dict(metrics_labels or {})
        self._queue_wait_ms = self.registry.histogram(
            "serving.server.queue_wait_ms", **self._metrics_labels)
        self._execute_ms = self.registry.histogram(
            "serving.server.execute_ms", **self._metrics_labels)
        #: The private thread of a gateway that blocks on worker IPC
        #: (anything but an in-process PredictionService); see _gateway.
        self._scorer_thread: Optional[ThreadPoolExecutor] = (
            None if isinstance(service, PredictionService)
            else ThreadPoolExecutor(max_workers=1,
                                    thread_name_prefix="repro-net-scorer"))
        #: time.monotonic() until which gateway calls wait (see stall).
        self._stall_until = 0.0
        self.fuser: Optional[QueryFuser] = None
        if fuse_window_ms is not None and fuse_window_ms > 0:
            self.fuser = QueryFuser(
                functools.partial(self._call_gateway, service.top_n_batch),
                window_ms=fuse_window_ms, tracer=tracer)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._connections: Set[_Connection] = set()
        #: Admission: free slots, and the requests waiting for one
        #: (connection, frame, arrival, admit span), oldest first.
        self._free_slots = self.max_in_flight
        self._waiting: Deque[tuple] = collections.deque()
        self._tasks: Set[asyncio.Task] = set()  # requests that had to wait
        self.wal = None
        self.n_connections = 0
        self.n_requests = 0
        self.n_error_replies = 0
        self.n_protocol_errors = 0
        self.n_stalls = 0
        # Requests waiting for a slot, per class, and shed counters.
        self._queued: Dict[str, int] = {"read": 0, "write": 0}
        self.n_overload_shed: Dict[str, int] = {"read": 0, "write": 0}
        self.n_deadline_shed = 0
        # Each component's counters under one dotted registry prefix.
        self.registry.register_provider("serving.server", self.stats,
                                        **self._metrics_labels)
        self.registry.register_provider(
            getattr(service, "METRICS_PREFIX", "serving.service"),
            service.stats, **self._metrics_labels)
        if self.fuser is not None:
            self.registry.register_provider("serving.fusion",
                                            self.fuser.metrics,
                                            **self._metrics_labels)

    # -- replication wiring ------------------------------------------------

    def set_wal(self, coordinator) -> None:
        """Attach a WAL coordinator; mutations now route through it.  Its
        gateway calls (validate, apply) go through :meth:`_gateway`."""
        if coordinator is not None:
            coordinator.run = self._gateway
            self.registry.register_provider("wal", coordinator.stats,
                                            **self._metrics_labels)
        self.wal = coordinator

    def call_serialized(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as a gateway call, from any
        thread but the server's loop, and return its result.

        The way onto the loop that owns the gateway for replica wiring,
        drills and benchmarks: the call waits out a :meth:`stall` and
        runs between two requests.  A coroutine function is awaited on
        the loop after the stall (it makes its own gateway calls).
        """
        if asyncio.iscoroutinefunction(fn):
            call = self._after_stall(fn(*args, **kwargs))
        else:
            call = self._gateway(fn, *args, **kwargs)
        return asyncio.run_coroutine_threadsafe(call, self._loop).result()

    async def _after_stall(self, coroutine):
        await self._unstalled()
        return await coroutine

    def _call_gateway(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` made now when the loop may (in-process
        gateway, no stall): its result; else the :meth:`_gateway`
        coroutine to await."""
        if self._scorer_thread is None \
                and self._stall_until <= time.monotonic():
            return fn(*args, **kwargs)
        return self._gateway(fn, *args, **kwargs)

    async def _gateway(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` on the gateway, once any stall is over:
        on the loop for an in-process ``PredictionService``, else on the
        private scorer thread (worker IPC blocks), with the caller's
        context copied so trace spans nest.  Once that thread is shut
        down the call raises :class:`FuserClosed` (a retryable error)."""
        if self._stall_until > time.monotonic():
            await self._unstalled()
        if self._scorer_thread is None:
            return fn(*args, **kwargs)
        call = functools.partial(contextvars.copy_context().run, fn,
                                 *args, **kwargs)
        try:
            future = asyncio.get_running_loop().run_in_executor(
                self._scorer_thread, call)
        except RuntimeError as error:  # cannot schedule after shutdown
            raise FuserClosed(f"gateway call not dispatched: {error}") \
                from error
        return await future

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "NetServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._free_slots = self.max_in_flight
        self._draining = False
        self._server = await self._loop.create_server(
            functools.partial(_Connection, self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.watcher is not None:
            self.watcher.start()
        return self

    async def stop(self) -> None:
        """Graceful drain: every connection stops reading and closes once
        its admitted requests are answered.  Safe to call twice."""
        if self._server is None:
            return
        self._server.close()
        self._draining = True
        for connection in list(self._connections):
            connection.end()
        if self.watcher is not None:
            self.watcher.stop()
        if self.fuser is not None:
            await self.fuser.drain()
        while self._connections:
            await asyncio.gather(*(connection.lost
                                   for connection in self._connections))
        await self._server.wait_closed()
        self._server = None
        await self._close_wal()
        if self._scorer_thread is not None:
            self._scorer_thread.shutdown(wait=True)

    async def abort(self) -> None:
        """Abrupt shutdown, the way a crash goes (:meth:`ReplicaSet.kill`):
        clients see resets/EOF mid-request, and request tasks and fused
        windows in flight — a commit parked on a silent follower
        included — are cancelled, not waited out."""
        if self._server is not None:
            self._server.close()
        if self.watcher is not None:
            self.watcher.stop()
        self._waiting.clear()
        self._queued.update(read=0, write=0)
        connections = list(self._connections)
        for connection in connections:
            connection.open = False  # no reply is written any more
            connection.transport.abort()
        tasks = list(self._tasks)
        if self.fuser is not None:
            tasks += self.fuser.cancel()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, *(connection.lost
                                       for connection in connections),
                             return_exceptions=True)
        self._server = None
        await self._close_wal()
        if self._scorer_thread is not None:
            self._scorer_thread.shutdown(wait=False, cancel_futures=True)

    async def _close_wal(self) -> None:
        if self.wal is not None:
            wal, self.wal = self.wal, None
            await wal.close()

    # -- request execution -------------------------------------------------

    def _health_extra(self) -> Dict[str, object]:
        blocks: Dict[str, object] = {"server": self.stats()}
        if self.fuser is not None:
            blocks["fusion"] = self.fuser.metrics()
        if self.wal is not None:
            blocks["wal"] = self.wal.stats()
        return blocks

    def _trace_reply(self, frame: Frame) -> Frame:
        """Serve a ``trace`` frame: buffered spans (or a drain)."""
        if self.tracer is None:
            return Frame("ok", {"enabled": False, "spans": []})
        if frame.payload.get("drain"):
            spans = self.tracer.drain()
        else:
            limit = frame.payload.get("limit")
            if limit is not None and (type(limit) is not int or limit < 0):
                return Frame("error", {
                    "message": f"trace limit must be a non-negative "
                               f"integer, got {limit!r}"})
            spans = self.tracer.spans(limit)
        return Frame("ok", {"enabled": True, "spans": spans,
                            "tracer": self.tracer.stats()})

    async def _respond_wal(self, frame: Frame) -> Frame:
        """Route WAL traffic and (when a coordinator is attached)
        mutations to the coordinator."""
        from repro.serving.wal.log import WalError, WalWriteError
        from repro.serving.wal.shipper import WalUnavailableError
        wal = self.wal
        try:
            if wal is None:
                # wal_expected and not wired yet (the attach window at
                # replica start/restart): refusing is what keeps the
                # mutation out of the unreplicated plain-execute path.
                raise WalUnavailableError(
                    f"{frame.kind!r} needs a wal coordinator and this "
                    "server has none attached yet")
            if frame.kind == "wal_append":
                payload = await wal.handle_wal_append(frame.payload)
            elif frame.kind == "wal_catchup":
                # Immutable log records, no gateway state: served at
                # once, even mid-commit or mid-stall.
                payload = wal.handle_wal_catchup(frame.payload)
            else:
                # A commit on the leader, a forward on a follower.
                payload = await wal.handle_mutation(frame.kind,
                                                    dict(frame.payload))
            return Frame("ok", dict(payload))
        except (ValidationError, WalError, KeyError, TypeError,
                ValueError) as error:
            body: Dict[str, object] = {"message": str(error)}
            if isinstance(error, (WalUnavailableError, WalWriteError)):
                # The write was NOT applied (leader unreachable, or the
                # append rolled itself back): tell the client it may
                # safely retry elsewhere even though mutations are
                # normally not retried on errors.
                body["retryable"] = True
            return Frame("error", body)

    @staticmethod
    def _frame_deadline(frame: Frame, arrival: float) -> Optional[float]:
        """The absolute monotonic deadline a request frame carries.

        ``deadline_ms`` is a *relative* budget (milliseconds remaining
        when the client sent this attempt) — relative so clock skew
        between client and server never mis-expires a request; the cost
        is that one-way network latency eats silently into the budget.
        """
        budget = frame.payload.get("deadline_ms")
        if budget is None:
            return None
        try:
            return arrival + float(budget) / 1000.0
        except (TypeError, ValueError):
            return None  # unparseable budgets never constrain a request

    def _admit(self, connection: _Connection, frame: Frame) -> None:
        """Admission: a free slot dispatches the request now; with none it
        queues in arrival order, or — its class's queue full — is shed
        with a retryable ``overloaded`` error, at the cost of one decode
        and one error frame."""
        self.n_requests += 1
        arrival = time.monotonic()
        # The admission span parents every server-side span for this
        # request; it exists only when tracing is on AND the frame
        # carries context, so the untraced path pays one `is None`.
        admit = None
        if self.tracer is not None:
            ctx = TraceContext.from_wire(frame.payload.get("trace"))
            if ctx is not None:
                admit = self.tracer.start("server.admit", parent=ctx,
                                          attrs={"kind": frame.kind})
        if self._free_slots:
            self._free_slots -= 1
            self._dispatch(connection, frame, arrival, admit, arrival)
            return
        cls = _request_class(frame.kind)
        if self.max_queue_depth is not None \
                and self._queued[cls] >= self.max_queue_depth:
            self.n_overload_shed[cls] += 1
            if admit is not None:
                admit.set_attr("shed", "overload")
            self._finish(connection, frame, admit, error_frame(
                f"overloaded: {self._queued[cls]} {cls}s already queued "
                f"behind {self.max_in_flight} in-flight requests",
                code=ERROR_OVERLOADED, retryable=True), held=False)
            return
        self._queued[cls] += 1
        self._waiting.append((connection, frame, arrival, admit))

    def _dispatch(self, connection: _Connection, frame: Frame,
                  arrival: float, admit=None,
                  now: Optional[float] = None) -> None:
        """Serve one request that holds a slot (module docstring)."""
        if not connection.open:  # gone while it queued: nobody to answer
            self._finish(connection, frame, admit, Frame("error", {}))
            return
        if now is None:
            now = time.monotonic()
        # Queue wait (slot wait) vs execute, split: the two intervals
        # that matter when diagnosing tail latency.
        queue_wait_ms = (now - arrival) * 1000.0
        self._queue_wait_ms.observe(queue_wait_ms)
        if admit is not None:
            self.tracer.emit("server.queue", parent=admit,
                             dur_ms=queue_wait_ms,
                             attrs={"class": _request_class(frame.kind)})
        # The gate sits *after* the slot wait on purpose: time spent
        # queueing counts against the budget, so a request that expired
        # in the queue is shed before any gateway work, not scored late.
        deadline = self._frame_deadline(frame, arrival)
        kind = frame.kind
        if deadline is not None and now >= deadline:
            self.n_deadline_shed += 1
            self._finish(connection, frame, admit, error_frame(
                f"deadline_exceeded: {kind!r} spent its "
                f"{frame.payload.get('deadline_ms')} ms budget queueing",
                code=ERROR_DEADLINE, retryable=True))
        elif kind == "top_n" and self.fuser is not None:
            self._fuse(connection, frame, deadline, admit)
        elif kind in ("wal_append", "wal_catchup") or (
                kind in MUTATION_KINDS
                and (self.wal is not None or self.wal_expected)):
            if admit is not None:
                # Re-parent the downstream WAL spans (commit, append,
                # ship, follower apply) on admission.
                frame.payload["trace"] = admit.context().to_wire()
            self._await(connection, frame, admit, self._respond_wal(frame))
        elif kind == "trace":
            self._finish(connection, frame, admit, self._trace_reply(frame))
        else:
            try:
                if kind == "metrics":
                    response = self._call_gateway(lambda: Frame(
                        "ok", {"metrics": self.registry.snapshot()}))
                else:
                    response = self._call_gateway(self._execute, frame,
                                                  admit)
            except Exception as error:  # noqa: BLE001 - a server bug
                response = self._internal_error(error)
            if inspect.isawaitable(response):
                self._await(connection, frame, admit, response)
            else:
                self._finish(connection, frame, admit, response)

    def _await(self, connection: _Connection, frame: Frame, admit,
               pending) -> None:
        """A request that has to wait: one task awaits its response."""
        task = self._loop.create_task(
            self._reply_when_done(connection, frame, admit, pending))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        # A task cancelled before its first step never awaited ``pending``.
        task.add_done_callback(lambda _: pending.close())

    async def _reply_when_done(self, connection: _Connection,
                               frame: Frame, admit, pending) -> None:
        try:
            response = await pending
        except asyncio.CancelledError:  # abort(): nobody is left to answer
            self._finish(connection, frame, admit,
                         Frame("error", {"message": "request cancelled"}))
            raise
        except Exception as error:  # noqa: BLE001 - a server bug
            response = self._internal_error(error)
        self._finish(connection, frame, admit, response)

    def _internal_error(self, error: BaseException) -> Frame:
        """A request raised past its domain errors: a bug; log, answer."""
        self._loop.call_exception_handler({
            "message": "serving request failed", "exception": error})
        return Frame("error", {"message": f"internal error: {error!r}"})

    def _finish(self, connection: _Connection, frame: Frame, admit,
                response: Frame, held: bool = True) -> None:
        """Answer a request; one that ``held`` a slot passes it to the
        longest-waiting request (dispatched next loop pass) or frees it."""
        if held:
            if self._waiting:
                waiting = self._waiting.popleft()
                self._queued[_request_class(waiting[1].kind)] -= 1
                self._loop.call_soon(self._dispatch, *waiting)
            else:
                self._free_slots += 1
        if admit is not None:
            if response.is_error:
                admit.set_attr("error", response.payload.get("message"))
            admit.finish()
        connection.reply(frame, response)

    def _execute(self, frame: Frame, admit=None) -> Frame:
        """One plain gateway call, in the execute histogram and, traced,
        an active ``server.execute`` span the layers below attach to.
        Replies keep the gateway's own ndarray buffers."""
        start = time.perf_counter()
        try:
            if admit is None:
                return execute(self.service, frame, self._health_extra)
            with self.tracer.start("server.execute", parent=admit,
                                   attrs={"kind": frame.kind}):
                return execute(self.service, frame, self._health_extra)
        finally:
            self._execute_ms.observe(
                (time.perf_counter() - start) * 1000.0)

    def _fuse(self, connection: _Connection, frame: Frame,
              deadline: Optional[float], admit) -> None:
        """Queue one ``top_n`` on the fuser; :meth:`_fused` answers it.
        Arguments are validated first, so a bad request cannot poison a
        window; the deadline rides along (:class:`DeadlineExpired`)."""
        payload = frame.payload
        try:
            user = int(payload["user"])
            n = int(payload.get("n", 10))
            if n <= 0:
                check_positive("n", n)  # raises: the shared message
            if not 0 <= user < self.service.n_users:
                # Raises: the shared out-of-range message.
                check_user_range(np.array([user], dtype=np.int64),
                                 self.service.n_users,
                                 self.service.n_train_users)
        except (ValidationError, KeyError, TypeError, ValueError,
                OverflowError) as error:
            self._finish(connection, frame, admit,
                         Frame("error", {"message": str(error)}))
            return
        self.fuser.submit(
            user, n, bool(payload.get("exclude_seen", True)), deadline,
            admit.context() if admit is not None else None,
            functools.partial(self._fused, connection, frame, admit))

    def _fused(self, connection: _Connection, frame: Frame, admit,
               recommendation, error: Optional[BaseException]) -> None:
        if error is None:
            response = Frame("ok", recommendation_payload(recommendation))
        elif isinstance(error, DeadlineExpired):
            self.n_deadline_shed += 1
            response = error_frame(str(error), code=ERROR_DEADLINE,
                                   retryable=True)
        elif isinstance(error, FuserClosed):
            response = error_frame(str(error), retryable=True)
        else:  # a worker or gateway failure
            response = Frame("error", {"message": str(error)})
        self._finish(connection, frame, admit, response)

    # -- chaos hooks --------------------------------------------------------

    def stall(self, seconds: float) -> None:
        """Wedge the gateway for ``seconds`` (fault injection).

        Every gateway call that starts before the stall is over waits it
        out, while the loop keeps accepting, reading, queueing and
        shedding: a gateway stuck in a long worker IPC, which provokes
        deadline expiry and shedding without killing anything.  In force
        before this returns; overlapping stalls merge; any thread.
        """
        self.n_stalls += 1
        self._stall_until = max(self._stall_until,
                                time.monotonic() + float(seconds))

    async def _unstalled(self) -> None:
        """Return once no stall is in force."""
        while True:
            left = self._stall_until - time.monotonic()
            if left <= 0:
                return
            await asyncio.sleep(left)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Server-level counters (connections, requests, errors, load)."""
        return {
            "n_connections": self.n_connections,
            "n_open_connections": len(self._connections),
            "n_requests": self.n_requests,
            "n_error_replies": self.n_error_replies,
            "n_protocol_errors": self.n_protocol_errors,
            "n_deadline_shed": self.n_deadline_shed,
            "n_overload_shed": dict(self.n_overload_shed),
            "n_stalls": self.n_stalls,
            "queue_depth": dict(self._queued),
            "max_queue_depth": self.max_queue_depth,
            "max_in_flight": self.max_in_flight,
        }
