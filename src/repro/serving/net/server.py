"""Asyncio TCP server wrapping a serving gateway.

:class:`NetServer` puts a real socket in front of
:class:`~repro.serving.service.PredictionService` or the sharded
:class:`~repro.serving.cluster.ShardedScorer`:

* **Framing** — every connection speaks the length-prefixed frame
  protocol (:mod:`repro.serving.net.protocol`), opening with a version
  handshake; framing violations drop only the offending connection.
  Replies always use the binary array form (raw-ndarray score blocks);
  requests may come in either form.
* **Pipelining** — requests carrying an ``id`` are served concurrently
  and replies may arrive out of order (the id is echoed); bare requests
  keep strict one-at-a-time ordering, which the REPL-style raw-socket
  callers rely on.
* **Bounded concurrency** — a semaphore caps in-flight requests across
  all connections; excess requests queue in arrival order instead of
  piling onto the gateway.
* **One owner thread** — the event loop owns the gateway: every
  gateway call runs on it, one at a time, so no lock guards gateway
  state.  The loop never blocks on worker IPC or on an fsync: a
  :class:`~repro.serving.cluster.ShardedScorer` is called on one
  private thread, and a leader's log append on the coordinator's one
  WAL thread (see the request path below).
* **Query fusion (default)** — concurrent ``top_n`` requests across
  connections coalesce into one batched gateway dispatch
  (:class:`~repro.serving.net.fusion.QueryFuser`), bit-identical per
  request to serving them alone.  Dispatch is eager, so a lone
  sequential caller pays no window latency; pass
  ``fuse_window_ms=None`` (CLI: ``--fuse-window 0``) to disable fusion
  and serve every request unbatched.
* **Graceful drain** — :meth:`stop` stops accepting, lets every in-flight
  request finish and its reply flush, then closes connections; pair it
  with a SIGTERM handler (the CLI does) and the existing gateway teardown
  closes worker pools and unlinks the shared-memory segments.
  Connection reads are plain ``reader.read()`` awaits: :meth:`stop`
  wakes each idle reader itself (pause the transport, then feed EOF),
  so no read races a drain signal.
* **Hot reload** — an optional :class:`SnapshotWatcher` is started and
  stopped with the server; its double-buffered swap happens under the
  scorer's own lock, so a reload never drops a connection or a request.

**The request path.**  Per connection, one task reads and decodes.  An
id-tagged request gets its own task (:meth:`NetServer._respond`:
admission, the deadline gate, the fuser or a gateway call, the reply); a
bare one is served inline, in order.  Every gateway call goes through
:meth:`NetServer._gateway`, the one place that decides where it runs: it
first waits out a :meth:`~NetServer.stall`, then calls an in-process
:class:`~repro.serving.service.PredictionService` right there on the
loop, and any other gateway on its private thread.  A fused ``top_n``
window is one such call (:class:`~repro.serving.net.fusion.QueryFuser`).
A commit on the write leader validates and applies through it too, and
awaits only its log append, on the WAL thread
(:meth:`~repro.serving.wal.shipper.LeaderCoordinator.handle_mutation`):
reads keep flowing while a commit sits in its fsync, and commits
serialize on the coordinator, in seqno order.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

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

_READ_CHUNK = 1 << 16

#: Request kinds that mutate state, for per-class admission control:
#: shedding reads under a read storm must not also starve writes (and
#: vice versa), so each class has its own queue-depth budget.
_WRITE_KINDS = frozenset(MUTATION_KINDS | {"wal_append"})


def _request_class(kind: str) -> str:
    return "write" if kind in _WRITE_KINDS else "read"


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
        Fused dispatch is the default: concurrent ``top_n`` requests
        ride the :class:`QueryFuser` into one batched dispatch, with
        this fallback flush timer (dispatch itself is eager — see the
        fuser docs).  ``None`` or a non-positive value disables fusion
        entirely and serves every request unbatched.
    fuse_max_batch:
        Fusion flushes early at this many pending requests.
    max_in_flight:
        Cap on concurrently admitted requests across all connections.
    max_queue_depth:
        Admission control: with every in-flight slot busy, at most this
        many requests *per class* (reads vs writes, independently) may
        queue for a slot; the excess is shed immediately with a
        retryable ``overloaded`` error frame instead of building an
        unbounded backlog.  ``None`` disables shedding (the historical
        queue-forever behaviour).
    watcher:
        Optional :class:`SnapshotWatcher` whose lifecycle should follow
        the server's.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When set, the
        server opens admission spans (queue wait vs execute split) for
        every request frame carrying trace context.  ``None`` (the default) keeps the
        traced-request path completely cold — one ``is None`` check per
        request.
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` hosting this
        server's latency histograms and stats providers; a private one
        is created when omitted.  A :class:`ReplicaSet` shares one
        registry across its replicas, disambiguated by
        ``metrics_labels`` (e.g. ``{"replica": 0}``).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 fuse_window_ms: Optional[float] = 2.0,
                 fuse_max_batch: int = 64, max_in_flight: int = 64,
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
                functools.partial(self._gateway, service.top_n_batch),
                window_ms=fuse_window_ms, max_batch=fuse_max_batch,
                tracer=tracer)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._draining = False
        # connection task -> its streams, so stop() can wake idle readers
        self._connections: Dict[asyncio.Task,
                                Tuple[asyncio.StreamReader,
                                      asyncio.StreamWriter]] = {}
        self.wal = None
        self.n_connections = 0
        self.n_requests = 0
        self.n_error_replies = 0
        self.n_protocol_errors = 0
        self.n_stalls = 0
        # Admission / deadline bookkeeping: requests currently waiting
        # for an in-flight slot, per class, plus shed counters.
        self._queued: Dict[str, int] = {"read": 0, "write": 0}
        self.n_overload_shed: Dict[str, int] = {"read": 0, "write": 0}
        self.n_deadline_shed = 0
        # Each component's counters under one dotted prefix in the
        # registry: snapshot() pulls them live.
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
        """Attach a WAL coordinator; mutations now route through it.

        The coordinator makes its gateway calls (validate and apply on
        the leader, apply on a follower) through :meth:`_gateway`, like
        every other gateway call: they wait out a stall and run where
        the gateway runs.
        """
        if coordinator is not None:
            coordinator.run = self._gateway
            self.registry.register_provider("wal", coordinator.stats,
                                            **self._metrics_labels)
        self.wal = coordinator

    def call_serialized(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as a gateway call and return its
        result.

        The out-of-band way onto the loop that owns the gateway, for
        code on other threads (replica wiring, drills, benchmarks): the
        call waits out a :meth:`stall` and runs between two requests,
        never inside one.  A coroutine function is awaited on the loop
        after the stall; it makes its own gateway calls (the WAL
        coordinators' methods do, through :meth:`_gateway`).  Safe from
        any thread but the server's event loop.
        """
        if asyncio.iscoroutinefunction(fn):
            call = self._after_stall(fn(*args, **kwargs))
        else:
            call = self._gateway(fn, *args, **kwargs)
        return asyncio.run_coroutine_threadsafe(call, self._loop).result()

    async def _after_stall(self, coroutine):
        await self._unstalled()
        return await coroutine

    async def _gateway(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` on the gateway, once any stall is over.

        The one place that decides where a gateway call runs: on the
        loop for an in-process ``PredictionService``; on the private
        scorer thread for any other gateway (a ``ShardedScorer`` blocks
        on worker IPC), with the caller's context copied so trace spans
        still nest.  Once that thread is shut down (the replica is going
        away) the call raises :class:`FuserClosed`, which a fused read
        turns into a retryable error.
        """
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

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._server is not None and self._server.is_serving()

    async def start(self) -> "NetServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.max_in_flight)
        self._draining = False
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.watcher is not None:
            self.watcher.start()
        return self

    async def stop(self) -> None:
        """Graceful drain: finish in-flight requests, then close.

        Idle connections (blocked waiting for the next frame) are woken
        and closed; a connection mid-request finishes that request and
        flushes the reply first.  Safe to call more than once.
        """
        if self._server is None:
            return
        self._server.close()
        # Idle readers are woken *before* awaiting wait_closed(): on
        # Python >= 3.12.1 wait_closed() blocks until every connection
        # handler returns, and an idle handler returns only once its
        # read does.
        self._draining = True
        for reader, writer in self._connections.values():
            self._end_reads(reader, writer)
        if self.watcher is not None:
            self.watcher.stop()
        if self.fuser is not None:
            await self.fuser.drain()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        await self._close_wal()
        if self._scorer_thread is not None:
            self._scorer_thread.shutdown(wait=True)

    async def abort(self) -> None:
        """Abrupt shutdown: cancel connections without draining.

        The failure-injection path (:meth:`ReplicaSet.kill`): clients see
        resets/EOF mid-request, exactly like a crashed process, which is
        what the failover tests need to provoke.
        """
        if self._server is not None:
            self._server.close()
        if self.watcher is not None:
            self.watcher.stop()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._server = None
        await self._close_wal()
        if self._scorer_thread is not None:
            self._scorer_thread.shutdown(wait=False, cancel_futures=True)

    async def _close_wal(self) -> None:
        if self.wal is not None:
            wal, self.wal = self.wal, None
            await wal.close()

    # -- connection handling ----------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer))
        self._connections[task] = (reader, writer)
        task.add_done_callback(self._forget_connection)
        if self._draining:  # accepted in the same loop pass as stop()
            self._end_reads(reader, writer)

    def _forget_connection(self, task: asyncio.Task) -> None:
        self._connections.pop(task, None)

    @staticmethod
    def _end_reads(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        """Drain wake-up: stop the transport reading, then feed EOF, so
        a pending (or the next) read returns at once.  Pausing first
        means no ``feed_data`` can follow the EOF."""
        writer.transport.pause_reading()
        reader.feed_eof()

    async def _read_chunk(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bytes:
        """One transport read; empty (client EOF) once draining."""
        data = await reader.read(_READ_CHUNK)
        if self._draining:
            # read() resumes a transport its own flow control paused
            # once it consumes the backlog; pause again before the loop
            # polls, so no feed_data follows the EOF stop() fed.
            writer.transport.pause_reading()
            return b""
        return data

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.n_connections += 1
        decoder = FrameDecoder()
        pending: Set[asyncio.Task] = set()
        try:
            if not await self._handshake(reader, writer, decoder, pending):
                return
            while not self._draining:
                try:
                    data = await self._read_chunk(reader, writer)
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except ProtocolError as error:
                    self.n_protocol_errors += 1
                    await self._send(writer,
                                     Frame("error", {"message": str(error)}))
                    return
                for frame in frames:
                    await self._admit(writer, frame, pending)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # Flush concurrently-served (id-tagged) requests before the
            # socket closes, so a drain never truncates a pipeline.
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _admit(self, writer: asyncio.StreamWriter, frame: Frame,
                     pending: Set[asyncio.Task]) -> None:
        """Serve one request: concurrently when id-tagged, else in order.

        An ``id`` marks the client as pipelining-aware (it matches
        replies by id, so out-of-order completion is fine); bare frames
        keep the strict request/reply ordering raw-socket callers expect.
        """
        if frame.payload.get("id") is not None:
            task = asyncio.get_running_loop().create_task(
                self._respond_safely(writer, frame))
            pending.add(task)
            task.add_done_callback(pending.discard)
        else:
            await self._respond(writer, frame)

    async def _respond_safely(self, writer: asyncio.StreamWriter,
                              frame: Frame) -> None:
        try:
            await self._respond(writer, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         decoder: FrameDecoder,
                         pending: Set[asyncio.Task]) -> bool:
        """Read the hello frame; False when it is refused (version or
        shape mismatch) or the connection ends first."""
        while True:
            try:
                data = await self._read_chunk(reader, writer)
            except (ConnectionError, asyncio.IncompleteReadError):
                return False
            if not data:
                return False
            try:
                frames = decoder.feed(data)
            except ProtocolError as error:
                self.n_protocol_errors += 1
                await self._send(writer,
                                 Frame("error", {"message": str(error)}))
                return False
            if frames:
                break
        refusal = check_hello(frames[0])
        if refusal is not None:
            self.n_protocol_errors += 1
            await self._send(writer, refusal)
            return False
        await self._send(writer, Frame("ok", {
            "version": PROTOCOL_VERSION, "server": "repro-serving"}))
        # Any frames pipelined behind the hello are served in order.
        for frame in frames[1:]:
            await self._admit(writer, frame, pending)
        return True

    async def _send(self, writer: asyncio.StreamWriter,
                    frame: Frame) -> None:
        if frame.is_error:
            self.n_error_replies += 1
        # One write call per frame: writes are atomic appends to the
        # transport buffer, so concurrent pipelined replies interleave
        # at frame granularity, never inside one.
        writer.write(encode_frame(frame, binary=True))
        await writer.drain()

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

    def _shed_overload(self, frame: Frame) -> Optional[Frame]:
        """Admission control: refuse the request if its class's queue is
        full.  Runs before anything waits on the slot semaphore, so a
        shed request costs the server one frame decode and one error
        frame — nothing else."""
        if self.max_queue_depth is None or not self._slots.locked():
            return None
        cls = _request_class(frame.kind)
        if self._queued[cls] < self.max_queue_depth:
            return None
        self.n_overload_shed[cls] += 1
        return error_frame(
            f"overloaded: {self._queued[cls]} {cls}s already queued "
            f"behind {self.max_in_flight} in-flight requests",
            code=ERROR_OVERLOADED, retryable=True)

    async def _respond(self, writer: asyncio.StreamWriter,
                       frame: Frame) -> None:
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
        deadline = self._frame_deadline(frame, arrival)
        response = self._shed_overload(frame)
        if response is None:
            cls = _request_class(frame.kind)
            self._queued[cls] += 1
            try:
                await self._slots.acquire()
            finally:
                self._queued[cls] -= 1
            # Queue wait (slot acquisition) vs execute, split: the two
            # intervals that matter when diagnosing tail latency.
            queue_wait_ms = (time.monotonic() - arrival) * 1000.0
            self._queue_wait_ms.observe(queue_wait_ms)
            if admit is not None:
                self.tracer.emit("server.queue", parent=admit,
                                 dur_ms=queue_wait_ms,
                                 attrs={"class": cls})
            try:
                # The gate sits *after* the slot wait on purpose: time
                # spent queueing counts against the budget, so a request
                # that expired in the queue is shed before any gateway
                # work, not scored late.
                if deadline is not None and time.monotonic() >= deadline:
                    self.n_deadline_shed += 1
                    response = error_frame(
                        f"deadline_exceeded: {frame.kind!r} spent its "
                        f"{frame.payload.get('deadline_ms')} ms budget "
                        "queueing", code=ERROR_DEADLINE, retryable=True)
                elif self.fuser is not None and frame.kind == "top_n":
                    response = await self._fused_top_n(frame, deadline,
                                                       admit)
                elif frame.kind in ("wal_append", "wal_catchup") or (
                        frame.kind in MUTATION_KINDS
                        and (self.wal is not None or self.wal_expected)):
                    if admit is not None:
                        # Re-parent the downstream WAL spans (commit,
                        # append, ship, follower apply) on admission.
                        frame.payload["trace"] = admit.context().to_wire()
                    response = await self._respond_wal(frame)
                elif frame.kind == "metrics":
                    payload = await self._gateway(self.registry.snapshot)
                    response = Frame("ok", {"metrics": payload})
                elif frame.kind == "trace":
                    response = self._trace_reply(frame)
                else:
                    # arrays=True: replies keep the gateway's own ndarray
                    # response buffers, encoded once at _send — no
                    # per-element re-encode on the event loop.
                    response = await self._gateway(self._execute, frame,
                                                   admit)
            finally:
                self._slots.release()
        elif admit is not None:
            admit.set_attr("shed", "overload")
        if admit is not None:
            if response.is_error:
                admit.set_attr("error",
                               response.payload.get("message"))
            admit.finish()
        request_id = frame.payload.get("id")
        if request_id is not None:
            response.payload.setdefault("id", request_id)
        await self._send(writer, response)

    def _execute(self, frame: Frame, admit=None) -> Frame:
        """Plain gateway execution (one gateway call), wrapped in the
        execute histogram and — for traced requests — a
        ``server.execute`` span, active while it runs, so the layers
        below (scorer, chaos shims) attach children."""
        start = time.perf_counter()
        try:
            if admit is None:
                return execute(self.service, frame, self._health_extra,
                               True)
            with self.tracer.start("server.execute", parent=admit,
                                   attrs={"kind": frame.kind}):
                return execute(self.service, frame, self._health_extra,
                               True)
        finally:
            self._execute_ms.observe(
                (time.perf_counter() - start) * 1000.0)

    async def _fused_top_n(self, frame: Frame,
                           deadline: Optional[float] = None,
                           admit=None) -> Frame:
        """Route one ``top_n`` through the fuser.

        Arguments are validated *before* entering the window, so one bad
        request cannot poison the whole fused batch.  The deadline rides
        into the window: a waiter still queued when it passes is shed by
        the fuser instead of dispatched (see :class:`DeadlineExpired`).
        """
        payload = frame.payload
        try:
            user = int(payload["user"])
            n = int(payload.get("n", 10))
            check_positive("n", n)
            if not 0 <= user < self.service.n_users:
                # Raises: the shared out-of-range message.
                check_user_range(np.array([user], dtype=np.int64),
                                 self.service.n_users,
                                 self.service.n_train_users)
        except (ValidationError, KeyError, TypeError, ValueError,
                OverflowError) as error:
            return Frame("error", {"message": str(error)})
        try:
            recommendation = await self.fuser.top_n(
                user, n=n,
                exclude_seen=bool(payload.get("exclude_seen", True)),
                deadline=deadline,
                trace=admit.context() if admit is not None else None)
        except DeadlineExpired as error:
            self.n_deadline_shed += 1
            return error_frame(str(error), code=ERROR_DEADLINE,
                               retryable=True)
        except FuserClosed as error:
            return error_frame(str(error), retryable=True)
        except Exception as error:  # noqa: BLE001 - worker/gateway failure
            return Frame("error", {"message": str(error)})
        return Frame("ok", recommendation_payload(recommendation,
                                                  arrays=True))

    # -- chaos hooks --------------------------------------------------------

    def stall(self, seconds: float) -> None:
        """Wedge the gateway for ``seconds`` (fault injection).

        Every gateway call that starts before the stall is over — fused
        windows, plain requests, commits and applies,
        :meth:`call_serialized` — waits it out on the loop, while the
        loop keeps accepting, reading, queueing and shedding: the shape
        of a gateway stuck in a long worker IPC, the drill that provokes
        deadline expiry and queue shedding without killing anything.  A
        call already running finishes first.  In force before this
        returns; overlapping stalls merge.  Safe to call from any thread.
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
