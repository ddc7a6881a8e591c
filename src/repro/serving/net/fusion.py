"""Cross-user query fusion: coalesce concurrent ``top_n`` requests.

Under heavy traffic many connections ask for rankings at once, and the
per-request cost is dominated by fixed overhead — a full gateway dispatch
(lock, delta flush, one IPC round-trip per worker) per user.
:class:`QueryFuser` batches them: requests arriving together are merged
into a single
:meth:`~repro.serving.cluster.ShardedScorer.top_n_batch` call — one
fan-out to the workers per *window*, with each worker sweeping its shard
once for all users of the window (a blocked GEMM over users x shard whose
microkernel is the single-user GEMV).

Dispatch is *eager*: the first request of a window goes out on the next
event-loop pass (so requests decoded from the same socket read still
join it), which means a lone sequential caller pays no window latency at
all.  While a batch is in flight, newcomers accumulate and are flushed
the moment it completes — natural batching under load, zero added
latency when idle.  ``window_ms`` is the fallback timer bounding how
long an accumulating window can wait if completion flushing is delayed.

Every window is one task on the event loop that awaits the gateway's
``top_n_batch`` coroutine.  Where the scoring itself runs is the
server's choice, made in one place (the gateway call of
:class:`~repro.serving.net.server.NetServer`): on the loop for an
in-process gateway, on a private thread for one that blocks on worker
IPC.  A window is in flight from its dispatch until its task
settles its waiters.

De-multiplexing is bit-identical to serving each request alone: the batch
entry point runs the exact single-request arithmetic per user (pinned by
the parity tests in ``tests/test_net_server.py`` and
``tests/test_serving_cluster.py``), and duplicate users inside one window
share one computation and one identical result.

Failure containment: a batch call that raises is *partitioned* — every
distinct user of the window is retried as a singleton batch, so only the
offending request surfaces the error and the rest of the window resolves
normally.  A user missing from a batch result gets a per-future
``LookupError``; no future is ever left pending.

The fuser is transport-agnostic: it only needs an asyncio loop and a
``top_n_batch`` coroutine function, so it is testable without sockets.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.trace import Span, TraceContext, Tracer

__all__ = ["QueryFuser", "DeadlineExpired", "FuserClosed"]


class FuserClosed(RuntimeError):
    """A window could not be scored: the gateway is shut down.

    Raised by the batch call (the server's gateway call, once the
    replica is going away — stopped or killed), so nothing was scored
    and the request is safe to retry on another replica; the server
    turns this into a retryable error frame.
    """


class DeadlineExpired(RuntimeError):
    """A fused request's deadline ran out while it queued for dispatch.

    Raised on the waiter's future *instead of* scoring it: expired work
    is shed at the flush boundary, so a slow batch ahead in the queue
    never causes the gateway to burn a worker fan-out computing results
    nobody is still waiting for.  The server turns this into a
    ``deadline_exceeded`` error frame.
    """


class QueryFuser:
    """Eagerly-dispatched coalescer for concurrent ``top_n`` requests.

    Parameters
    ----------
    top_n_batch:
        Coroutine function ``(users, n=..., exclude_seen=...) ->
        Dict[int, Recommendation]`` — the gateway's batch entry point,
        awaited once per window (see the module docstring).
    window_ms:
        Fallback flush timer for a window accumulating behind an
        in-flight batch.  Dispatch is eager (see module docstring), so
        this bounds worst-case queueing, not common-case latency.
    max_batch:
        Flush immediately once this many requests are pending.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  A traced window
        gets one ``fusion.window`` span (parented on the first traced
        waiter, covering the batch dispatch) plus one ``fusion.waiter``
        child per request, emitted in demultiplex order — the span
        order is bit-consistent with the response order.
    """

    def __init__(self, top_n_batch, window_ms: float = 2.0,
                 max_batch: int = 64, tracer: Optional[Tracer] = None):
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._top_n_batch = top_n_batch
        self.window_ms = float(window_ms)
        self.max_batch = int(max_batch)
        self._tracer = tracer
        # key -> list of (user, future, deadline, trace); one window per
        # (n, exclude_seen) key so a flush is a single homogeneous batch
        # call.  ``deadline`` is an absolute time.monotonic() instant or
        # None; expired waiters are shed at flush, never dispatched.
        # ``trace`` is the waiter's TraceContext (or None).
        self._pending: Dict[Tuple[int, bool],
                            List[Tuple[int, asyncio.Future,
                                       Optional[float],
                                       Optional[TraceContext]]]] = {}
        self._timers: Dict[Tuple[int, bool], asyncio.TimerHandle] = {}
        self._in_flight: Set[asyncio.Task] = set()
        self.n_requests = 0
        self.n_windows = 0
        self.n_deduplicated = 0
        self.n_partitions = 0
        self.n_expired = 0
        self.max_window = 0

    async def top_n(self, user: int, n: int = 10, exclude_seen: bool = True,
                    deadline: Optional[float] = None,
                    trace: Optional[TraceContext] = None):
        """Queue one request; resolves with the user's Recommendation.

        ``deadline`` (absolute ``time.monotonic()`` seconds) marks when
        the caller stops caring: a waiter still queued past it gets
        :class:`DeadlineExpired` instead of being dispatched.  ``trace``
        carries the request's trace context into the window (ignored
        without a tracer).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = (int(n), bool(exclude_seen))
        waiters = self._pending.setdefault(key, [])
        waiters.append((int(user), future,
                        float(deadline) if deadline is not None else None,
                        trace if self._tracer is not None else None))
        self.n_requests += 1
        if len(waiters) >= self.max_batch:
            self._flush(key)
        elif len(waiters) == 1:
            if not self._in_flight:
                # Eager path: flush on the next loop pass, after every
                # request already decoded from the same socket read has
                # had its chance to join the window.
                loop.call_soon(self._flush_if_idle, key)
            else:
                # Busy: accumulate behind the in-flight batch; the timer
                # is the fallback in case the completion flush stalls.
                self._timers[key] = loop.call_later(
                    self.window_ms / 1000.0, self._flush, key)
        return await future

    def _flush_if_idle(self, key: Tuple[int, bool]) -> None:
        if not self._in_flight:
            self._flush(key)
        elif key in self._pending and key not in self._timers:
            # A batch got in flight between enqueue and this callback;
            # fall back to accumulate-with-timer.
            self._timers[key] = asyncio.get_running_loop().call_later(
                self.window_ms / 1000.0, self._flush, key)

    def _expire(self, waiters) -> list:
        """Shed waiters whose deadline has passed; returns the live rest.

        The invariant the chaos tests pin: an expired request is *never*
        handed to a scorer — its future fails with
        :class:`DeadlineExpired` right here, at the flush boundary.
        """
        now = time.monotonic()
        alive = []
        for user, future, deadline, trace in waiters:
            if deadline is not None and now >= deadline:
                self.n_expired += 1
                if not future.done():
                    future.set_exception(DeadlineExpired(
                        f"top_n for user {user} queued past its deadline "
                        f"({(now - deadline) * 1000.0:.1f} ms over)"))
            else:
                alive.append((user, future, deadline, trace))
        return alive

    def _flush(self, key: Tuple[int, bool]) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        waiters = self._pending.pop(key, None)
        if waiters:
            waiters = self._expire(waiters)
        if not waiters:
            return
        self.n_windows += 1
        self.max_window = max(self.max_window, len(waiters))
        users = [user for user, _, _, _ in waiters]
        self.n_deduplicated += len(users) - len(set(users))
        # One parent span per traced window, parented on the first
        # traced waiter.  The window task enters it around the batch
        # call, which makes it the task's active span, so the scorer and
        # any chaos shim below attach their children with no plumbing.
        window_span: Optional[Span] = None
        if self._tracer is not None:
            parent = next((trace for _, _, _, trace in waiters
                           if trace is not None), None)
            if parent is not None:
                n, exclude_seen = key
                window_span = self._tracer.start(
                    "fusion.window", parent=parent,
                    attrs={"users": len(users),
                           "distinct": len(set(users)),
                           "n": n, "exclude_seen": exclude_seen})
        task = asyncio.get_running_loop().create_task(
            self._run_window(key, waiters, users, window_span))
        self._in_flight.add(task)

    async def _run_window(self, key: Tuple[int, bool], waiters, users,
                          window_span: Optional[Span]) -> None:
        """Score one window and settle its waiters; then, with nothing
        else in flight, flush whatever accumulated behind it."""
        n, exclude_seen = key
        try:
            try:
                if window_span is None:
                    results = await self._top_n_batch(
                        users, n=n, exclude_seen=exclude_seen)
                else:
                    with window_span:
                        results = await self._top_n_batch(
                            users, n=n, exclude_seen=exclude_seen)
            except Exception as error:  # noqa: BLE001 - partitioned
                await self._partition(key, waiters, error)
            else:
                self._resolve(waiters, results, window_span)
        except asyncio.CancelledError:
            for _, future, _, _ in waiters:
                future.cancel()
            raise
        finally:
            self._in_flight.discard(asyncio.current_task())
        # Eager follow-up: whatever accumulated while this batch was in
        # flight goes out now, without waiting for its fallback timer.
        if not self._in_flight:
            for pending_key in list(self._pending):
                self._flush(pending_key)

    def _resolve(self, waiters, results,
                 window_span: Optional[Span] = None) -> None:
        """Demultiplex one batch result onto its waiters.

        A user absent from ``results`` gets a per-future LookupError —
        indexing straight into the mapping would raise inside the window
        task and leave every later waiter pending forever.

        Traced windows emit one ``fusion.waiter`` child per waiter as
        it resolves, so the child-span order matches the response order
        exactly (the invariant ``tests/test_obs_tracing.py`` pins).
        """
        for index, (user, future, _, trace) in enumerate(waiters):
            if window_span is not None:
                attrs: Dict[str, object] = {"user": user, "index": index}
                if trace is not None \
                        and trace.trace_id != window_span.trace_id:
                    # Cross-trace join: the waiter rode a window rooted
                    # in another request's trace; link, don't re-parent.
                    attrs["origin_trace_id"] = trace.trace_id
                    attrs["origin_span_id"] = trace.span_id
                self._tracer.emit("fusion.waiter", parent=window_span,
                                  attrs=attrs)
            if future.done():
                continue
            if user in results:
                future.set_result(results[user])
            else:
                future.set_exception(LookupError(
                    f"user {user} missing from fused batch result"))

    async def _partition(self, key: Tuple[int, bool], waiters,
                         error: BaseException) -> None:
        """A batch call raised: retry each distinct user alone.

        One invalid user must not poison the window — every other
        request re-runs as a singleton batch and resolves normally;
        only the offender gets its own error.  A window of one skips
        the retry (the error is already correctly attributed).
        """
        by_user: Dict[int, List[asyncio.Future]] = {}
        for user, future, _, _ in waiters:
            by_user.setdefault(user, []).append(future)
        if len(by_user) == 1:
            for futures in by_user.values():
                _fail(futures, error)
            return
        self.n_partitions += 1
        n, exclude_seen = key
        for user, futures in by_user.items():
            try:
                results = await self._top_n_batch(
                    [user], n=n, exclude_seen=exclude_seen)
            except Exception as single:  # noqa: BLE001 - this user's own
                _fail(futures, single)
                continue
            if user not in results:
                _fail(futures, LookupError(
                    f"user {user} missing from fused batch result"))
                continue
            for future in futures:
                if not future.done():
                    future.set_result(results[user])

    async def drain(self) -> None:
        """Flush every window and wait until nothing is pending."""
        while self._pending or self._in_flight:
            futures = [future for waiters in self._pending.values()
                       for _, future, _, _ in waiters]
            for key in list(self._pending):
                self._flush(key)
            awaitables = futures + list(self._in_flight)
            if not awaitables:
                break
            await asyncio.gather(*awaitables, return_exceptions=True)

    def metrics(self) -> Dict[str, int]:
        """Fusion counters: the ``health`` frame's ``fusion`` block, and
        ``serving.fusion.*`` in registry snapshots."""
        return {
            "requests": self.n_requests,
            "windows": self.n_windows,
            "deduplicated": self.n_deduplicated,
            "partitions": self.n_partitions,
            "expired": self.n_expired,
            "max_window": self.max_window,
        }


def _fail(futures, error: BaseException) -> None:
    for future in futures:
        if not future.done():
            future.set_exception(error)
