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

Where a window is scored depends on the gateway.  Every batch call
holds the gateway ``lock`` when one is given (the server's, the rule
that serializes gateway state).  An in-process gateway gets that lock:
at flush time the fuser *tries* it without blocking, and if it is free
the window is scored inline on the event loop, skipping the
loop -> executor -> loop round trip; if a commit, an apply or a stall
holds it, the window goes to the executor as before and queues behind
the holder.  The loop therefore never waits on the lock.  A gateway that
blocks on worker IPC (:class:`~repro.serving.cluster.ShardedScorer`)
gets no lock here: its ``top_n_batch`` takes the lock itself and always
runs on the executor.

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
``top_n_batch`` callable, so it is testable without sockets.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.trace import Span, TraceContext, Tracer

__all__ = ["QueryFuser", "DeadlineExpired", "FuserClosed"]


class FuserClosed(RuntimeError):
    """A window could not be dispatched: the gateway executor is shut down.

    The replica is going away (stopped or killed), so nothing was scored
    and the request is safe to retry on another replica; the server turns
    this into a retryable error frame.
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
        Callable ``(users, n=..., exclude_seen=...) -> Dict[int,
        Recommendation]`` — the gateway's batch entry point.  It runs in
        ``executor``, or inline on the loop when ``lock`` is given and
        free (see the module docstring).
    window_ms:
        Fallback flush timer for a window accumulating behind an
        in-flight batch.  Dispatch is eager (see module docstring), so
        this bounds worst-case queueing, not common-case latency.
    max_batch:
        Flush immediately once this many requests are pending.
    executor:
        Passed to ``loop.run_in_executor`` for the batch call.
    lock:
        Optional gateway lock (a ``threading.Lock``).  Every batch call
        holds it, and a flush that can take it without blocking scores
        its window inline on the event loop (counted as ``inline``).
        Give it only for a gateway that computes in process.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  A traced window
        gets one ``fusion.window`` span (parented on the first traced
        waiter, covering the batch dispatch) plus one ``fusion.waiter``
        child per request, emitted in demultiplex order — the span
        order is bit-consistent with the response order.
    """

    def __init__(self, top_n_batch, window_ms: float = 2.0,
                 max_batch: int = 64, executor=None,
                 tracer: Optional[Tracer] = None, lock=None):
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._top_n_batch = top_n_batch
        self.window_ms = float(window_ms)
        self.max_batch = int(max_batch)
        self._executor = executor
        self._tracer = tracer
        self._lock = lock
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
        self._in_flight: Set[asyncio.Future] = set()
        self.n_requests = 0
        self.n_windows = 0
        self.n_deduplicated = 0
        self.n_partitions = 0
        self.n_expired = 0
        self.n_inline = 0
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
        n, exclude_seen = key
        loop = asyncio.get_running_loop()
        # One parent span per traced window, parented on the first
        # traced waiter.  Entering it inside run_batch (on whichever
        # thread scores the window) makes it the thread's active span,
        # so the scorer and any chaos shim below attach their children
        # with no plumbing.
        window_span: Optional[Span] = None
        if self._tracer is not None:
            parent = next((trace for _, _, _, trace in waiters
                           if trace is not None), None)
            if parent is not None:
                window_span = self._tracer.start(
                    "fusion.window", parent=parent,
                    attrs={"users": len(users),
                           "distinct": len(set(users)),
                           "n": n, "exclude_seen": exclude_seen})

        def run_batch():
            if window_span is None:
                return self._top_n_batch(users, n=n,
                                         exclude_seen=exclude_seen)
            with window_span:
                return self._top_n_batch(users, n=n,
                                         exclude_seen=exclude_seen)

        done = self._run_inline(loop, run_batch)
        if done is not None:
            self.n_inline += 1
            self._settle(key, waiters, done, window_span)
            return
        task = self._dispatch(loop, run_batch,
                              [future for _, future, _, _ in waiters])
        if task is None:
            if window_span is not None:
                window_span.finish()
            return
        task.add_done_callback(
            lambda done: self._on_batch_done(key, waiters, done,
                                             window_span))

    def _run_inline(self, loop, call) -> Optional[asyncio.Future]:
        """Run ``call`` on the loop if the lock is free right now.

        Returns an already-settled future carrying its result or error,
        or ``None`` (no lock given, or someone holds it) — the caller
        then dispatches to the executor.  Never blocks.
        """
        if self._lock is None or not self._lock.acquire(blocking=False):
            return None
        done = loop.create_future()
        try:
            done.set_result(call())
        except Exception as error:  # noqa: BLE001 - settled as on the executor
            done.set_exception(error)
        finally:
            self._lock.release()
        return done

    def _dispatch(self, loop, call, futures) -> Optional[asyncio.Future]:
        """Run ``call`` on the executor as an in-flight batch, holding
        the lock when there is one; if the executor is shut down, fail
        ``futures`` with :class:`FuserClosed` instead (the window was
        already popped, so nobody else would resolve them) and return
        ``None``."""
        if self._lock is not None:
            call = functools.partial(_holding, self._lock, call)
        try:
            task = loop.run_in_executor(self._executor, call)
        except RuntimeError as error:  # cannot schedule after shutdown
            for future in futures:
                if not future.done():
                    future.set_exception(FuserClosed(
                        f"fused top_n not dispatched: {error}"))
            return None
        self._in_flight.add(task)
        return task

    def _on_batch_done(self, key: Tuple[int, bool], waiters,
                       done: asyncio.Future,
                       window_span: Optional[Span] = None) -> None:
        self._in_flight.discard(done)
        self._settle(key, waiters, done, window_span)
        # Eager follow-up: whatever accumulated while this batch was in
        # flight goes out now, without waiting for its fallback timer.
        if not self._in_flight:
            for pending_key in list(self._pending):
                self._flush(pending_key)

    def _settle(self, key: Tuple[int, bool], waiters, done: asyncio.Future,
                window_span: Optional[Span] = None) -> None:
        """Hand one finished batch call's outcome to its waiters."""
        if done.cancelled():
            for _, future, _, _ in waiters:
                if not future.done():
                    future.cancel()
        elif done.exception() is not None:
            self._partition(key, waiters, done.exception())
        else:
            self._resolve(waiters, done.result(), window_span)

    def _resolve(self, waiters, results,
                 window_span: Optional[Span] = None) -> None:
        """Demultiplex one batch result onto its waiters.

        A user absent from ``results`` gets a per-future LookupError —
        indexing straight into the mapping would raise inside this done
        callback and leave every later waiter pending forever.

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

    def _partition(self, key: Tuple[int, bool], waiters,
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
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
            return
        self.n_partitions += 1
        n, exclude_seen = key
        loop = asyncio.get_running_loop()
        for user, futures in by_user.items():
            call = functools.partial(self._top_n_batch, [user], n=n,
                                     exclude_seen=exclude_seen)
            done = self._run_inline(loop, call)
            if done is not None:
                self._resolve_single(user, futures, done)
                continue
            task = self._dispatch(loop, call, futures)
            if task is not None:
                task.add_done_callback(
                    lambda done, u=user, fs=futures:
                    self._resolve_single(u, fs, done))

    def _resolve_single(self, user: int, futures, done) -> None:
        self._in_flight.discard(done)
        if done.cancelled():
            for future in futures:
                if not future.done():
                    future.cancel()
            return
        error = done.exception()
        if error is None:
            results = done.result()
            if user in results:
                for future in futures:
                    if not future.done():
                        future.set_result(results[user])
                return
            error = LookupError(
                f"user {user} missing from fused batch result")
        for future in futures:
            if not future.done():
                future.set_exception(error)

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
            "inline": self.n_inline,
            "max_window": self.max_window,
        }


def _holding(lock, call):
    """``call()`` with ``lock`` held (an executor-side batch call)."""
    with lock:
        return call()
