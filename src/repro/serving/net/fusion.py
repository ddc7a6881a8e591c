"""Cross-user query fusion: coalesce concurrent ``top_n`` requests.

Under load many connections ask for rankings at once, and a request's
cost is mostly fixed overhead — a gateway dispatch (one IPC round-trip
per worker) per user.  :class:`QueryFuser` merges requests
arriving together into one
:meth:`~repro.serving.cluster.ShardedScorer.top_n_batch` call per
*window*: one fan-out, each worker sweeping its shard once for all
users of the window.

Dispatch is *eager*: a window's first request goes out on the next loop
pass (requests decoded from the same socket read still join it), so a
lone caller pays no window latency.  While a batch is in flight,
newcomers accumulate and flush the moment it completes; ``window_ms``
is only the fallback timer for that flush.

A request is a callback (:meth:`QueryFuser.submit`; :meth:`~QueryFuser.
top_n` is the awaitable form), and the server writes the reply from it.
The batch call is the server's gateway call: an in-process gateway with
no stall in force answers at once, and the window is scored and settled
inside its flush callback, with no task and no future; otherwise the
call hands back an awaitable, and the window is one task, in flight
until it settles its waiters.

Fused replies are bit-identical to serving each request alone (the
batch entry point runs the single-request arithmetic per user, pinned in
``tests/test_net_server.py`` and ``tests/test_serving_cluster.py``).  A
batch call that raises is *partitioned* — each distinct user retried
alone, so only the offender errors — and a user missing from a result
gets a ``LookupError``: no request is left unsettled.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import NULL_SPAN, Span, TraceContext, Tracer, activated

__all__ = ["QueryFuser", "DeadlineExpired", "FuserClosed", "FUSE_MAX_BATCH"]

#: A window flushes at once when this many requests are pending.
FUSE_MAX_BATCH = 64


class FuserClosed(RuntimeError):
    """A window could not be scored: the gateway is shut down (the
    replica is going away).  Nothing was scored, so the server answers
    with a retryable error frame."""


class DeadlineExpired(RuntimeError):
    """A fused request's deadline ran out while it queued for dispatch.

    It settles the waiter *instead of* scoring it: expired work is shed
    at the flush boundary, so no worker fan-out computes results nobody
    is still waiting for.  The server answers ``deadline_exceeded``.
    """


class QueryFuser:
    """Eagerly-dispatched coalescer for concurrent ``top_n`` requests.

    Parameters
    ----------
    top_n_batch:
        ``(users, n=..., exclude_seen=...) -> Dict[int, Recommendation]``
        — the gateway's batch entry point, called once per window; it may
        return an awaitable of that mapping instead (see module docs).
    window_ms:
        Fallback flush timer for a window accumulating behind an
        in-flight batch.  Dispatch is eager (see module docstring), so
        this bounds worst-case queueing, not common-case latency.
    max_batch:
        Flush immediately once this many requests are pending
        (:data:`FUSE_MAX_BATCH`).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: a traced window gets a
        ``fusion.window`` span (parented on its first traced waiter) and
        one ``fusion.waiter`` child per request, in demultiplex order.
    """

    def __init__(self, top_n_batch, window_ms: float = 2.0,
                 max_batch: int = FUSE_MAX_BATCH, tracer: Optional[Tracer] = None):
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._top_n_batch = top_n_batch
        self.window_ms = float(window_ms)
        self.max_batch = int(max_batch)
        self._tracer = tracer
        # key -> list of (user, deadline, trace, done): one window per
        # (n, exclude_seen), so a flush is one homogeneous batch call;
        # ``deadline`` is an absolute time.monotonic() instant or None.
        self._pending: Dict[Tuple[int, bool], List[tuple]] = {}
        self._timers: Dict[Tuple[int, bool], asyncio.TimerHandle] = {}
        #: Window tasks in flight -> the batch awaitable each awaits.
        self._in_flight: Dict[asyncio.Task, object] = {}
        self.n_requests = 0
        self.n_windows = 0
        self.n_deduplicated = 0
        self.n_partitions = 0
        self.n_expired = 0
        self.max_window = 0

    def submit(self, user: int, n: int, exclude_seen: bool,
               deadline: Optional[float], trace: Optional[TraceContext],
               done: Callable) -> None:
        """Queue one validated request; ``done(recommendation, error)``
        settles it, with exactly one of the two ``None``.  A waiter still
        queued past its ``deadline`` (``time.monotonic()`` seconds) is
        settled with :class:`DeadlineExpired`, never dispatched; ``trace``
        is its context for the window span."""
        key = (n, exclude_seen)
        waiters = self._pending.setdefault(key, [])
        waiters.append((user, deadline,
                        trace if self._tracer is not None else None, done))
        self.n_requests += 1
        if len(waiters) >= self.max_batch:
            self._flush(key)
        elif len(waiters) == 1:
            loop = asyncio.get_running_loop()
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

    async def top_n(self, user: int, n: int = 10, exclude_seen: bool = True,
                    deadline: Optional[float] = None,
                    trace: Optional[TraceContext] = None):
        """:meth:`submit`, awaited: the Recommendation or its error."""
        future = asyncio.get_running_loop().create_future()
        self.submit(int(user), int(n), bool(exclude_seen),
                    float(deadline) if deadline is not None else None,
                    trace, functools.partial(_settle, future))
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
        handed to a scorer — it is settled with :class:`DeadlineExpired`
        right here, at the flush boundary.
        """
        now = time.monotonic()
        alive = []
        for waiter in waiters:
            user, deadline, _, done = waiter
            if deadline is not None and now >= deadline:
                self.n_expired += 1
                done(None, DeadlineExpired(
                    f"top_n for user {user} queued past its deadline "
                    f"({(now - deadline) * 1000.0:.1f} ms over)"))
            else:
                alive.append(waiter)
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
        users = [waiter[0] for waiter in waiters]
        self.n_deduplicated += len(users) - len(set(users))
        n, exclude_seen = key
        # One parent span per traced window, parented on the first
        # traced waiter and active around the batch call (and in the
        # window task), so the scorer and any chaos shim below attach
        # their children with no plumbing.
        window_span: Optional[Span] = None
        if self._tracer is not None:
            parent = next((waiter[2] for waiter in waiters
                           if waiter[2] is not None), None)
            if parent is not None:
                window_span = self._tracer.start(
                    "fusion.window", parent=parent,
                    attrs={"users": len(users),
                           "distinct": len(set(users)),
                           "n": n, "exclude_seen": exclude_seen})
        try:
            if window_span is None:
                results = self._top_n_batch(users, n=n,
                                            exclude_seen=exclude_seen)
            else:
                with activated(window_span):
                    results = self._top_n_batch(users, n=n,
                                                exclude_seen=exclude_seen)
        except Exception as error:  # noqa: BLE001 - partitioned
            if window_span is not None:
                window_span.set_attr("error", repr(error))
                window_span.finish()
            self._start(self._partition(key, waiters, error))
            return
        if inspect.isawaitable(results):
            self._start(self._run_window(key, waiters, results,
                                         window_span), results)
            return
        if window_span is not None:
            window_span.finish()
        self._resolve(waiters, results, window_span)

    def _start(self, coroutine, awaited=None) -> None:
        """One window task, in flight until its waiters are settled."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._in_flight[task] = awaited
        task.add_done_callback(self._window_done)

    def _window_done(self, task: asyncio.Task) -> None:
        awaited = self._in_flight.pop(task)
        if inspect.iscoroutine(awaited):
            awaited.close()  # unawaited if cancelled before its first step
        if not self._in_flight and not task.cancelled():
            for pending_key in list(self._pending):
                self._flush(pending_key)

    async def _run_window(self, key: Tuple[int, bool], waiters, pending,
                          window_span: Optional[Span]) -> None:
        try:
            with window_span if window_span is not None else NULL_SPAN:
                results = await pending
        except Exception as error:  # noqa: BLE001 - partitioned
            await self._partition(key, waiters, error)
        else:
            self._resolve(waiters, results, window_span)

    def _resolve(self, waiters, results,
                 window_span: Optional[Span] = None) -> None:
        """Demultiplex one batch result onto its waiters.

        A user absent from ``results`` gets a per-request LookupError —
        indexing straight into the mapping would raise mid-window and
        leave every later waiter unsettled.

        Traced windows emit one ``fusion.waiter`` child per waiter as
        it resolves, so the child-span order matches the response order
        exactly (the invariant ``tests/test_obs_tracing.py`` pins).
        """
        for index, (user, _, trace, done) in enumerate(waiters):
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
            if user in results:
                done(results[user], None)
            else:
                done(None, LookupError(
                    f"user {user} missing from fused batch result"))

    async def _partition(self, key: Tuple[int, bool], waiters,
                         error: BaseException) -> None:
        """A batch call raised: retry each distinct user alone.

        One invalid user must not poison the window — every other
        request re-runs as a singleton batch and resolves normally;
        only the offender gets its own error.  A window of one skips
        the retry (the error is already correctly attributed).
        """
        by_user: Dict[int, List[Callable]] = {}
        for user, _, _, done in waiters:
            by_user.setdefault(user, []).append(done)
        if len(by_user) == 1:
            for dones in by_user.values():
                _fail(dones, error)
            return
        self.n_partitions += 1
        n, exclude_seen = key
        for user, dones in by_user.items():
            try:
                results = self._top_n_batch([user], n=n,
                                            exclude_seen=exclude_seen)
                if inspect.isawaitable(results):
                    results = await results
            except Exception as single:  # noqa: BLE001 - this user's own
                _fail(dones, single)
                continue
            if user not in results:
                _fail(dones, LookupError(
                    f"user {user} missing from fused batch result"))
                continue
            for done in dones:
                done(results[user], None)

    async def drain(self) -> None:
        """Flush every window and wait until nothing is pending."""
        while self._pending or self._in_flight:
            for key in list(self._pending):
                self._flush(key)
            if self._in_flight:
                await asyncio.gather(*self._in_flight,
                                     return_exceptions=True)

    def cancel(self) -> List[asyncio.Task]:
        """Cancel the windows in flight (a hard kill drops their waiters)."""
        tasks = list(self._in_flight)
        for task in tasks:
            task.cancel()
        return tasks

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


def _settle(future: asyncio.Future, result, error) -> None:
    if not future.done():
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)


def _fail(dones, error: BaseException) -> None:
    for done in dones:
        done(None, error)
