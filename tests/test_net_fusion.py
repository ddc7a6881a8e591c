"""QueryFuser failure-containment tests, sans sockets.

The fuser is transport-agnostic (a loop plus a ``top_n_batch``
callable), so the failure modes the PR fixes are pinned directly:

* one invalid user in a fused window must not poison its co-fused
  neighbours — the window is partitioned and only the offender errors,
  with the valid results bit-identical to a clean batch;
* a user missing from the batch result mapping must resolve to a
  ``LookupError`` — never a hang (the old ``results[user]`` lookup threw
  inside a done-callback and left every later future pending forever);
* dispatch is eager: a lone caller pays no window latency, and windows
  accumulating behind an in-flight batch flush on its completion.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serving.net.fusion import QueryFuser


class _Gateway:
    """A fake batch entry point with programmable failures."""

    def __init__(self, n_items: int = 20, poison=(), drop=()):
        self.poison = set(poison)   # users that raise for the whole batch
        self.drop = set(drop)       # users silently absent from results
        self.n_items = n_items
        self.calls: list[list[int]] = []
        self.lock = threading.Lock()

    def top_n_batch(self, users, n=10, exclude_seen=True):
        with self.lock:
            self.calls.append(list(users))
        bad = self.poison.intersection(users)
        if bad:
            raise ValueError(f"invalid users {sorted(bad)}")
        rng_free = {}
        for user in dict.fromkeys(int(u) for u in users):
            if user in self.drop:
                continue
            rng = np.random.default_rng(user)
            items = rng.permutation(self.n_items)[:n].astype(np.int64)
            scores = rng.standard_normal(n)
            rng_free[user] = (items, scores)
        return rng_free


def _run(coro):
    return asyncio.run(coro)


def test_lone_request_dispatches_eagerly_as_window_of_one():
    gateway = _Gateway()
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=10_000.0)
        items, scores = await fuser.top_n(3, n=5)
        assert items.shape == (5,)
        return fuser.stats()
    stats = _run(scenario())
    # A 10-second fallback window added no latency: the request went out
    # on the next loop pass (the test would time out otherwise).
    assert stats["fusion_windows"] == 1
    assert gateway.calls == [[3]]


def test_concurrent_requests_fuse_and_match_singletons():
    gateway = _Gateway()
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        results = await asyncio.gather(*[fuser.top_n(user, n=4)
                                         for user in (1, 2, 3, 2)])
        return fuser.stats(), results
    stats, results = _run(scenario())
    assert stats["fusion_requests"] == 4
    for user, (items, scores) in zip((1, 2, 3, 2), results):
        solo_items, solo_scores = gateway.top_n_batch([user], n=4)[user]
        assert items.tolist() == solo_items.tolist()
        assert scores.tobytes() == solo_scores.tobytes()


def test_poisoned_window_partitions_only_the_offender_errors():
    gateway = _Gateway(poison={99})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        return await asyncio.gather(
            *[fuser.top_n(user, n=4) for user in (1, 99, 2, 3)],
            return_exceptions=True), fuser.stats()
    results, stats = _run(scenario())
    assert isinstance(results[1], ValueError)
    for user, result in zip((1, 2, 3), (results[0], results[2], results[3])):
        assert not isinstance(result, BaseException), result
        items, scores = result
        solo_items, solo_scores = gateway.top_n_batch([user], n=4)[user]
        assert items.tolist() == solo_items.tolist()
        assert scores.tobytes() == solo_scores.tobytes()
    assert stats["fusion_partitions"] >= 1


def test_singleton_poisoned_window_skips_the_retry():
    gateway = _Gateway(poison={99})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        with pytest.raises(ValueError, match="invalid users"):
            await fuser.top_n(99, n=4)
        return fuser.stats()
    stats = _run(scenario())
    assert stats["fusion_partitions"] == 0
    assert gateway.calls == [[99]]  # no pointless singleton re-run


def test_missing_user_resolves_with_lookup_error_not_a_hang():
    gateway = _Gateway(drop={7})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        results = await asyncio.wait_for(
            asyncio.gather(*[fuser.top_n(user, n=4) for user in (7, 1, 2)],
                           return_exceptions=True),
            timeout=10.0)
        await fuser.drain()
        return results
    results = _run(scenario())
    assert isinstance(results[0], LookupError)
    assert "user 7 missing" in str(results[0])
    for result in results[1:]:
        assert not isinstance(result, BaseException), result


def test_missing_user_in_partition_retry_also_gets_lookup_error():
    # Poison forces the partition path; the dropped user then comes back
    # empty from its singleton retry as well.
    gateway = _Gateway(poison={99}, drop={7})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        return await asyncio.wait_for(
            asyncio.gather(*[fuser.top_n(user, n=4) for user in (7, 99, 1)],
                           return_exceptions=True),
            timeout=10.0)
    results = _run(scenario())
    assert isinstance(results[0], LookupError)
    assert isinstance(results[1], ValueError)
    assert not isinstance(results[2], BaseException)


def test_windows_accumulate_behind_in_flight_batch_then_flush():
    release = threading.Event()
    gateway = _Gateway()
    inner = gateway.top_n_batch

    def slow_batch(users, n=10, exclude_seen=True):
        result = inner(users, n=n, exclude_seen=exclude_seen)
        release.wait(timeout=10.0)
        return result

    async def scenario():
        fuser = QueryFuser(slow_batch, window_ms=10_000.0)
        first = asyncio.ensure_future(fuser.top_n(1, n=4))
        await asyncio.sleep(0.05)  # first batch now in flight
        laters = [asyncio.ensure_future(fuser.top_n(user, n=4))
                  for user in (2, 3, 4)]
        await asyncio.sleep(0.05)  # newcomers accumulate, none dispatched
        assert len(gateway.calls) == 1
        release.set()
        await asyncio.wait_for(asyncio.gather(first, *laters), timeout=10.0)
        return fuser.stats()

    stats = _run(scenario())
    # The 10-second fallback timer never fired: completion flushed the
    # accumulated window, and it went out as one fused batch.
    assert stats["fusion_windows"] == 2
    assert stats["fusion_max_window"] == 3
    assert sorted(gateway.calls[1]) == [2, 3, 4]


def test_drain_settles_everything():
    gateway = _Gateway(drop={5})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=50.0)
        futures = [asyncio.ensure_future(fuser.top_n(user, n=4))
                   for user in (5, 6)]
        await asyncio.sleep(0)  # let the requests enqueue
        await fuser.drain()
        assert all(future.done() for future in futures)
        assert isinstance(futures[0].exception(), LookupError)
        assert futures[1].exception() is None
    _run(scenario())


def test_window_flushed_after_executor_shutdown_fails_retryably(caplog):
    """A replica killed with a window pending: the flush cannot reach the
    shut-down gateway executor, and every popped waiter gets a retryable
    FuserClosed instead of staying pending behind a logged RuntimeError."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.serving.net.fusion import FuserClosed

    gateway = _Gateway()
    executor = ThreadPoolExecutor(max_workers=1)
    executor.shutdown()

    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, executor=executor)
        futures = [asyncio.ensure_future(fuser.top_n(user, n=4))
                   for user in (1, 2)]
        for _ in range(3):
            await asyncio.sleep(0)
        return futures

    with caplog.at_level("INFO"):
        futures = _run(scenario())
    assert all(isinstance(future.exception(), FuserClosed)
               for future in futures)
    assert gateway.calls == []
    assert caplog.records == []
