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
  accumulating behind an in-flight batch flush on its completion;
* a window whose gateway is shut down fails every waiter retryably.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.net.fusion import FuserClosed, QueryFuser
from repro.serving.net.server import NetServer
from repro.serving.service import PredictionService


class _Gateway:
    """A fake batch entry point with programmable failures."""

    def __init__(self, n_items: int = 20, poison=(), drop=()):
        self.poison = set(poison)   # users that raise for the whole batch
        self.drop = set(drop)       # users silently absent from results
        self.n_items = n_items
        self.calls: list[list[int]] = []

    async def top_n_batch(self, users, n=10, exclude_seen=True):
        return self.score(users, n)

    def score(self, users, n):
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
        return fuser.metrics()
    stats = _run(scenario())
    # A 10-second fallback window added no latency: the request went out
    # on the next loop pass (the test would time out otherwise).
    assert stats["windows"] == 1
    assert gateway.calls == [[3]]


def test_concurrent_requests_fuse_and_match_singletons():
    gateway = _Gateway()
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        results = await asyncio.gather(*[fuser.top_n(user, n=4)
                                         for user in (1, 2, 3, 2)])
        return fuser.metrics(), results
    stats, results = _run(scenario())
    assert stats["requests"] == 4
    for user, (items, scores) in zip((1, 2, 3, 2), results):
        solo_items, solo_scores = gateway.score([user], 4)[user]
        assert items.tolist() == solo_items.tolist()
        assert scores.tobytes() == solo_scores.tobytes()


def test_poisoned_window_partitions_only_the_offender_errors():
    gateway = _Gateway(poison={99})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        return await asyncio.gather(
            *[fuser.top_n(user, n=4) for user in (1, 99, 2, 3)],
            return_exceptions=True), fuser.metrics()
    results, stats = _run(scenario())
    assert isinstance(results[1], ValueError)
    for user, result in zip((1, 2, 3), (results[0], results[2], results[3])):
        assert not isinstance(result, BaseException), result
        items, scores = result
        solo_items, solo_scores = gateway.score([user], 4)[user]
        assert items.tolist() == solo_items.tolist()
        assert scores.tobytes() == solo_scores.tobytes()
    assert stats["partitions"] >= 1


def test_singleton_poisoned_window_skips_the_retry():
    gateway = _Gateway(poison={99})
    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=5.0)
        with pytest.raises(ValueError, match="invalid users"):
            await fuser.top_n(99, n=4)
        return fuser.metrics()
    stats = _run(scenario())
    assert stats["partitions"] == 0
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
    gateway = _Gateway()

    async def scenario():
        entered, release = asyncio.Event(), asyncio.Event()

        async def slow_batch(users, n=10, exclude_seen=True):
            entered.set()
            result = gateway.score(users, n)
            await release.wait()
            return result

        fuser = QueryFuser(slow_batch, window_ms=10_000.0)
        first = asyncio.ensure_future(fuser.top_n(1, n=4))
        # The first batch is in flight once it enters the gateway.
        await asyncio.wait_for(entered.wait(), 10.0)
        laters = [asyncio.ensure_future(fuser.top_n(user, n=4))
                  for user in (2, 3, 4)]
        await asyncio.sleep(0)  # one loop pass: the newcomers enqueue
        assert fuser.n_requests == 4
        assert len(gateway.calls) == 1  # they accumulate, none dispatched
        release.set()
        await asyncio.wait_for(asyncio.gather(first, *laters), timeout=10.0)
        return fuser.metrics()

    stats = _run(scenario())
    # The 10-second fallback timer never fired: completion flushed the
    # accumulated window, and it went out as one fused batch.
    assert stats["windows"] == 2
    assert stats["max_window"] == 3
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


class _RemoteGateway:
    """A gateway that is not a PredictionService: the server calls it on
    its private scorer thread."""

    def __init__(self, service: PredictionService):
        self._service = service

    def __getattr__(self, name):
        return getattr(self._service, name)


def test_window_on_a_shut_down_gateway_fails_retryably(caplog):
    """A replica killed with a read still to score: its scorer thread is
    shut down, and the fused read gets a retryable error frame (and
    the fuser a FuserClosed) instead of a pending future or a logged
    RuntimeError."""
    from repro.serving.net.protocol import Frame

    snapshot = make_bench_snapshot(12, 9, 3, seed=2)
    server = NetServer(_RemoteGateway(PredictionService(snapshot)))

    class Sink:
        """Stands in for the connection: keeps the reply it is given."""

        open = True

        def reply(self, frame, response):
            self.response = response

    async def scenario():
        await server.start()
        await server.abort()
        with pytest.raises(FuserClosed):
            await server.fuser.top_n(1, n=4)
        sink = Sink()
        server._admit(sink, Frame("top_n", {"user": 2, "n": 4, "id": 1}))
        await server.fuser.drain()
        return sink.response

    with caplog.at_level("WARNING"):
        reply = asyncio.run(scenario())
    assert reply.is_error and reply.payload["retryable"] is True
    assert server.fuser.metrics()["windows"] == 2
    assert caplog.records == []
