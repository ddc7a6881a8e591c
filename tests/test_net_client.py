"""The one client implementation and its blocking facade.

:class:`AsyncServingClient` is the serving client; :class:`ServingClient`
runs each of its calls on a private event loop.  The contracts under
test:

* every wait of an attempt — dial and hello included — is bounded by
  what is left of ``deadline_ms``;
* ``top_n_pipelined`` reports failures only once every request has
  finished, and concurrent first requests share one dial;
* the facade keeps the async client's signatures, works across threads
  (built on one, used on another, closed on the first), refuses to run
  inside a running event loop instead of deadlocking, and leaves no task
  behind once closed.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import socket
import threading
import warnings

import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import (
    AsyncServingClient,
    DeadlineError,
    NetError,
    ReplicaSet,
    ServingClient,
)
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 30, 25, 4

REQUEST_METHODS = ("top_n", "top_n_pipelined", "top_n_batch", "predict",
                   "predict_batch", "fold_in", "rate", "stats", "health",
                   "metrics", "spans")


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=11)


@pytest.fixture()
def replica_set(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        yield replicas


def _same(expected, served) -> bool:
    return (expected.items.tolist() == served.items.tolist()
            and expected.scores.tobytes() == served.scores.tobytes())


# ---------------------------------------------------------------------------
# deadlines bound the dial and the hello
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("blocking", [False, True],
                         ids=["async", "blocking"])
def test_deadline_bounds_the_dial_and_the_hello(monkeypatch, blocking):
    """A listener that accepts but never answers the hello: with a 3 s
    timeout and a 100 ms budget, every wait the client hands out is
    within the budget, and the call ends in DeadlineError."""
    waits = []
    real_wait_for = asyncio.wait_for

    async def recording_wait_for(awaitable, timeout):
        waits.append(timeout)
        return await real_wait_for(awaitable, timeout)

    monkeypatch.setattr(asyncio, "wait_for", recording_wait_for)
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = listener.getsockname()[:2]
        if blocking:
            with ServingClient([address], timeout=3.0) as client:
                with pytest.raises(DeadlineError):
                    client.top_n(0, deadline_ms=100)
        else:
            async def scenario():
                async with AsyncServingClient([address],
                                              timeout=3.0) as client:
                    with pytest.raises(DeadlineError):
                        await client.top_n(0, deadline_ms=100)

            asyncio.run(scenario())
    assert waits, "the dial was not bounded at all"
    assert max(waits) <= 0.1


# ---------------------------------------------------------------------------
# one pipelining contract
# ---------------------------------------------------------------------------

def test_async_pipelined_failure_is_reported_after_every_request(
        replica_set, snapshot):
    server = replica_set.replicas[0].server
    reference = PredictionService(snapshot)

    async def scenario():
        async with AsyncServingClient(replica_set.addresses) as client:
            with pytest.raises(NetError, match=r"1 of 3 pipelined requests "
                                               r"failed; first \(slot 0\)"):
                await client.top_n_pipelined([N_USERS + 9, 0, 2], n=3,
                                             max_in_flight=1)
            # One request in flight at a time, the failing one first: the
            # other two were still served before the error surfaced.
            assert server.stats()["n_requests"] == 3
            served = await client.top_n_pipelined([4, 1, 4], n=3)
            return client.n_failovers, served

    n_failovers, served = asyncio.run(scenario())
    assert n_failovers == 0
    for user, recommendation in zip([4, 1, 4], served):
        assert _same(reference.top_n(user, n=3), recommendation)


def test_concurrent_first_requests_share_one_dial(replica_set, snapshot):
    server = replica_set.replicas[0].server
    reference = PredictionService(snapshot)

    async def scenario():
        async with AsyncServingClient(replica_set.addresses) as client:
            return await client.top_n_pipelined(range(8), n=3)

    served = asyncio.run(scenario())
    assert server.stats()["n_connections"] == 1
    for user, recommendation in enumerate(served):
        assert _same(reference.top_n(user, n=3), recommendation)


# ---------------------------------------------------------------------------
# the blocking facade
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("__init__",) + REQUEST_METHODS)
def test_facade_methods_keep_the_async_signatures(name):
    assert inspect.signature(getattr(ServingClient, name)) == \
        inspect.signature(getattr(AsyncServingClient, name))


def test_facade_built_on_one_thread_used_on_another(replica_set, snapshot):
    """The drills' storm pattern: built on the main thread, called on a
    storm thread, closed back on the main thread."""
    client = ServingClient(replica_set.addresses)
    served, failures = [], []

    def storm() -> None:
        try:
            served.extend(client.top_n(user, n=4) for user in range(5))
        except Exception as error:  # noqa: BLE001
            failures.append(error)

    thread = threading.Thread(target=storm)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive() and not failures, failures
    client.close()
    reference = PredictionService(snapshot)
    assert all(_same(reference.top_n(user, n=4), recommendation)
               for user, recommendation in zip(range(5), served))


def test_facade_call_inside_a_running_loop_raises(replica_set):
    client = ServingClient(replica_set.addresses)

    async def inside_a_loop() -> None:
        with pytest.raises(RuntimeError):
            client.top_n(0, n=3)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        asyncio.run(inside_a_loop())
        gc.collect()
    assert not [warning for warning in caught
                if "never awaited" in str(warning.message)]
    assert len(client.top_n(0, n=3)) == 3  # still usable
    client.close()


def test_facade_close_leaves_no_task_behind(replica_set, caplog):
    client = ServingClient(replica_set.addresses)
    client.top_n(0, n=3)
    client.health()
    loop = client._loop
    client.close()
    assert loop.is_closed()
    assert asyncio.all_tasks(loop) == set()
    del client, loop
    gc.collect()
    assert "Task was destroyed" not in caplog.text
