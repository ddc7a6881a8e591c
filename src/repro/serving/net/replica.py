"""Replicated serving: N convergent gateways behind one address list.

The cluster of PR 4 recovers from a dead worker by respawning the whole
pool — correct, but the gateway blips.  :class:`ReplicaSet` removes the
blip at one level up: it runs ``n_replicas`` gateway replicas (each with
its own factor segments, worker pool and
:class:`~repro.serving.net.server.NetServer` on its own port), and the
client library fails reads over between them.  Losing a replica loses
capacity, never availability — the ``kill-a-replica-mid-storm`` test in
``tests/test_net_replica.py`` pins 100% read success while one of two
replicas dies under concurrent load.

Each replica runs on its own thread with a private asyncio loop, so a
wedged replica cannot stall its siblings.

**Mutations replicate.**  Replica 0 is the write leader: every
``rate``/``foldin`` — sent to any replica — commits through its
:class:`~repro.serving.wal.shipper.LeaderCoordinator` (append to the
write-ahead log, apply, fan out to the followers) before the ack
returns, so an acked write is readable on every live replica and, with
``wal_dir`` set, survives a crash (:meth:`restart` recovers the leader
by replaying the log).  Followers forward writes to the leader and
close any shipping gap by seqno-range catch-up.  ``replicate=False``
restores the historical share-nothing behaviour: mutations then apply
to one replica only, for the training pipeline to reconcile through
snapshot watchers.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serving.net.server import NetServer
from repro.utils.validation import check_positive

__all__ = ["ReplicaSet"]


class _Replica(threading.Thread):
    """One replica: gateway + server + event loop on a daemon thread."""

    def __init__(self, index: int, make_service, make_watcher,
                 host: str, port: int, server_options: Dict[str, object]):
        super().__init__(daemon=True, name=f"repro-net-replica-{index}")
        self.index = index
        self._make_service = make_service
        self._make_watcher = make_watcher
        self._host = host
        self._port = port
        self._server_options = dict(server_options)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[NetServer] = None
        self.service = None
        self.ready = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        try:
            self.service = self._make_service(self.index)
            watcher = (self._make_watcher(self.service)
                       if self._make_watcher is not None else None)
            self.server = NetServer(self.service, host=self._host,
                                    port=self._port, watcher=watcher,
                                    metrics_labels={"replica": self.index},
                                    **self._server_options)
            self.loop.run_until_complete(self.server.start())
        except BaseException as error:  # surfaced by ReplicaSet.start()
            self.error = error
            self._close_service()
            self.ready.set()
            return
        self.ready.set()
        try:
            self.loop.run_forever()
        finally:
            self._close_service()
            self.loop.close()

    def _close_service(self) -> None:
        # Teardown happens on the owning thread so shared-memory segments
        # are unlinked even when the replica was hard-killed.
        close = getattr(self.service, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # pragma: no cover - already going down
                pass

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self.server.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful: drain in-flight requests, then stop the loop."""
        if self.loop is None or not self.is_alive():
            return
        if self.server is not None:
            future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                      self.loop)
            try:
                future.result(timeout=timeout)
            except Exception:  # pragma: no cover - drain best-effort
                pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.join(timeout=timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt: drop connections without drain (failure injection)."""
        if self.loop is None or not self.is_alive():
            return
        if self.server is not None:
            future = asyncio.run_coroutine_threadsafe(self.server.abort(),
                                                      self.loop)
            try:
                future.result(timeout=timeout)
            except Exception:  # pragma: no cover - it is being killed
                pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.join(timeout=timeout)


class ReplicaSet:
    """Run N serving replicas; one address list, one write leader.

    Parameters
    ----------
    make_service:
        ``make_service(replica_index) -> gateway``.  Called once per
        replica on that replica's thread, so each replica owns a fully
        independent gateway (its own segments and worker pool).
    n_replicas:
        How many replicas to run.  Replica 0 is the write leader.
    host, ports:
        Bind host, and optionally one explicit port per replica
        (default: one free port each).
    make_watcher:
        Optional ``make_watcher(service) -> SnapshotWatcher`` so every
        replica hot-reloads snapshots independently.
    fuse_window_ms, fuse_max_batch, max_in_flight:
        Per-replica :class:`NetServer` options.  Fused dispatch is on by
        default; ``fuse_window_ms=None`` (or ``<= 0``) disables it.
    replicate:
        Mutation replication through the write-ahead log (default on);
        ``False`` restores the share-nothing fleet.
    wal_dir:
        Directory for the leader's log segments.  ``None`` (default)
        keeps the log in the leader's memory: replication, exactly-once
        and failover all still work, only crash durability is gone.
    wal_sync_every:
        The log's fsync cadence (``1`` = fsync before every ack, the
        strict default; larger batches syncs for throughput).
    max_queue_depth:
        Per-replica admission-control bound (see :class:`NetServer`);
        ``None`` disables overload shedding.
    ship_cooldown, ship_backoff_max, ship_backoff_seed:
        The leader's per-follower shipping backoff: base skip window
        after a failed shipment, its exponential cap, and the jitter
        seed (see :class:`~repro.serving.wal.shipper.LeaderCoordinator`).
    fault_injector:
        Optional :class:`~repro.serving.chaos.FaultInjector` threaded
        into the leader's :class:`WriteAheadLog` (``wal.append`` /
        ``wal.fsync`` fault sites).  Survives :meth:`restart` because
        re-wiring rebuilds the log from this handle.  ``None`` (the
        default) means zero injection code on any hot path.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` shared by every
        replica (servers, fusers and WAL coordinators all record into
        it), so a single traced write yields its whole cross-replica
        span tree from one :meth:`spans` call.  ``None`` (the default)
        keeps tracing cold fleet-wide.
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` shared across the
        fleet; one is created when omitted.  Per-replica histograms and
        stats providers are disambiguated by a ``replica`` label, so
        :meth:`metrics_snapshot` covers every live replica at once.
    """

    def __init__(self, make_service: Callable[[int], object],
                 n_replicas: int = 2, host: str = "127.0.0.1",
                 ports: Optional[List[int]] = None,
                 make_watcher: Optional[Callable[[object], object]] = None,
                 fuse_window_ms: Optional[float] = 2.0,
                 fuse_max_batch: int = 64, max_in_flight: int = 64,
                 replicate: bool = True,
                 wal_dir: Optional[str] = None, wal_sync_every: int = 1,
                 max_queue_depth: Optional[int] = 256,
                 ship_cooldown: float = 1.0, ship_backoff_max: float = 30.0,
                 ship_backoff_seed: Optional[int] = None,
                 fault_injector=None, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None):
        check_positive("n_replicas", n_replicas)
        if ports is not None and len(ports) != n_replicas:
            raise ValueError(
                f"got {len(ports)} ports for {n_replicas} replicas")
        self.replicate = bool(replicate)
        self.wal_dir = wal_dir
        self.wal_sync_every = int(wal_sync_every)
        self.ship_cooldown = float(ship_cooldown)
        self.ship_backoff_max = float(ship_backoff_max)
        self.ship_backoff_seed = ship_backoff_seed
        self.fault_injector = fault_injector
        self.tracer = tracer
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._make_service = make_service
        self._make_watcher = make_watcher
        self._host = host
        self._options = {"fuse_window_ms": fuse_window_ms,
                         "fuse_max_batch": fuse_max_batch,
                         "max_in_flight": max_in_flight,
                         "max_queue_depth": max_queue_depth,
                         "wal_expected": self.replicate,
                         "tracer": tracer,
                         "registry": self.registry}
        self.replicas = [
            _Replica(index, make_service, make_watcher, host,
                     ports[index] if ports is not None else 0,
                     self._options)
            for index in range(n_replicas)]
        self._started = False

    def start(self, timeout: float = 60.0) -> "ReplicaSet":
        """Start every replica; raises if any fails to come up."""
        if self._started:
            return self
        for replica in self.replicas:
            replica.start()
        self._await_ready(self.replicas, timeout)
        if self.replicate:
            for index in range(len(self.replicas)):
                self._wire_wal(index)
        self._started = True
        return self

    def _await_ready(self, replicas: List[_Replica], timeout: float) -> None:
        for replica in replicas:
            if not replica.ready.wait(timeout=timeout):
                self.stop()
                raise TimeoutError(
                    f"replica {replica.index} did not start in {timeout}s")
        failed = [replica for replica in replicas
                  if replica.error is not None]
        if failed:
            self.stop()
            raise RuntimeError(
                f"replica {failed[0].index} failed to start"
            ) from failed[0].error

    # -- replication wiring ------------------------------------------------

    @property
    def leader(self) -> _Replica:
        """The write leader (replica 0, by construction)."""
        return self.replicas[0]

    def _follower_addresses(self) -> List[Tuple[str, int]]:
        return [replica.address for replica in self.replicas[1:]
                if replica.is_alive()]

    def _wire_wal(self, index: int) -> None:
        """Attach a (new) coordinator to one just-started replica.

        Construction runs under the replica's own gateway lock
        (:meth:`NetServer.call_serialized`): the leader's recovery
        replay and a follower's initial catch-up both *apply* records,
        and must serialize with any request already arriving over the
        socket.  Until the coordinator attaches, ``wal_expected`` makes
        the server refuse mutations instead of applying them
        unreplicated.
        """
        from repro.serving.wal.log import WriteAheadLog
        from repro.serving.wal.shipper import (FollowerCoordinator,
                                               LeaderCoordinator)
        replica = self.replicas[index]
        if index == 0:
            def build_leader():
                log = WriteAheadLog(self.wal_dir,
                                    sync_every=self.wal_sync_every,
                                    fault_injector=self.fault_injector,
                                    registry=self.registry,
                                    metrics_labels={"replica": index})
                return LeaderCoordinator(
                    replica.service, log,
                    ship_cooldown=self.ship_cooldown,
                    ship_backoff_max=self.ship_backoff_max,
                    ship_backoff_seed=self.ship_backoff_seed,
                    tracer=self.tracer)
            coordinator = replica.server.call_serialized(build_leader)
            replica.server.set_wal(coordinator)
            coordinator.set_followers(self._follower_addresses())
        else:
            coordinator = FollowerCoordinator(replica.service,
                                              self.leader.address,
                                              tracer=self.tracer)
            replica.server.set_wal(coordinator)
            if self.leader.is_alive():
                replica.server.call_serialized(coordinator.catch_up)
            leader_wal = (self.leader.server.wal
                          if self.leader.is_alive() and
                          self.leader.server is not None else None)
            if leader_wal is not None:
                leader_wal.set_followers(self._follower_addresses())

    # -- fleet operations --------------------------------------------------

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """Connect targets, one per replica (give this to the client)."""
        return [replica.address for replica in self.replicas
                if replica.is_alive()]

    def kill(self, index: int) -> None:
        """Hard-kill one replica (tests and failure drills).

        Killing a follower costs capacity only.  Killing the leader
        stops *writes* (they fail loudly, nothing is half-applied) while
        reads keep flowing; :meth:`restart` brings writes back, with
        every acked write intact when the log is durable.
        """
        self.replicas[index].kill()

    def pause(self, index: int, seconds: float) -> None:
        """Stall one replica's gateway for ``seconds`` (chaos).

        The replica stays connected but stops answering — the shape of a
        GC pause or an I/O hiccup, distinct from :meth:`kill`'s dropped
        connections.  Clients ride it out with their socket timeout and
        failover.
        """
        replica = self.replicas[index]
        if replica.is_alive() and replica.server is not None:
            replica.server.stall(float(seconds))

    def restart(self, index: int, timeout: float = 60.0) -> None:
        """Bring a dead (or live) replica back up on its old port.

        The replacement gets a fresh gateway from ``make_service``; a
        restarted leader then recovers by replaying its log (every
        acked write returns), a restarted follower catches up from the
        leader by seqno range — either way the fleet reconverges to
        bit-identical mutable state.
        """
        old = self.replicas[index]
        if old.is_alive():
            old.kill()
        port = old.server.port if old.server is not None else old._port
        replica = _Replica(index, self._make_service, self._make_watcher,
                           self._host, port, self._options)
        self.replicas[index] = replica
        replica.start()
        self._await_ready([replica], timeout)
        if self.replicate:
            self._wire_wal(index)

    def stop(self) -> None:
        """Gracefully drain and stop every replica (idempotent)."""
        for replica in self.replicas:
            replica.stop()
        self._started = False

    def stats(self) -> List[Optional[Dict[str, int]]]:
        """Per-replica server counters (``None`` for dead replicas)."""
        return [replica.server.stats()
                if replica.is_alive() and replica.server is not None
                else None
                for replica in self.replicas]

    def wal_stats(self) -> List[Optional[Dict[str, object]]]:
        """Per-replica coordinator counters (``None`` when absent/dead)."""
        return [replica.server.wal.stats()
                if replica.is_alive() and replica.server is not None
                and replica.server.wal is not None else None
                for replica in self.replicas]

    def metrics_snapshot(self) -> Dict[str, object]:
        """One dotted snapshot across the fleet (shared registry).

        Keys carry a ``replica=<index>`` label, so the same counter on
        different replicas stays distinguishable.
        """
        return self.registry.snapshot()

    def spans(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Recorded spans from the fleet's shared tracer (``[]`` untraced)."""
        if self.tracer is None:
            return []
        return self.tracer.spans(limit)

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
