"""The serving self-checks: ``python -m repro.serving <name>-smoke``.

Each ``*_drill`` prints one ``... SMOKE OK`` line and returns its report,
or raises :class:`DrillFailure`.  The fleet drills share :class:`Fleet`
and :func:`durable_storm`, so each states only what is particular to
it.  The configuration is the constants below (what CI runs); only
artifact paths and the chaos seed are parameters.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.core.recommend import recommend_for_user
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.obs import Tracer
from repro.core.checkpoint import CheckpointConfig
from repro.serving.cluster import ShardedScorer, SnapshotWatcher
from repro.serving.net import DeadlineError, NetError, ReplicaSet, ServingClient
from repro.serving.service import PredictionService
from repro.serving.wal import MutationReplayer, WriteAheadLog
from repro.utils.environment import machine_environment

__all__ = ["DrillFailure", "Fleet", "durable_storm", "smoke_drill",
           "cluster_drill", "net_drill", "wal_drill", "chaos_drill",
           "obs_drill", "DRILLS"]

CLUSTER_SHARDS = 2
NET_REPLICAS = 2
NET_FUSE_WINDOW_MS = 2.0
WAL_REPLICAS = 3
WAL_WRITES = 240              # mutations across the writer storm
CHAOS_REPLICAS = 3
CHAOS_WRITES = 120
CHAOS_FAULTS = 24             # per-site fault events to schedule ...
CHAOS_HORIZON = 150           # ... over this many call steps
CHAOS_FLEET_EVENTS = 3        # kill/pause events on the fleet timeline ...
CHAOS_FLEET_SPAN = 5.0        # ... within this many seconds
CHAOS_DEADLINE_MS = 2000.0    # per-read budget
OBS_REPLICAS = 3
OBS_READERS = 4
OBS_WRITES = 32
OBS_FUSE_WINDOW_MS = 20.0     # wide, so the storm reliably shares windows
COOLDOWN_S = 0.05             # failover/shipping backoff base ...
BACKOFF_MAX_S = 1.0           # ... and cap
STORM_THREADS = 4
N_WRITERS = 2
WRITE_GIVE_UP_S = 120.0       # a write still unacked after this fails


class DrillFailure(AssertionError):
    """One or more drill checks failed; ``failures`` lists them all."""

    def __init__(self, failures: List[str]):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures[:5]))


def require(ok: bool, message: str) -> None:
    """Fail the drill now unless ``ok`` (an ``assert`` that ``-O`` keeps)."""
    if not ok:
        raise DrillFailure([message])


def same_top_n(served, expected) -> bool:
    """Bit parity of two recommendations: same items, same score bytes."""
    return (served.items.tolist() == expected.items.tolist()
            and served.scores.tobytes() == expected.scores.tobytes())


def latency_summary(values_ms) -> dict:
    ladder = np.asarray(values_ms)
    return {"p50": float(np.percentile(ladder, 50)),
            "p95": float(np.percentile(ladder, 95)),
            "mean": float(ladder.mean())}


def write_spans(path: Optional[str], spans: List[dict]) -> None:
    if path:
        with open(path, "w", encoding="utf8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True,
                                        default=str) + "\n")


def finish(path: Optional[str], report: dict, ok_line: str,
           fleet: Optional["Fleet"] = None) -> dict:
    """Write ``report`` to ``path`` as JSON (stamped with the machine),
    then, unless ``fleet`` has failed, print ``ok_line`` and return it."""
    if path:
        with open(path, "w", encoding="utf8") as handle:
            json.dump({"environment": machine_environment(), **report},
                      handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
    if fleet is not None:
        fleet.verdict()
    print(ok_line)
    return report


def _config(n_samples: int = 3) -> BPMFConfig:
    return BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=n_samples)


def train_snapshot(path: Path, data_seed: int, n_movies: int = 45):
    """Train the drills' 5-sweep model into ``path``; returns the dataset."""
    data = make_low_rank_dataset(SyntheticConfig(
        n_users=60, n_movies=n_movies, rank=3, density=0.3, noise_std=0.3,
        test_fraction=0.2, seed=data_seed))
    result = GibbsSampler(_config(), SamplerOptions(
        checkpoint=CheckpointConfig(path=path, every=2))).run(
        data.split.train, data.split, seed=0)
    require(np.isfinite(result.final_rmse), "training RMSE is not finite")
    return data


class Fleet:
    """One fleet drill's world: snapshot, reference, replicas and storms.

    Storm threads record into :attr:`failures` instead of raising (an
    exception would kill only its thread).  Progress (``counts``,
    ``acked``, the latency lists) is guarded by :attr:`progress`, so
    drills wait on it without polling.  Leaving a durable fleet's
    ``with`` block after a :meth:`converge` runs the clean-replay check.
    """

    def __init__(self, data_seed: int, n_replicas: int,
                 durable: bool = False, **options):
        self._tmp = tempfile.TemporaryDirectory()
        self.path = Path(self._tmp.name) / "fleet.npz"
        train_snapshot(self.path, data_seed)
        self.reference = PredictionService(self.path)
        self.users = list(range(0, self.reference.n_train_users, 2))
        self.wal_dir = Path(self._tmp.name) / "log" if durable else None
        self.replicas = ReplicaSet(
            lambda index: PredictionService(self.path),
            n_replicas=n_replicas,
            wal_dir=str(self.wal_dir) if durable else None, **options)
        self.progress = threading.Condition()
        self.failures: List[str] = []
        self.counts: Counter = Counter()
        self.acked: List[int] = []
        self.read_ms: List[float] = []
        self.write_ms: List[float] = []
        self.seqno: Optional[int] = None
        self.digest: Optional[str] = None
        self.probe_user: Optional[int] = None
        self.replayed = False

    def __enter__(self) -> "Fleet":
        self.replicas.start()
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        try:
            self.replicas.stop()
            if exc_type is None and self.wal_dir and self.seqno is not None:
                self.replayed = self._replay()
        finally:
            self._tmp.cleanup()

    def client(self, addresses=None, **options) -> ServingClient:
        return ServingClient(
            self.replicas.addresses if addresses is None else addresses,
            cooldown=COOLDOWN_S, backoff_max=BACKOFF_MAX_S, **options)

    def fail(self, message: str) -> None:
        with self.progress:
            self.failures.append(message)
            self.progress.notify_all()

    def count(self, key: str) -> None:
        with self.progress:
            self.counts[key] += 1
            self.progress.notify_all()

    def wait_for(self, predicate: Callable[[], bool], timeout: float) -> bool:
        with self.progress:
            return self.progress.wait_for(predicate, timeout)

    def verdict(self) -> None:
        """Raise :class:`DrillFailure` if anything has failed so far."""
        if self.failures:
            raise DrillFailure(self.failures)

    def spawn(self, target, *args) -> threading.Thread:
        """Run ``target(*args)`` on a thread; what it raises is a failure."""
        def guarded() -> None:
            try:
                target(*args)
            except Exception as error:  # noqa: BLE001
                self.fail(f"storm thread raised {error!r}")

        thread = threading.Thread(target=guarded, daemon=True)
        thread.start()
        return thread

    def join(self, threads: List[threading.Thread], timeout: float) -> None:
        for thread in threads:
            thread.join(timeout)
        if any(thread.is_alive() for thread in threads):
            self.fail("storm threads hung")

    def read(self, client: ServingClient,
             stop: Optional[threading.Event] = None,
             deadline_ms: Optional[float] = None) -> None:
        """Bit-check ``top_n`` reads of :attr:`users`: one pass, or round
        robin until ``stop``.  Every failed read fails the drill, except,
        under a ``deadline_ms`` budget, a retryable one within it (plus
        the last reply timeout an injected drop waits out)."""
        budget_s = None if deadline_ms is None else deadline_ms / 1000.0
        index = 0
        while (index < len(self.users)) if stop is None \
                else not stop.is_set():
            user = self.users[index % len(self.users)]
            index += 1
            begin = time.perf_counter()
            try:
                served = client.top_n(user, n=5, deadline_ms=deadline_ms)
            except NetError as error:
                elapsed = time.perf_counter() - begin
                if budget_s is None or not error.retryable:
                    self.fail(f"read of user {user} failed: {error!r}")
                elif isinstance(error, DeadlineError):
                    self.count("read_deadline_failures")
                elif elapsed > budget_s + 2.5:
                    self.fail(f"read failed after {elapsed:.2f}s "
                              f"(deadline {budget_s:.2f}s): {error!r}")
                else:
                    self.count("read_retryable_failures")
                continue
            elapsed_ms = (time.perf_counter() - begin) * 1e3
            with self.progress:
                if not same_top_n(served, self.reference.top_n(user, n=5)):
                    self.failures.append(f"top-N diverged for user {user}")
                self.read_ms.append(elapsed_ms)
                self.counts["reads"] += 1
                self.progress.notify_all()

    def health(self) -> List[dict]:
        """``health(digest=True)`` of every live replica, probed directly."""
        probes = []
        for address in self.replicas.addresses:
            with self.client([address]) as pinned:
                probes.append(pinned.health(digest=True))
        return probes

    def converge(self, timeout: float = 30.0) -> None:
        """Write probes (a fold-in of :attr:`probe_user`, then ratings)
        until every replica applied the last one with one digest and zero
        lag, keeping :attr:`seqno` and :attr:`digest`; a probe also
        re-opens shipping to a follower still in backoff."""
        deadline = time.monotonic() + timeout
        with self.client() as probe:
            while time.monotonic() < deadline:
                try:
                    if self.probe_user is None:
                        self.probe_user = probe.fold_in(np.array([3, 4]),
                                                        np.array([2.0, 5.0]))
                    probe.rate(self.probe_user, np.array([0]),
                               np.array([1.0]))
                    probes = self.health()
                except NetError:  # a residual scheduled fault fired
                    time.sleep(0.25)
                    continue
                digests = {health["digest"] for health in probes}
                if len(digests) == 1 and {health["wal"]["applied_seqno"]
                                          for health in probes} \
                        == {probe.last_seqno}:
                    for stats in filter(None, self.replicas.wal_stats()):
                        lag = stats.get("max_follower_lag" if stats["role"]
                                        == "leader" else "lag", 0)
                        if lag:
                            self.fail(f"{stats['role']} reports lag {lag} "
                                      "after convergence")
                    self.seqno, self.digest = probe.last_seqno, digests.pop()
                    return
                time.sleep(0.25)
        self.fail("fleet did not converge after the storm")

    def _replay(self) -> bool:
        """A fresh service replaying the log from scratch must land on the
        converged bytes: every acked write survived."""
        replayed = PredictionService(self.path)
        with WriteAheadLog(self.wal_dir) as log:
            replayer = MutationReplayer(replayed)
            replayer.apply_all(log.records())
        if replayer.applied_seqno != self.seqno:
            self.fail(f"replay stopped at {replayer.applied_seqno}, fleet "
                      f"acked {self.seqno}")
        elif self.acked and replayer.applied_seqno < max(self.acked):
            self.fail("an acked write is missing from the log")
        elif str(replayed.state_digest()) != self.digest:
            self.fail("fleet digest != clean replay digest")
        else:
            return True
        return False

    def summary(self) -> dict:
        """The storm's counts for a drill report."""
        return {"acked_writes": len(self.acked), "final_seqno": self.seqno,
                **{key: self.counts[key] for key in (
                    "acked_before_disruption", "write_retries", "reads",
                    "read_retryable_failures", "read_deadline_failures")},
                "mutation_latency_ms": latency_summary(self.write_ms or [0])}


def durable_storm(fleet: Fleet, writes: int, options: dict,
                  disruption: Optional[Callable[[], Iterator[None]]] = None,
                  rolling: int = 0, n_readers: int = 2,
                  deadline_ms: Optional[float] = None) -> None:
    """Writers retry until acked and readers bit-check, across a
    disruption; afterwards all ``writes`` must be acked.

    Each writer folds in a user and rates items; every attempt is
    exactly-once via its ``write_id``.  A non-retryable failure, or a
    write unacked after :data:`WRITE_GIVE_UP_S`, fails the drill.
    ``disruption`` is a generator function: the part before its
    ``yield`` runs once ``rolling`` writes are acked, the rest once every
    writer has finished.
    """
    stop = threading.Event()
    writes_each = max(1, writes // N_WRITERS)

    def commit(mutate, give_up: float):
        while True:
            try:
                return mutate()
            except NetError as error:
                if not error.retryable:
                    fleet.fail(f"non-retryable write failure: {error!r}")
                    return None
                fleet.count("write_retries")
                if time.monotonic() > give_up:
                    fleet.fail("write storm never finished")
                    return None
                time.sleep(0.05)

    def writer(worker: int) -> None:
        rng = np.random.default_rng(worker)
        give_up = time.monotonic() + WRITE_GIVE_UP_S
        try:
            with fleet.client(**options) as client:
                user = commit(lambda: client.fold_in(
                    np.array([0, 1, 2]), np.array([4.0, 3.0, 5.0])), give_up)
                for _ in range(writes_each if user is not None else 0):
                    item = int(rng.integers(0, fleet.reference.n_items))
                    value = float(rng.integers(1, 6))
                    begin = time.perf_counter()
                    if commit(lambda: client.rate(user, np.array([item]),
                                                  np.array([value])),
                              give_up) is None:
                        return
                    with fleet.progress:
                        fleet.write_ms.append(
                            (time.perf_counter() - begin) * 1e3)
                        fleet.acked.append(client.last_seqno)
                        fleet.progress.notify_all()
        finally:
            fleet.count("writers_done")

    def reader() -> None:
        with fleet.client(**options) as client:
            fleet.read(client, stop, deadline_ms)

    readers = [fleet.spawn(reader) for _ in range(n_readers)]
    writers = [fleet.spawn(writer, worker) for worker in range(N_WRITERS)]
    try:
        if not fleet.wait_for(lambda: len(fleet.acked) >= rolling
                              or fleet.counts["writers_done"] == N_WRITERS,
                              30.0):
            fleet.fail("storm never got going")
        fleet.counts["acked_before_disruption"] = len(fleet.acked)
        steps = disruption() if disruption is not None else iter([None])
        next(steps)
        fleet.join(writers, WRITE_GIVE_UP_S + 30.0)
        next(steps, None)
    finally:
        stop.set()
        fleet.join(readers, 30.0)
    if len(fleet.acked) != N_WRITERS * writes_each:
        fleet.fail(f"{len(fleet.acked)} of {N_WRITERS * writes_each} "
                   "writes acked")


def smoke_drill() -> dict:
    """Train, snapshot, resume, serve, query and fold in, in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.npz"
        data = train_snapshot(path, data_seed=7, n_movies=40)
        resumed = GibbsSampler(_config(n_samples=5), SamplerOptions()).run(
            data.split.train, data.split, resume=path)
        require(resumed.state.iteration == 7, "resume missed sweep 7")

        service = PredictionService(path, train=data.split.train)
        predictions = service.predict_batch(data.split.test_users,
                                            data.split.test_movies)
        rmse = float(np.sqrt(np.mean(
            (predictions - data.split.test_values) ** 2)))
        require(np.isfinite(rmse), "serving RMSE is not finite")
        top = service.top_n(0, n=5)
        require(len(top) == 5 and np.isfinite(top.scores).all(),
                "top-N is not 5 finite scores")
        cold = service.fold_in(np.array([0, 1, 2]), np.array([4.0, 3.0, 5.0]))
        require(np.isfinite(service.top_n(cold, n=5).scores).all(),
                "fold-in user's top-N is not finite")
        # The service's ranking must match the in-memory recommendation path.
        reference = recommend_for_user(service.state(), 0, n=5,
                                       exclude=data.split.train)
        require(reference.items.tolist() == top.items.tolist(),
                "service top-N disagrees with recommend_for_user")
    return finish(None, {"rmse": rmse, "cold_user": cold},
                  f"SMOKE OK: serving rmse={rmse:.4f}, resumed to sweep 7, "
                  f"fold-in user {cold} served")


def cluster_drill(latency_out: Optional[str] = None) -> dict:
    """2-shard gateway, one hot snapshot swap, bit parity throughout;
    then a fold-in and a rating on the gateway's own factors, served."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cluster.npz"
        data = train_snapshot(path, data_seed=7)
        train = data.split.train
        latencies: List[float] = []

        def storm(scorer) -> None:
            reference = PredictionService(path, train=train)
            for user in range(0, train.n_users, 3):
                begin = time.perf_counter()
                served = scorer.top_n(user, n=5)
                latencies.append((time.perf_counter() - begin) * 1e3)
                require(same_top_n(served, reference.top_n(user, n=5)),
                        f"sharded top-N diverged for user {user}")

        with ShardedScorer(path, n_shards=CLUSTER_SHARDS,
                           train=train) as scorer:
            watcher = SnapshotWatcher(scorer, path)
            storm(scorer)
            # A training run extends the chain and overwrites the
            # snapshot; the watcher must validate and hot-swap it.
            GibbsSampler(_config(n_samples=6), SamplerOptions(
                checkpoint=CheckpointConfig(path=path, every=3))).run(
                train, data.split, resume=path)
            require(watcher.check_once() and scorer.n_swaps == 1,
                    "watcher missed the new snapshot")
            storm(scorer)
            cold = scorer.fold_in(np.array([0, 1, 2]),
                                  np.array([4.0, 3.0, 5.0]))
            scorer.add_ratings(cold, np.array([5]), np.array([2.5]))
            require(np.isfinite(scorer.top_n(cold, n=5).scores).all(),
                    "updated fold-in user's top-N is not finite")
            swaps = scorer.stats()["n_swaps"]

    latency = latency_summary(latencies)
    return finish(latency_out, {
        "benchmark": "serving-cluster-smoke", "shards": CLUSTER_SHARDS,
        "parity_queries": len(latencies), "swaps": swaps,
        "latency_ms": latency},
        f"CLUSTER SMOKE OK: {len(latencies)} bit-identical queries across "
        f"{CLUSTER_SHARDS} shards, {swaps} hot swap, p95 latency "
        f"{latency['p95']:.2f} ms")


def net_drill(latency_out: Optional[str] = None) -> dict:
    """Fused replicas: wire parity, failover mid-storm.

    A read storm and a pipelined pass, bit-identical to the reference; a
    fold-in and a rating applied on every replica by the time they are
    acked; then replica 0 killed under a concurrent storm: every read
    keeps succeeding and some client fails over.
    """
    with Fleet(data_seed=7, n_replicas=NET_REPLICAS,
               fuse_window_ms=NET_FUSE_WINDOW_MS) as fleet:
        def storm() -> None:
            with fleet.client() as client:
                fleet.read(client)

        fleet.join([fleet.spawn(storm) for _ in range(STORM_THREADS)], 60.0)
        latency = latency_summary(fleet.read_ms)
        # One connection, many in-flight frames: the windowed client
        # must match the reference bit for bit too.
        with fleet.client() as piped:
            served_all = piped.top_n_pipelined(fleet.users, n=5)
        for user, served in zip(fleet.users, served_all):
            if not same_top_n(served, fleet.reference.top_n(user, n=5)):
                fleet.fail(f"pipelined top-N diverged for user {user}")
        parity_queries = fleet.counts["reads"] + len(fleet.users)

        # Mutations replicate through the write leader: the first probe
        # (a fold-in and a rating, seqnos 1-2) must already be applied
        # with one digest on every replica, and served by each.
        fleet.converge()
        fleet.verdict()
        require(fleet.seqno == 2,
                f"the fleet converged only at seqno {fleet.seqno}")
        for address in fleet.replicas.addresses:
            with fleet.client([address]) as pinned:
                require(np.isfinite(pinned.top_n(fleet.probe_user,
                                                 n=5).scores).all()
                        and pinned.stats()["n_folded_in"] == 1
                        and pinned.health()["status"] == "ok",
                        f"{address} does not serve the folded-in user")

        # Kill replica 0 under a concurrent storm: reads keep succeeding.
        stop = threading.Event()
        clients = [fleet.client() for _ in range(STORM_THREADS)]
        storm_threads = [fleet.spawn(fleet.read, client, stop)
                         for client in clients]
        started = fleet.counts["reads"]
        fleet.wait_for(lambda: fleet.counts["reads"] >= started + 20, 10.0)
        fleet.replicas.kill(0)
        killed = fleet.counts["reads"]
        survived = fleet.wait_for(
            lambda: fleet.counts["reads"] >= killed + 40, 20.0)
        stop.set()
        fleet.join(storm_threads, 60.0)
        failovers = sum(client.n_failovers for client in clients)
        for client in clients:
            client.close()
        fleet.verdict()
        require(survived, "reads stalled after the kill")
        require(failovers >= 1, "no client failed over off the killed replica")
        require(fleet.replicas.stats()[0] is None
                and len(fleet.replicas.addresses) == 1,
                "the killed replica is still listed")
        fusion = fleet.replicas.replicas[1].server.fuser.metrics()
        require(fusion["windows"] > 0, "no read was fused")

    return finish(latency_out, {
        "benchmark": "net-serving-smoke", "replicas": NET_REPLICAS,
        "fuse_window_ms": NET_FUSE_WINDOW_MS, "parity_queries": parity_queries,
        "failovers": failovers, "fusion": fusion, "latency_ms": latency},
        f"NET SMOKE OK: {parity_queries} bit-identical queries across "
        f"{NET_REPLICAS} replicas ({fusion['windows']} fused windows), "
        f"failover survived with {failovers} retries, p95 latency "
        f"{latency['p95']:.2f} ms")


def wal_drill(latency_out: Optional[str] = None) -> dict:
    """Durable mutation log: storm, leader kill and restart, converge.

    The durable storm runs while the write leader is killed, left down
    until a write has been refused, and restarted.  Then a re-delivered
    record must be a counted no-op on a follower, and the converged fleet
    must equal a clean replay of the log: every acked write survived.
    """
    def leader_kill() -> Iterator[None]:
        refused = fleet.counts["write_retries"]
        fleet.replicas.kill(0)
        fleet.wait_for(lambda: fleet.counts["write_retries"] > refused
                       or fleet.counts["writers_done"] == N_WRITERS, 30.0)
        fleet.replicas.restart(0)
        yield

    with Fleet(data_seed=11, n_replicas=WAL_REPLICAS, durable=True) as fleet:
        durable_storm(fleet, WAL_WRITES, {}, leader_kill, rolling=20)
        fleet.verdict()

        # Re-deliver an already-applied record to a follower: the
        # replayer's high-water mark makes it a counted no-op.
        leader = fleet.replicas.replicas[0].server.wal
        follower = fleet.replicas.replicas[1].server
        record = leader.log.read_range(1, 1)[0]
        before = follower.wal.stats()
        follower.call_serialized(
            follower.wal.handle_wal_append,
            {"records": [{"seqno": record.seqno,
                          "payload": dict(record.payload)}],
             "leader_hwm": leader.log.high_seqno,
             "leader_instance": leader.instance})
        after = follower.wal.stats()
        require(after["duplicates_skipped"] == before["duplicates_skipped"] + 1
                and after["applied_seqno"] == before["applied_seqno"],
                "a re-delivered record was applied twice")
        fleet.converge()
    fleet.verdict()

    report = {"benchmark": "wal-serving-smoke", "replicas": WAL_REPLICAS,
              **fleet.summary()}
    return finish(
        latency_out, report, f"WAL SMOKE OK: {report['acked_writes']} acked "
        f"writes ({report['write_retries']} refused during the outage), "
        f"{report['reads']} bit-identical reads with 0 failures through a "
        f"leader kill, fleet digest == replay digest at seqno {fleet.seqno}, "
        f"mutation p95 {report['mutation_latency_ms']['p95']:.2f} ms")


def chaos_drill(seed: int = 0, report_out: Optional[str] = None,
                trace_out: Optional[str] = None) -> dict:
    """A seeded fault schedule against the durable storm.

    The same ``seed`` draws the byte-identical schedule: chaos clients
    and the fleet's WAL sites fire its faults while a
    :class:`FleetConductor` applies its kill/pause timeline.  Reads may
    also fail retryably within their deadline.  The schedule, fired
    faults and invariants go to ``report_out`` even when a check fails.
    """
    from repro.serving.chaos import FaultInjector, FaultPlan, FleetConductor

    plan = FaultPlan.generate(
        seed=seed, n_events=CHAOS_FAULTS, horizon=CHAOS_HORIZON,
        n_replicas=CHAOS_REPLICAS, n_fleet_events=CHAOS_FLEET_EVENTS,
        fleet_span=CHAOS_FLEET_SPAN)
    injector = FaultInjector(plan)
    tracer = Tracer(capacity=65536) if trace_out else None
    fleet_log: List[dict] = []

    def conducted() -> Iterator[None]:
        conductor = FleetConductor(fleet.replicas, plan.fleet)
        conductor.start()
        yield
        fleet_log.extend(conductor.finish(timeout=90.0))

    with Fleet(data_seed=13, n_replicas=CHAOS_REPLICAS, durable=True,
               ship_cooldown=COOLDOWN_S, ship_backoff_max=BACKOFF_MAX_S,
               ship_backoff_seed=seed, fault_injector=injector,
               tracer=tracer) as fleet:
        durable_storm(fleet, CHAOS_WRITES,
                      {"timeout": 2.0, "backoff_seed": seed,
                       "fault_injector": injector, "tracer": tracer},
                      conducted, rolling=5, deadline_ms=CHAOS_DEADLINE_MS)
        fleet.converge()

    failures = fleet.failures
    report = {
        "benchmark": "chaos-smoke", "seed": seed, "replicas": CHAOS_REPLICAS,
        "deadline_ms": CHAOS_DEADLINE_MS, "plan": plan.to_json(),
        "plan_digest": plan.digest(), "triggered": list(injector.log),
        "site_calls": injector.counts(), "fleet_log": fleet_log,
        **fleet.summary(),
        "invariants": {
            "no_acked_write_lost": fleet.replayed,
            "reads_fail_soft": not any(failure.startswith("read")
                                       or "diverged" in failure
                                       for failure in failures),
            "no_hangs": "storm threads hung" not in failures,
            "fleet_converged": fleet.seqno is not None and not any(
                "lag" in failure for failure in failures),
        },
        "violations": failures,
    }
    if tracer is not None:
        # Every span that a scheduled fault landed inside carries the
        # fired event as a ``fault`` annotation (see FaultInjector).
        spans = tracer.spans()
        report["trace"] = {
            "spans": len(spans), "tracer": tracer.stats(),
            "fault_annotated": sum(1 for span in spans
                                   if "fault" in span["attrs"])}
        write_spans(trace_out, spans)
    return finish(
        report_out, report, f"CHAOS SMOKE OK: seed {seed}, "
        f"{len(injector.log)} faults fired ({len(plan.events)} scheduled, "
        f"{len(fleet_log)} fleet actions), {report['acked_writes']} acked "
        f"writes all durable ({report['write_retries']} retries), "
        f"{report['reads']} reads ({report['read_retryable_failures']} "
        f"failovers exhausted, {report['read_deadline_failures']} "
        f"deadline-shed, 0 violations), fleet converged at seqno "
        f"{fleet.seqno}", fleet)


def obs_drill(trace_out: Optional[str] = None,
              metrics_out: Optional[str] = None) -> dict:
    """A traced durable storm, then the tracing contract on its spans.

    * **one write, one tree** — a clean traced ``rate`` yields a
      connected span tree from the client root through admission and the
      WAL (``wal.commit`` → ``wal.append``/``wal.fsync`` → ``wal.ship``)
      to every follower's ``wal.follower_apply``;
    * **durations nest** — no span in that tree outlasts the client's
      observed latency, and the WAL children fit inside the commit;
    * **fusion fans in** — concurrent reads share ``fusion.window`` spans
      whose ``fusion.waiter`` children index the response order;
    * **metrics unify** — the ``metrics`` frame serves the fleet-wide
      registry under dotted names, and is the only dotted view: the
      ``health`` frame carries each counter once, undotted.
    """
    # One tracer for clients *and* fleet: the drill runs in-process, so
    # every hop of every trace lands in the same ring buffer.
    tracer = Tracer(capacity=65536)
    with Fleet(data_seed=17, n_replicas=OBS_REPLICAS, durable=True,
               fuse_window_ms=OBS_FUSE_WINDOW_MS, tracer=tracer) as fleet:
        # Every storm client on the leader, so concurrent reads fuse.
        durable_storm(fleet, OBS_WRITES,
                      {"addresses": fleet.replicas.addresses[:1],
                       "tracer": tracer}, n_readers=OBS_READERS)
        fleet.verdict()

        # The acceptance write: one clean traced mutation, timed.
        with fleet.client(tracer=tracer) as client:
            user = client.fold_in(np.array([3, 4]), np.array([2.0, 5.0]))
            begin = time.perf_counter()
            client.rate(user, np.array([0]), np.array([1.0]))
            write_ms = (time.perf_counter() - begin) * 1e3
            snapshot, health = client.metrics(), client.health()

    spans = tracer.spans()
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)

    # -- one write, one tree ------------------------------------------
    roots = [span for span in spans
             if span["name"] == "client.rate" and span["parent_id"] is None]
    require(bool(roots), "no traced client.rate root span recorded")
    root = roots[-1]  # the clean post-storm write
    tree, stack = [], [root]
    while stack:
        node = stack.pop()
        tree.append(node)
        stack.extend(children.get(node["span_id"], []))
    missing = {"client.attempt", "server.admit", "server.queue",
               "wal.commit", "wal.append", "wal.fsync", "wal.ship",
               "wal.follower_apply"} - {span["name"] for span in tree}
    require(not missing, f"write trace is missing spans: {missing}")
    require({span["trace_id"] for span in tree} == {root["trace_id"]},
            "write tree mixes trace ids")
    applies = [span for span in tree if span["name"] == "wal.follower_apply"]
    require(len(applies) == OBS_REPLICAS - 1,
            f"{len(applies)} follower applies for {OBS_REPLICAS} replicas")

    # -- durations nest ------------------------------------------------
    for span in tree:
        require(span["dur_ms"] <= root["dur_ms"] + 1.0,
                f"{span['name']} outlasted its client root")
    require(root["dur_ms"] <= write_ms + 5.0,
            "root span outlasted the observed client latency")
    commit = max((span for span in tree if span["name"] == "wal.commit"),
                 key=lambda span: span["ts"])
    require(sum(span["dur_ms"] for span in children.get(commit["span_id"], [])
                if span["name"] in ("wal.append", "wal.fsync"))
            <= commit["dur_ms"] + 1.0, "WAL children overflow wal.commit")

    # -- fusion fans in ------------------------------------------------
    windows = [span for span in spans if span["name"] == "fusion.window"]
    require(bool(windows), "no fused window was traced")
    deepest = 0
    for window in windows:
        indexes = [span["attrs"]["index"]
                   for span in children.get(window["span_id"], [])
                   if span["name"] == "fusion.waiter"]
        require(sorted(indexes) == list(range(len(indexes))),
                f"waiter indexes {indexes} do not cover response order")
        deepest = max(deepest, len(indexes))
    require(deepest >= 2, "no window ever fused two traced waiters")

    # -- metrics unify -------------------------------------------------
    for prefix in ("serving.server.n_requests",
                   "serving.server.queue_wait_ms", "serving.fusion.windows",
                   "wal.append.fsync_ms", "wal.applied_seqno"):
        require(any(key.startswith(prefix) for key in snapshot),
                f"registry snapshot lacks {prefix}")
    require("metrics" not in health
            and not any("." in key for key in health),
            "health frame carries a dotted metrics block")

    write_spans(trace_out, spans)
    return finish(metrics_out, {
        "benchmark": "obs-smoke", "replicas": OBS_REPLICAS,
        "readers": OBS_READERS, "writers": N_WRITERS,
        "tracer": tracer.stats(), "metrics": snapshot},
        f"OBS SMOKE OK: {len(spans)} spans from {OBS_READERS} traced readers "
        f"and {N_WRITERS} writers over {OBS_REPLICAS} replicas; write tree "
        f"client → admit → wal.commit → append/fsync → ship → "
        f"{len(applies)} follower applies in {root['dur_ms']:.2f} ms, "
        f"{len(windows)} fused windows (deepest {deepest} waiters), "
        f"{len(snapshot)} registry series")


DRILLS = {"smoke": smoke_drill, "cluster-smoke": cluster_drill,
          "net-smoke": net_drill, "wal-smoke": wal_drill,
          "chaos-smoke": chaos_drill, "obs-smoke": obs_drill}
