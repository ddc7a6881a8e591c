"""``serve_mixed``: reads and durable writes against a replicated fleet.

A synthetic posterior is served by a leader + follower ``ReplicaSet`` with
a durable fsync-per-ack WAL and the default fused read path.  Four
closed-loop logical clients (callers that each wait for their reply) run
as coroutines on one ``AsyncServingClient`` pinned to the leader — one
thread, one event loop — and follow the seeded schedules of
:mod:`perfbench.schedule`.  One op is one request.

Traced, the leader serves from a timing subclass of ``PredictionService``
and the codec and the WAL append are replayed standalone on the frames
and payloads the storm produced.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import AsyncServingClient, ReplicaSet
from repro.serving.net.protocol import (Frame, FrameDecoder, encode_frame,
                                        recommendation_payload)
from repro.serving.service import PredictionService
from repro.serving.wal.log import WriteAheadLog

from perfbench.schedule import make_schedule
from perfbench.spans import SpanRecorder, seconds
from perfbench.spec import SERVE_CLIENTS

N_USERS = 2000
N_ITEMS = 4000
NUM_LATENT = 32
CACHE_SIZE = N_USERS // 16
TOP_N = 10
WARMUP_READS = 200
FOLD_IN_RATINGS = 5

#: Reads whose frames the traced round replays through the codec.
CODEC_SAMPLE = 500

#: (begin, end, is_write, reply-or-exception) of one request.
Record = Tuple[float, float, bool, object]


class _TimedService(PredictionService):
    """The leader's gateway in a traced round: a span per layer call."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs):
        super().__init__(*args, **kwargs)
        self._recorder = recorder

    def top_n(self, *args, **kwargs):
        with self._recorder.span("serving.service.top_n"):
            return super().top_n(*args, **kwargs)

    def add_ratings(self, *args, **kwargs):
        with self._recorder.span("serving.service.add_ratings"):
            return super().add_ratings(*args, **kwargs)


async def _client_loop(client: AsyncServingClient, ops, own_user: int,
                       records: List[Record]) -> None:
    for op in ops:
        is_write = op[0] == "rate"
        begin = time.perf_counter()
        try:
            if is_write:
                reply = await client.rate(own_user, [op[1]], [op[2]])
            else:
                reply = await client.top_n(op[1], n=TOP_N)
        except Exception as error:  # noqa: BLE001 - a failed op, counted
            reply = error
        records.append((begin, time.perf_counter(), is_write, reply))


async def _storm(fleet: ReplicaSet, seed: int, warmup, schedules, t0: float,
                 lag_samples: List[int], traced: bool):
    """Fold the clients' users in, warm up, then run the timed storm."""
    rng = np.random.default_rng([seed, 0xF01D])
    async with AsyncServingClient(fleet.addresses[:1]) as client:
        own_users = [
            await client.fold_in(
                rng.choice(N_ITEMS, size=FOLD_IN_RATINGS, replace=False),
                rng.integers(1, 11, size=FOLD_IN_RATINGS) / 2.0)
            for _ in range(SERVE_CLIENTS)]
        warm: List[List[Record]] = [[] for _ in range(SERVE_CLIENTS)]
        await asyncio.gather(*(
            _client_loop(client, warmup[i], own_users[i], warm[i])
            for i in range(SERVE_CLIENTS)))
        gc.collect()

        async def watch_lag() -> None:
            while True:
                lag_samples.append(
                    int(fleet.wal_stats()[0]["max_follower_lag"]))
                await asyncio.sleep(0.02)

        watcher = asyncio.create_task(watch_lag()) if traced else None
        timed: List[List[Record]] = [[] for _ in range(SERVE_CLIENTS)]
        started = time.perf_counter()
        setup_s = started - t0
        await asyncio.gather(*(
            _client_loop(client, schedules[i], own_users[i], timed[i])
            for i in range(SERVE_CLIENTS)))
        wall_s = time.perf_counter() - started
        if watcher is not None:
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
    return own_users, warm, timed, setup_s, wall_s


def _well_formed(op, own_user: int, reply) -> bool:
    """A reply of the right shape for its request (an exception is not)."""
    if op[0] == "rate":
        return reply == own_user
    return (hasattr(reply, "items") and reply.user == op[1]
            and reply.items.shape == (TOP_N,)
            and reply.scores.shape == (TOP_N,)
            and bool(np.all(np.diff(reply.scores) <= 0))
            and 0 <= int(reply.items.min())
            and int(reply.items.max()) < N_ITEMS)


def _codec_us(reads: List[Tuple[int, object]]) -> float:
    """Median microseconds one read spends in the codec: request and reply
    each encoded and decoded once, replayed on the recorded frames."""
    decoder = FrameDecoder()
    costs = []
    for request_id, (user, reply) in enumerate(reads[:CODEC_SAMPLE]):
        request = Frame("top_n", {"user": user, "n": TOP_N,
                                  "exclude_seen": True, "id": request_id})
        response = Frame("ok", dict(recommendation_payload(reply, arrays=True),
                                    id=request_id))
        begin = time.perf_counter()
        decoder.feed(encode_frame(request, binary=True))
        decoder.feed(encode_frame(response, binary=True))
        costs.append((time.perf_counter() - begin) * 1e6)
    return float(np.median(costs))


def _wal_append_ms(payloads: List[dict], directory: str) -> float:
    """Median ``WriteAheadLog.append`` (fsync included) on the payloads the
    leader logged, replayed into a fresh log."""
    costs = []
    with WriteAheadLog(directory, sync_every=1) as log:
        for payload in payloads:
            begin = time.perf_counter()
            log.append(payload)
            costs.append((time.perf_counter() - begin) * 1e3)
    return float(np.median(costs))


def run(workload: str, seed: int, n_ops: int, traced: bool, t0: float,
        workdir: str) -> Dict[str, object]:
    recorder = SpanRecorder()
    snapshot = make_bench_snapshot(N_USERS, N_ITEMS, NUM_LATENT, seed=seed)

    def make_service(index: int) -> PredictionService:
        if traced and index == 0:
            return _TimedService(snapshot, cache_size=CACHE_SIZE,
                                 recorder=recorder)
        return PredictionService(snapshot, cache_size=CACHE_SIZE)

    schedules = make_schedule(seed, SERVE_CLIENTS, n_ops, N_USERS, N_ITEMS)
    warmup = make_schedule(seed + 1, SERVE_CLIENTS,
                           WARMUP_READS // SERVE_CLIENTS, N_USERS, N_ITEMS,
                           write_share=0.0)
    wal_dir = os.path.join(workdir, "wal")
    replay_dir = os.path.join(workdir, "wal-replay")
    lag_samples: List[int] = []
    try:
        with ReplicaSet(make_service, n_replicas=2, wal_dir=wal_dir,
                        wal_sync_every=1) as fleet:
            own_users, warm, timed, setup_s, wall_s = asyncio.run(_storm(
                fleet, seed, warmup, schedules, t0, lag_samples, traced))
            leader = fleet.leader
            wal = leader.server.wal.stats()
            digests = [replica.server.call_serialized(
                replica.service.state_digest) for replica in fleet.replicas]
            server_stats = leader.server.stats()
            fusion = leader.server.fuser.metrics()
            cache = leader.service.stats()
            logged = [record.payload
                      for record in leader.server.wal.log.records()]
        wal_bytes = sum(entry.stat().st_size for entry in os.scandir(wal_dir))
        wal_append_ms = (_wal_append_ms(logged, replay_dir)
                         if traced else 0.0)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
        shutil.rmtree(replay_dir, ignore_errors=True)

    flat = [(op, own_users[i], record) for i in range(SERVE_CLIENTS)
            for op, record in zip(schedules[i], timed[i])]
    ok = [_well_formed(op, own, record[3]) for op, own, record in flat]
    bad = [record[3] for (_, _, record), fine in zip(flat, ok) if not fine]
    failed = len(bad)
    acked = SERVE_CLIENTS + sum(
        1 for op, own, record in flat if record[2] and record[3] == own)
    # Reads taken before the first `rate`, against the same posterior
    # served in-process: the wire must not change a bit.
    oracle = PredictionService(snapshot, cache_size=CACHE_SIZE)
    warm_flat = [(op, own_users[i], record) for i in range(SERVE_CLIENTS)
                 for op, record in zip(warmup[i], warm[i])]
    mismatched = 0
    for op, own, record in warm_flat:
        expected = oracle.top_n(op[1], n=TOP_N)
        reply = record[3]
        if not (_well_formed(op, own, reply)
                and np.array_equal(reply.items, expected.items)
                and np.array_equal(reply.scores, expected.scores)):
            mismatched += 1
    checks = [
        {"name": "every_reply_well_formed", "ok": failed == 0,
         "detail": f"{failed} of {len(flat)} malformed or failed: "
                   f"{bad[:1]!r}"},
        {"name": "acked_writes_equal_leader_wal_high_seqno",
         "ok": acked == wal["high_seqno"],
         "detail": f"acked={acked} high_seqno={wal['high_seqno']}"},
        {"name": "leader_and_follower_digests_equal",
         "ok": len(set(digests)) == 1, "detail": ""},
        {"name": "pre_write_top_n_equals_in_process_service",
         "ok": mismatched == 0,
         "detail": f"{mismatched} of {len(warm_flat)} differ"},
    ]

    latencies = np.array([(r[1] - r[0]) * 1e3 for _, _, r in flat])
    is_write = np.array([r[2] for _, _, r in flat])
    report: Dict[str, object] = {
        "setup_s": setup_s,
        "op_ms": latencies.tolist(),
        "wall_s": wall_s,
        "work": len(flat) - failed,
        "ops_attempted": len(flat),
        "ops_failed": failed,
        "checks": checks,
        "fingerprint": {"acked_writes": acked},
    }
    if traced:
        for op_id, (op, own, record) in enumerate(flat):
            recorder.add("serving.net.write" if record[2]
                         else "serving.net.read", record[0], record[1],
                         op_id=op_id)
        service_ms: Dict[str, List[float]] = {"serving.service.top_n": [],
                                              "serving.service.add_ratings": []}
        for span in recorder.spans:
            if span["name"] in service_ms:
                service_ms[span["name"]].append(seconds(span) * 1e3)
        read_p50 = float(np.median(latencies[~is_write]))
        top_n_ms = float(np.median(service_ms["serving.service.top_n"]))
        codec_us = _codec_us([
            (op[1], record[3]) for (op, _, record), fine in zip(flat, ok)
            if fine and not record[2]])
        shed = server_stats["n_deadline_shed"] + sum(
            server_stats["n_overload_shed"].values())
        report["layers"] = {
            "serving.net.read_p50_ms": read_p50,
            "serving.net.write_p50_ms": float(np.median(latencies[is_write])),
            "serving.net.codec_us": codec_us,
            "serving.net.fused_batch_mean":
                fusion["requests"] / max(1, fusion["windows"]),
            "serving.net.shed": float(shed),
            "serving.net.overhead_ms":
                read_p50 - top_n_ms - codec_us / 1e3,
            "serving.service.top_n_ms": top_n_ms,
            "serving.service.add_ratings_ms": float(np.median(
                service_ms["serving.service.add_ratings"])),
            "serving.service.cache_hit_ratio": cache["cache_hits"] / max(
                1, cache["cache_hits"] + cache["cache_misses"]),
            "serving.wal.append_ms": wal_append_ms,
            "serving.wal.fsyncs": float(wal["log"]["syncs"]),
            "serving.wal.bytes_per_write": wal_bytes / max(1, len(logged)),
            "serving.wal.follower_lag_max": float(max(lag_samples,
                                                      default=0)),
        }
        report["spans"] = recorder.spans
    return report
