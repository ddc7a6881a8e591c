"""``dist_socket_2rank``: the distributed sampler over real localhost TCP.

One op is one complete ``run_local_socket_world`` call — mesh set-up, a
2 burn-in + 4 sampling sweep chain on two rank threads, teardown.  The two
rank threads share this process's one pinned CPU, so wall-clock here is
per-core efficiency of the exchange path, not scaling; what needs real
cores is reported as exact counts (messages, bytes, items exchanged).

Traced, the benchmark stands the world up itself and hands each rank a
timing proxy through the public ``comm_world=`` argument; the engine's
``update_items`` is wrapped on the class for the length of the traced ops.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.core import BPMFConfig, GibbsSampler
from repro.core.batch_engine import BatchedUpdateEngine
from repro.datasets import make_movielens_like
from repro.distributed import (DistributedGibbsSampler, DistributedOptions,
                               build_comm_plan, partition_ratings)
from repro.distributed.spmd import run_local_socket_world
from repro.mpi.net import start_local_world

from perfbench.spans import SpanRecorder, seconds

N_RANKS = 2
SCALE = 40.0
NUM_LATENT = 16
BURN_IN = 2
N_SAMPLES = 4
SWEEPS = BURN_IN + N_SAMPLES
WARMUP_OPS = 2

#: Chains timed for the sim-world and single-worker baselines (traced only).
BASELINE_RUNS = 3

_COMM_SPANS = {"isend": "mpi.send", "send": "mpi.send",
               "recv": "mpi.recv_wait", "allreduce": "mpi.collective",
               "bcast": "mpi.collective", "barrier": "mpi.collective"}


class _TimedComm:
    """A ``SocketComm`` whose verbs each record a span."""

    def __init__(self, comm, recorder: SpanRecorder):
        self._comm = comm
        for verb, span_name in _COMM_SPANS.items():
            setattr(self, verb, self._timed(getattr(comm, verb), span_name,
                                            recorder))

    @staticmethod
    def _timed(verb, span_name: str, recorder: SpanRecorder):
        def timed(*args, **kwargs):
            with recorder.span(span_name):
                return verb(*args, **kwargs)

        return timed

    def __getattr__(self, name: str):
        return getattr(self._comm, name)


class _TimedWorld:
    """A ``SocketCommWorld`` that hands out :class:`_TimedComm`."""

    def __init__(self, world, recorder: SpanRecorder):
        self._world = world
        self._recorder = recorder

    def comm(self):
        return _TimedComm(self._world.comm(), self._recorder)

    def __getattr__(self, name: str):
        return getattr(self._world, name)


def _make_sampler(config: BPMFConfig) -> DistributedGibbsSampler:
    return DistributedGibbsSampler(config, DistributedOptions(n_ranks=N_RANKS))


def _summarise(results) -> Tuple[float, int, int]:
    """``(rank-0 final RMSE, messages, bytes)`` of one finished world."""
    rmse = results[0][0].final_rmse
    messages = sum(info.n_messages for _, info in results)
    n_bytes = sum(int(info.bytes_sent) for _, info in results)
    return rmse, messages, n_bytes


def _traced_op(op_id: int, config, train, split, seed,
               recorder: SpanRecorder):
    """``run_local_socket_world`` re-driven from here with timing proxies."""
    results = [None] * N_RANKS
    errors: List[BaseException] = []
    with recorder.span("op", op_id=op_id):
        with recorder.span("mpi.world_setup"):
            worlds = start_local_world(N_RANKS)

        def drive(rank: int) -> None:
            try:
                with recorder.span("distributed.rank", op_id=op_id):
                    results[rank] = _make_sampler(config).run(
                        train, split, seed=seed,
                        comm_world=_TimedWorld(worlds[rank], recorder))
            except BaseException as error:  # re-raised below
                errors.append(error)
                worlds[rank].abort(f"rank {rank} failed: {error}")

        threads = [threading.Thread(target=drive, args=(rank,), daemon=True)
                   for rank in range(N_RANKS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            with recorder.span("mpi.world_setup"):
                for world in worlds:
                    world.close()
    if errors:
        raise errors[0]
    return results


def _baselines(config, train, split, seed, recorder) -> Dict[str, float]:
    """Standalone replays: planning, the sim-world chain and the plain
    single-worker sampler on the same data and K."""
    with recorder.span("distributed.partition") as partition_span:
        partition = partition_ratings(train, N_RANKS)
    with recorder.span("distributed.comm_plan") as plan_span:
        plan = build_comm_plan(train, partition)
    sim_ms, sequential_s = [], []
    for _ in range(BASELINE_RUNS):
        start = time.perf_counter()
        _make_sampler(config).run(train, split, seed=seed)
        sim_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        GibbsSampler(config).run(train, split, seed=seed)
        sequential_s.append(time.perf_counter() - start)
    items = (train.n_users + train.n_movies) * SWEEPS
    return {
        "distributed.partition_ms": seconds(partition_span) * 1e3,
        "distributed.comm_plan_ms": seconds(plan_span) * 1e3,
        "distributed.items_exchanged": float(plan.total_items_exchanged()),
        "sim_chain_ms": float(np.median(sim_ms)),
        "sequential_items_per_s": items / float(np.median(sequential_s)),
    }


def _layers(recorder: SpanRecorder, first_timed_op: int,
            op_ms: List[float]) -> Dict[str, float]:
    """Per-sweep layer times: per op, the slowest rank's total of each
    layer (the rank the other one waits for) over the sweeps; then the
    median over the timed ops."""
    spans = recorder.spans
    ranks = {span["id"]: span for span in spans
             if span["name"] == "distributed.rank"
             and span["op_id"] >= first_timed_op}
    per_rank: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        if span["parent"] in ranks:
            per_rank[span["parent"]][span["name"]] += seconds(span) * 1e3
    per_op: Dict[int, List[Dict[str, float]]] = defaultdict(list)
    for rank_id, totals in per_rank.items():
        totals["distributed.compute"] = (totals["core.update_movies"]
                                         + totals["core.update_users"])
        per_op[ranks[rank_id]["op_id"]].append(totals)

    def slowest_rank(name: str) -> float:
        return float(np.median([
            max(totals[name] for totals in rank_totals) / SWEEPS
            for rank_totals in per_op.values()]))

    layers = {name + "_ms": slowest_rank(name) for name in (
        "core.update_movies", "core.update_users", "distributed.compute",
        "mpi.send", "mpi.recv_wait", "mpi.collective")}
    layers["distributed.imbalance"] = float(np.median([
        max(t["distributed.compute"] for t in rank_totals)
        / np.mean([t["distributed.compute"] for t in rank_totals])
        for rank_totals in per_op.values()]))
    setup: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["name"] == "mpi.world_setup" \
                and span["op_id"] >= first_timed_op:
            setup[span["op_id"]] += seconds(span) * 1e3
    layers["mpi.world_setup_ms"] = float(np.median(list(setup.values())))
    layers["trace.layers_over_op"] = (
        SWEEPS * (layers["distributed.compute_ms"] + layers["mpi.send_ms"]
                  + layers["mpi.recv_wait_ms"] + layers["mpi.collective_ms"])
        + layers["mpi.world_setup_ms"]) / float(np.median(op_ms))
    return layers


def run(workload: str, seed: int, n_ops: int, traced: bool, t0: float,
        workdir: str) -> Dict[str, object]:
    data = make_movielens_like(scale=SCALE, seed=seed)
    train, split = data.split.train, data.split
    config = BPMFConfig(num_latent=NUM_LATENT, burn_in=BURN_IN,
                        n_samples=N_SAMPLES)
    recorder = SpanRecorder()

    def plain_op(op_id: int):
        return run_local_socket_world(lambda: _make_sampler(config), N_RANKS,
                                      train, split, seed)

    def traced_op(op_id: int):
        return _traced_op(op_id, config, train, split, seed, recorder)

    for op_id in range(WARMUP_OPS):
        plain_op(op_id)
    gc.collect()

    op = plain_op
    update_items = BatchedUpdateEngine.update_items
    if traced:
        op = traced_op

        def timed_update(self, target, source, axis, *args, **kwargs):
            name = ("core.update_movies" if axis is train.by_movie
                    else "core.update_users")
            with recorder.span(name):
                return update_items(self, target, source, axis,
                                    *args, **kwargs)

        BatchedUpdateEngine.update_items = timed_update

    outcomes, op_ms = [], []
    try:
        started = time.perf_counter()
        setup_s = started - t0
        for op_id in range(WARMUP_OPS, WARMUP_OPS + n_ops):
            begin = time.perf_counter()
            try:
                outcomes.append(_summarise(op(op_id)))
            except Exception as error:  # noqa: BLE001 - counted, reported
                outcomes.append((repr(error), -1, -1))
            op_ms.append((time.perf_counter() - begin) * 1e3)
        wall_s = time.perf_counter() - started
    finally:
        BatchedUpdateEngine.update_items = update_items

    # The reference the socket chain must reproduce bit for bit: the same
    # sampler orchestrated over the in-process SimCommWorld.
    reference, _ = _make_sampler(config).run(train, split, seed=seed)
    wrong = [rmse for rmse, _, _ in outcomes if rmse != reference.final_rmse]
    traffic = {(messages, n_bytes) for _, messages, n_bytes in outcomes}
    checks = [
        {"name": "socket_chain_bit_identical_to_sim_world",
         "ok": not wrong,
         "detail": f"{len(wrong)} of {n_ops} ops off "
                   f"final_rmse={reference.final_rmse!r}: {wrong[:1]}"},
        {"name": "traffic_identical_across_ops",
         "ok": len(traffic) == 1, "detail": f"{sorted(traffic)}"},
    ]
    messages, n_bytes = outcomes[0][1], outcomes[0][2]
    report: Dict[str, object] = {
        "setup_s": setup_s,
        "op_ms": op_ms,
        "wall_s": wall_s,
        "work": (n_ops - len(wrong)) * SWEEPS
        * (train.n_users + train.n_movies),
        "ops_attempted": n_ops,
        "ops_failed": len(wrong),
        "checks": checks,
        "fingerprint": {"final_rmse": float(reference.final_rmse).hex(),
                        "mpi_messages": messages, "mpi_bytes": n_bytes},
    }
    if traced:
        layers = _layers(recorder, WARMUP_OPS, op_ms)
        layers.update(_baselines(config, train, split, seed, recorder))
        layers["mpi.messages"] = messages / SWEEPS
        layers["mpi.bytes"] = n_bytes / SWEEPS
        report["layers"] = layers
        report["spans"] = recorder.spans
    return report
