"""The option census: every settable option, and who sets it.

One row per option of the sampler options, the serving fleet's classes,
the WAL coordinators, the socket world's entry points and the three
command lines.  A row's reason names who sets the option to something
other than its default, and starts with its kind:

* ``figure`` — a paper-figure driver (``repro.bench``);
* ``perfbench`` — a perfbench workload (``BENCHMARK.json``);
* ``drill`` / ``ci`` — a serving drill (``repro.serving.drills``) or a CI
  job (``.github/workflows/ci.yml``);
* ``safety`` — a test of a named safety claim;
* ``deployment`` — an address, port, path or operator setting;
* ``roadmap N`` — the open ROADMAP item that owns the decision.

The test reads the live parameters, dataclass fields and argparse flags
of every surface and fails when an option has no row, or a row names an
option that no longer exists.  An option nobody sets is deleted, not
given a row.

Out of scope, each owned elsewhere:

* the performance model's dataclasses (``repro.parallel``,
  ``repro.distributed.scaling``): ROADMAP item 6 decides whether the
  model stays at all;
* ``BPMFConfig`` and the dataset-generator configs: the golden
  trajectories and the perfbench workloads pin their values;
* the side-information sampler (``MacauGibbsSampler``, ``SideInfo``),
  parked with the rest of the dataset and side-info breadth.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

from repro.core.checkpoint import CheckpointConfig
from repro.core.gibbs import SamplerOptions
from repro.core.updates import HybridUpdatePolicy
from repro.bench.__main__ import build_parser as bench_parser
from repro.distributed.sampler import DistributedOptions
from repro.distributed.spmd import run_local_socket_world
from repro.mpi.net.__main__ import build_parser as mpi_parser
from repro.mpi.net.world import SocketCommWorld, start_local_world
from repro.serving.__main__ import build_parser as serving_parser
from repro.serving.cluster import ShardedScorer, SnapshotWatcher
from repro.serving.net.client import AsyncServingClient
from repro.serving.net.fusion import QueryFuser
from repro.serving.net.replica import ReplicaSet
from repro.serving.net.server import NetServer
from repro.serving.service import PredictionService
from repro.serving.wal.log import WriteAheadLog
from repro.serving.wal.shipper import FollowerCoordinator, LeaderCoordinator

KINDS = ("figure", "perfbench", "drill", "ci", "safety", "deployment",
         "roadmap 4", "roadmap 12")

#: Shared reasons.
_GEWEKE = ("safety: tests/test_geweke.py POLICY moves every threshold so "
           "the joint-distribution test covers all three kernels")
_OVERLOAD = ("safety: overload/deadline shedding, tests/test_chaos_defenses.py "
             "(one-slot fleet, fused and unfused)")
_CHAOS = "drill: chaos-smoke (seeded faults against a durable fleet)"
_OBS = "drill: obs-smoke (one registry, labelled per replica, traced)"
_ENGINES = "roadmap 12: the in-node parallel rungs, decided by 2-core runs"
_SERVE_MIXED = "perfbench serve_mixed"
_DIST = "perfbench dist_socket_2rank"
_DIST_SMOKE = "ci: dist-smoke's ranks join through it (repro.mpi.net)"

CENSUS = {
    "SamplerOptions": {
        "policy": _GEWEKE,
        "engine": _ENGINES,
        "n_workers": _ENGINES,
        "n_threads": _ENGINES,
        "keep_sample_predictions": (
            "safety: epoch equivalence, tests/test_epoch_equivalence.py "
            "(and ci: bench-smoke runs examples/quickstart.py)"),
        "callback": "perfbench train_movielens / train_chembl time each sweep",
        "checkpoint": "drill: every drill trains its snapshot through it",
    },
    "DistributedOptions": {
        "n_ranks": "perfbench dist_socket_2rank (2 ranks)",
        "hyper_mode": "roadmap 4: one exact hyper statistic deletes it",
    },
    "HybridUpdatePolicy": {
        "parallel_threshold": _GEWEKE,
        "rank_one_threshold": _GEWEKE,
        "block_grain": _GEWEKE,
    },
    "CheckpointConfig": {
        "path": "deployment: the snapshot file",
        "every": "drill: drills snapshot every 2 sweeps (a retrain every 3)",
    },
    "ReplicaSet": {
        "make_service": f"{_SERVE_MIXED}: its gateway factory",
        "n_replicas": "drill: wal-, chaos- and obs-smoke run 3 replicas",
        "host": "deployment: bind address (serve --tcp)",
        "ports": "deployment: one port per replica (serve --tcp)",
        "make_watcher": "deployment: serve --tcp --watch hot-reloads snapshots",
        "fuse_window_ms": _OVERLOAD,
        "max_in_flight": _OVERLOAD,
        "wal_dir": f"{_SERVE_MIXED}: the leader's log directory",
        "wal_sync_every": f"{_SERVE_MIXED} passes it (fsync per ack)",
        "max_queue_depth": _OVERLOAD,
        "ship_cooldown": _CHAOS,
        "ship_backoff_max": _CHAOS,
        "ship_backoff_seed": _CHAOS,
        "fault_injector": _CHAOS,
        "tracer": _OBS,
    },
    "NetServer": {
        "service": f"{_SERVE_MIXED}: ReplicaSet serves each gateway",
        "host": "deployment: bind address",
        "port": "deployment: bind port",
        "fuse_window_ms": _OVERLOAD,
        "max_in_flight": _OVERLOAD,
        "max_queue_depth": _OVERLOAD,
        "watcher": "deployment: serve --tcp --watch, through ReplicaSet",
        "wal_expected": (f"{_SERVE_MIXED}: ReplicaSet sets it on every "
                         "replica, so no mutation applies unreplicated"),
        "tracer": _OBS,
        "registry": _OBS,
        "metrics_labels": _OBS,
    },
    "AsyncServingClient": {
        "addresses": "deployment: the replica addresses",
        "timeout": f"{_CHAOS}; 2 s per wait",
        "cooldown": "drill: every drill client fails over after 50 ms",
        "backoff_max": "drill: every drill client caps its backoff at 1 s",
        "backoff_seed": _CHAOS,
        "fault_injector": _CHAOS,
        "tracer": _OBS,
    },
    "QueryFuser": {
        "top_n_batch": f"{_SERVE_MIXED}: NetServer passes the gateway's batch",
        "window_ms": "drill: obs-smoke widens the window to 20 ms",
        "max_batch": (
            "safety: deadline shedding, tests/test_chaos_defenses.py "
            "test_expired_requests_are_never_dispatched holds every "
            "request in one window"),
        "tracer": _OBS,
    },
    "WriteAheadLog": {
        "directory": f"{_SERVE_MIXED}: the log directory",
        "sync_every": f"{_SERVE_MIXED} times WriteAheadLog(dir, sync_every=1)",
        "segment_bytes": (
            "safety: rotation, tests/test_wal_log.py "
            "test_rotation_spreads_segments_and_replays_identically"),
        "fault_injector": _CHAOS,
        "registry": _OBS,
        "metrics_labels": _OBS,
    },
    "LeaderCoordinator": {
        "service": f"{_SERVE_MIXED}: ReplicaSet wraps the leader's gateway",
        "log": f"{_SERVE_MIXED}: the leader's recovered WriteAheadLog",
        "ship_cooldown": _CHAOS,
        "ship_backoff_max": _CHAOS,
        "ship_backoff_seed": _CHAOS,
        "tracer": _OBS,
    },
    "FollowerCoordinator": {
        "service": f"{_SERVE_MIXED}: ReplicaSet wraps the follower's gateway",
        "leader_address": f"{_SERVE_MIXED}: followers forward writes there",
        "tracer": _OBS,
    },
    "run_local_socket_world": {
        "make_sampler": f"{_DIST}: one DistributedGibbsSampler per rank",
        "n_ranks": f"{_DIST} (2 ranks)",
        "train": f"{_DIST}: the MovieLens-like training matrix",
        "split": f"{_DIST}: evaluates on the held-out split",
        "seed": f"{_DIST}: the workload seed",
        "partition": (
            "safety: bit-exactness, tests/test_distributed_sampler.py "
            "test_rank_with_no_test_cells runs a lopsided partition over "
            "sockets"),
        "injectors": (
            "safety: fault tolerance, tests/test_mpi_net.py "
            "test_benign_faults_keep_the_chain_bit_identical"),
        "op_timeout": (
            "safety: fault tolerance, tests/test_mpi_net.py "
            "test_injected_reset_fails_fast bounds its wait at 30 s"),
    },
    "start_local_world": {
        "n_ranks": f"{_DIST}: the traced op sets up its own mesh",
        "injectors": (
            "safety: fault tolerance, tests/test_mpi_net.py "
            "test_connect_fault_site_is_checked"),
        "op_timeout": (
            "safety: fail-fast, tests/test_mpi_net.py "
            "test_dead_peer_fails_fast_not_hangs bounds its wait at 30 s"),
    },
    "SocketCommWorld.connect": {
        "rank": _DIST_SMOKE,
        "n_ranks": _DIST_SMOKE,
        "rendezvous": _DIST_SMOKE,
        "timeout": "deployment: rendezvous across hosts (--connect-timeout)",
        "injector": "ci: dist-smoke's benign and lethal phases (--fault-mode)",
    },
    "PredictionService": {
        "snapshot": "deployment: the snapshot path",
        "train": "drill: cluster-smoke excludes seen items",
        "cache_size": f"{_SERVE_MIXED}: the LRU holds n_users / 16",
    },
    "ShardedScorer": {
        "snapshot": "deployment: the snapshot path (serve --shards)",
        "n_shards": _ENGINES,
        "train": "drill: cluster-smoke excludes seen items",
        "n_workers": _ENGINES,
    },
    "SnapshotWatcher": {
        "scorer": "deployment: the gateway it swaps into (serve --watch)",
        "path": "deployment: the watched snapshot file or directory",
        "interval": (
            "safety: graceful shutdown, tests/test_serving_shutdown.py "
            "stops a watcher polling every 0.1 s"),
    },
    "python -m repro.serving": {
        "train --snapshot": "deployment: the snapshot path",
        "train --users": "ci: serving-smoke trains 60 x 40",
        "train --movies": "ci: serving-smoke trains 60 x 40",
        "train --num-latent": "ci: serving-smoke trains K=4",
        "train --burn-in": "ci: serving-smoke trains 2 + 3 sweeps",
        "train --n-samples": "ci: serving-smoke trains 2 + 3 sweeps",
        "train --backend": _ENGINES,
        "train --threads": _ENGINES,
        "train --engine": _ENGINES,
        "train --workers": _ENGINES,
        "train --checkpoint-every": "ci: serving-smoke checkpoints every 2",
        "train --resume": "deployment: the snapshot to continue",
        "info --snapshot": "deployment: the snapshot path",
        "query --snapshot": "deployment: the snapshot path",
        "query --user": "ci: serving-smoke queries user 0",
        "query --top": "ci: serving-smoke asks for 5",
        "query --pairs": "ci: serving-smoke predicts 0:1 2:7",
        "serve --snapshot": "deployment: the snapshot path",
        "serve --shards": _ENGINES,
        "serve --workers": _ENGINES,
        "serve --watch": "ci: serving-cluster-smoke serves with --watch",
        "serve --tcp": "deployment: HOST:PORT (ci: net-serving-smoke)",
        "serve --replicas": "ci: net-serving-smoke serves 2 replicas",
        "serve --wal": "deployment: the log directory (ci: wal-smoke)",
        "serve --trace-dir": "deployment: the span directory",
        "serve --log-level": "deployment: operator log verbosity",
        "smoke --log-level": "deployment: operator log verbosity",
        "cluster-smoke --latency-out": (
            "ci: serving-cluster-smoke latency artifact"),
        "cluster-smoke --log-level": "deployment: operator log verbosity",
        "net-smoke --latency-out": "ci: net-serving-smoke latency artifact",
        "net-smoke --log-level": "deployment: operator log verbosity",
        "wal-smoke --latency-out": "ci: wal-smoke latency artifact",
        "wal-smoke --log-level": "deployment: operator log verbosity",
        "chaos-smoke --seed": "ci: chaos-smoke runs seeds 1, 2 and 3",
        "chaos-smoke --report-out": "ci: chaos-smoke report artifact",
        "chaos-smoke --trace-out": "ci: chaos-smoke trace artifact",
        "chaos-smoke --log-level": "deployment: operator log verbosity",
        "obs-smoke --trace-out": "ci: obs-smoke trace artifact",
        "obs-smoke --metrics-out": "ci: obs-smoke metrics artifact",
        "obs-smoke --log-level": "deployment: operator log verbosity",
    },
    "python -m repro.mpi.net": {
        "--rank": "deployment: a process manager starts one rank each",
        "--spawn": "ci: dist-smoke spawns a 3-rank world",
        "--smoke": "ci: dist-smoke runs the four phases",
        "--world": "ci: dist-smoke runs 4 and 3 ranks",
        "--rendezvous": "deployment: rank 0's address",
        "--host": "deployment: bind/spawn address",
        "--fault-mode": "ci: dist-smoke's benign and lethal phases",
        "--out": "ci: dist-smoke report artifact",
        "--report": "ci: dist-smoke's spawner collects per-rank reports",
        "--metrics-out": "deployment: a metrics file path",
        "--trace-dir": "deployment: the span directory",
        "--workdir": "deployment: the scratch directory",
        "--connect-timeout": "deployment: rendezvous across hosts",
        "--users": ("safety: bit-exactness, tests/test_mpi_net.py "
                    "test_four_rank_subprocess_chain_bit_identical"),
        "--movies": ("safety: bit-exactness, tests/test_mpi_net.py "
                     "test_four_rank_subprocess_chain_bit_identical"),
        "--num-latent": ("safety: bit-exactness, tests/test_mpi_net.py "
                         "test_four_rank_subprocess_chain_bit_identical"),
        "--burn-in": ("safety: bit-exactness, tests/test_mpi_net.py "
                      "test_four_rank_subprocess_chain_bit_identical"),
        "--n-samples": "ci: dist-smoke's resume phase runs half the chain",
        "--seed": "ci: dist-smoke's resume phase relaunches with seed + 1",
        "--hyper-mode": "roadmap 4: one exact hyper statistic deletes it",
        "--checkpoint": "ci: dist-smoke's resume phase",
        "--resume": "ci: dist-smoke's resume phase",
    },
    "python -m repro.bench": {
        "--list": "deployment: an operator lists the experiment names",
        "--quick": "ci: bench-smoke runs every figure at reduced size",
        "--log-level": "deployment: operator log verbosity",
    },
}


def _parameters(cls) -> set:
    return {name for name in inspect.signature(cls).parameters
            if name != "self"}


def _fields(cls) -> set:
    return {field.name for field in dataclasses.fields(cls)}


def _flags(parser: argparse.ArgumentParser, prefix: str = "") -> set:
    return {prefix + max(action.option_strings, key=len)
            for action in parser._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)}


def _serving_flags() -> set:
    flags = set()
    for action in serving_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                flags |= _flags(subparser, name + " ")
    return flags


def live_options() -> dict:
    """Every surface's options as the code defines them today."""
    return {
        "SamplerOptions": _fields(SamplerOptions),
        "DistributedOptions": (_fields(DistributedOptions)
                               - _fields(SamplerOptions)),
        "HybridUpdatePolicy": _fields(HybridUpdatePolicy),
        "CheckpointConfig": _fields(CheckpointConfig),
        "ReplicaSet": _parameters(ReplicaSet),
        "NetServer": _parameters(NetServer),
        "AsyncServingClient": _parameters(AsyncServingClient),
        "QueryFuser": _parameters(QueryFuser),
        "WriteAheadLog": _parameters(WriteAheadLog),
        "LeaderCoordinator": _parameters(LeaderCoordinator),
        "FollowerCoordinator": _parameters(FollowerCoordinator),
        "run_local_socket_world": _parameters(run_local_socket_world),
        "start_local_world": _parameters(start_local_world),
        "SocketCommWorld.connect": _parameters(SocketCommWorld.connect),
        "PredictionService": _parameters(PredictionService),
        "ShardedScorer": _parameters(ShardedScorer),
        "SnapshotWatcher": _parameters(SnapshotWatcher),
        "python -m repro.serving": _serving_flags(),
        "python -m repro.mpi.net": _flags(mpi_parser()),
        "python -m repro.bench": _flags(bench_parser()),
    }


LIVE = live_options()


def test_the_census_covers_every_surface():
    assert set(CENSUS) == set(LIVE)


@pytest.mark.parametrize("surface", sorted(LIVE))
def test_every_option_has_a_row_and_every_row_an_option(surface):
    missing = sorted(LIVE[surface] - set(CENSUS[surface]))
    stale = sorted(set(CENSUS[surface]) - LIVE[surface])
    assert not missing, (
        f"{surface}: {missing} have no census row; name who sets them, "
        "or delete them")
    assert not stale, f"{surface}: rows for options that are gone: {stale}"


@pytest.mark.parametrize("surface", sorted(CENSUS))
def test_every_reason_names_its_kind(surface):
    for option, reason in CENSUS[surface].items():
        assert reason.startswith(KINDS), (surface, option, reason)


def test_the_census_total():
    """157 options before the census; each deletion lowers this.

    ShardedScorer and SnapshotWatcher joined at 130: with their ten
    options the total was 134, and four went (both ``mode`` options,
    ``prime`` and ``max_attempts``).  The coordinators, the socket
    world's three entry points and the bench command line joined with
    32 options, and the ``BPMF`` facade's 12 were counted as it went:
    174.  Seventeen went: the facade, ``update_method``, ``ship_timeout``,
    the follower's ``timeout``, ``host`` and ``connect``'s ``op_timeout``.
    """
    assert sum(map(len, LIVE.values())) == 157
