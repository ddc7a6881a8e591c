"""Command-line entry point: ``python -m repro.serving <command>``.

The full train → snapshot → serve → query lifecycle from a terminal:

.. code-block:: bash

    # Train on a synthetic workload, checkpointing every 2 sweeps.
    python -m repro.serving train --snapshot /tmp/model.npz \\
        --burn-in 2 --n-samples 3 --checkpoint-every 2

    # Continue a stopped run (bit-identical to never stopping).
    python -m repro.serving train --snapshot /tmp/model.npz \\
        --resume /tmp/model.npz --burn-in 2 --n-samples 6

    # Inspect / query the snapshot.
    python -m repro.serving info  --snapshot /tmp/model.npz
    python -m repro.serving query --snapshot /tmp/model.npz --user 3 --top 5
    python -m repro.serving query --snapshot /tmp/model.npz --pairs 0:1 2:7

    # Interactive line protocol (predict/top/foldin) on stdin.
    echo "top 3 5" | python -m repro.serving serve --snapshot /tmp/model.npz

    # Framed RPC over TCP: 2 independently-failing replicas with fused
    # batched dispatch.  Mutations replicate through the write leader
    # (replica 0); add --wal DIR to make them durable across restarts.
    python -m repro.serving serve --snapshot /tmp/model.npz \\
        --tcp 127.0.0.1:7031 --replicas 2 --shards 2 --wal /tmp/model-wal

    # End-to-end self-checks (the CI smoke steps, repro.serving.drills):
    # smoke, cluster-smoke, net-smoke, wal-smoke, chaos-smoke, obs-smoke.
    python -m repro.serving chaos-smoke --seed 1 --report-out /tmp/chaos.json
"""

from __future__ import annotations

import argparse
import inspect
import signal
import sys
import threading

import numpy as np

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.obs import Tracer
from repro.serving import drills
from repro.core.checkpoint import CheckpointConfig, load_snapshot
from repro.serving.cluster import ClusterError, ShardedScorer, SnapshotWatcher
from repro.serving.net import ReplicaSet
from repro.serving.net.protocol import execute, format_reply, parse_line
from repro.serving.service import PredictionService
from repro.utils.logging import set_verbosity
from repro.utils.validation import ValidationError

_BACKENDS = ("sequential", "multicore")
_ENGINES = ("batched", "shared", "reference")

#: The synthetic workload ``train`` samples (``--users`` and ``--movies``
#: set its size), its observation precision and the chain's seed.
TRAIN_DATA = dict(rank=5, density=0.15, noise_std=0.3, test_fraction=0.2,
                  seed=0)
TRAIN_ALPHA = 4.0
TRAIN_SEED = 0


def _add_snapshot_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot", required=True,
                        help="snapshot .npz path")


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="emit library logs on stderr at this level "
                             "(default: logging stays untouched)")


def _make_dataset(args):
    return make_low_rank_dataset(SyntheticConfig(
        n_users=args.users, n_movies=args.movies, **TRAIN_DATA))


def _cmd_train(args) -> int:
    try:
        data = _make_dataset(args)
        config = BPMFConfig(num_latent=args.num_latent, alpha=TRAIN_ALPHA,
                            burn_in=args.burn_in, n_samples=args.n_samples)
        checkpoint = CheckpointConfig(
            path=args.snapshot,
            every=(config.total_iterations if args.checkpoint_every is None
                   else args.checkpoint_every))
        sampler = GibbsSampler(config, SamplerOptions(
            engine=args.engine,
            n_workers=args.workers if args.engine == "shared" else None,
            n_threads=args.threads if args.backend == "multicore" else 1,
            checkpoint=checkpoint))
        result = sampler.run(data.split.train, data.split, seed=TRAIN_SEED,
                             resume=args.resume)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"trained {config.total_iterations} sweeps on "
          f"{data.split.train.n_users}x{data.split.train.n_movies} "
          f"({data.split.train.nnz} ratings, {data.split.n_test} held out)")
    print(f"snapshot: {args.snapshot} (sweep {result.state.iteration})")
    print(f"final posterior-mean RMSE: {result.final_rmse:.4f}")
    return 0


def _cmd_info(args) -> int:
    snapshot = load_snapshot(args.snapshot)
    state = snapshot.state
    print(f"format: repro-snapshot-v1, sweep {state.iteration}")
    print(f"factors: {state.n_users} users x {state.n_movies} movies, "
          f"K={state.num_latent}")
    print(f"posterior-mean samples: {snapshot.mean_count}")
    print(f"resumable: {snapshot.rng_state is not None}")
    print(f"offset: {snapshot.offset}")
    if snapshot.rmse_running_mean:
        print(f"posterior-mean RMSE: {snapshot.rmse_running_mean[-1]:.4f}")
    for key, value in sorted(snapshot.metadata.items()):
        print(f"metadata {key}: {value}")
    return 0


def _make_service(args):
    """The ``--shards N`` gateway, or one in-process service."""
    if getattr(args, "shards", 0):
        return ShardedScorer(args.snapshot, n_shards=args.shards,
                             n_workers=args.workers)
    return PredictionService(args.snapshot)


def _cmd_query(args) -> int:
    if not args.pairs and args.user is None:
        print("error: nothing to query: pass --user and/or --pairs",
              file=sys.stderr)
        return 2
    service = _make_service(args)
    try:
        if args.pairs:
            users, items = [], []
            for pair in args.pairs:
                user, _, item = pair.partition(":")
                users.append(int(user))
                items.append(int(item))
            scores = service.predict_batch(np.array(users), np.array(items))
            for user, item, score in zip(users, items, scores):
                print(f"predict {user} {item} -> {score:.4f}")
        if args.user is not None:
            recommendation = service.top_n(args.user, n=args.top)
            for rank, (item, score) in enumerate(recommendation.as_pairs(),
                                                 1):
                print(f"top {args.user} #{rank}: item {item} "
                      f"score {score:.4f}")
    except ValueError as error:  # ValidationError included
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _graceful_sigterm():
    """Route SIGTERM into the KeyboardInterrupt path; returns a restorer.

    Serving loops already tear down cleanly on Ctrl-C (worker pools
    stopped, shared-memory segments unlinked); folding SIGTERM into the
    same path gives ``kill <pid>`` the identical graceful drain.
    """
    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, raise_interrupt)
    return lambda: signal.signal(signal.SIGTERM, previous)


def _serve_repl(service, watcher, backend: str, owns_service: bool) -> int:
    """The stdin line protocol, parsed and formatted by the shared codec.

    Every command line goes through :func:`repro.serving.net.protocol.
    parse_line` → :func:`execute` → :func:`format_reply` — the same
    parser and executor the TCP transport uses; a golden-transcript test
    pins the output bit-identical to the historical ad-hoc loop.
    """
    restore_sigterm = _graceful_sigterm()
    print(f"serving {service.n_users} users x {service.n_items} items "
          f"({backend}); commands: predict, top, foldin, "
          f"rate, stats, quit", flush=True)
    try:
        for line in sys.stdin:
            try:
                request = parse_line(line)
                if request is None:
                    continue
                if request.kind == "quit":
                    break
                print(format_reply(request, execute(service, request)),
                      flush=True)
            except (ValidationError, IndexError, ValueError,
                    KeyError, ClusterError) as error:
                # Parse-time failures (execute() turns its own failures
                # into error frames, ClusterError included — a crashed
                # worker must not kill the session; the gateway respawns
                # its pool on the next command).
                print(f"error: {error}", flush=True)
    except KeyboardInterrupt:
        pass  # SIGTERM / Ctrl-C: drain through the shared teardown below
    finally:
        restore_sigterm()
        if watcher is not None:
            watcher.stop()
        if owns_service:
            service.close()
    return 0


def _parse_hostport(value: str):
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValidationError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7031), got {value!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # bracketed IPv6 literal, e.g. [::1]:7031
    elif ":" in host:
        raise ValidationError(
            f"--tcp expects HOST:PORT (bracket IPv6 hosts as "
            f"[ADDR]:PORT), got {value!r}")
    if int(port) > 65535:
        raise ValidationError(
            f"--tcp port must be 0-65535, got {port}")
    return host or "127.0.0.1", int(port)


def _serve_tcp(args, host: str, port: int) -> int:
    """The framed RPC transport: N fused replicas, and watch."""
    make_watcher = None
    if args.watch:
        make_watcher = lambda service: SnapshotWatcher(  # noqa: E731
            service, args.snapshot)

    stop_event = threading.Event()

    def request_stop(signum, frame):
        stop_event.set()

    previous = {sig: signal.signal(sig, request_stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    tracer = Tracer(sink_dir=args.trace_dir) if args.trace_dir else None
    replicas = ReplicaSet(
        lambda index: _make_service(args), n_replicas=args.replicas, host=host,
        ports=([port + index for index in range(args.replicas)]
               if port else None),
        make_watcher=make_watcher, wal_dir=args.wal, tracer=tracer)
    try:
        replicas.start()
        service = replicas.replicas[0].service
        backend = (f"{args.shards}-shard gateway" if args.shards
                   else "single-process")
        durable = f"wal at {args.wal}" if args.wal else "wal in memory"
        traced = (f", traced to {args.trace_dir}" if tracer is not None
                  else "")
        addresses = ", ".join(f"{h}:{p}" for h, p in replicas.addresses)
        print(f"serving {service.n_users} users x {service.n_items} items "
              f"over tcp on {addresses} ({args.replicas} replicas, "
              f"{backend} each, fused dispatch, "
              f"leader-replicated mutations, {durable}{traced})", flush=True)
        stop_event.wait()
        print("draining: in-flight requests finish, pools close",
              flush=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        replicas.stop()
        if tracer is not None:
            tracer.close()
    return 0


def _cmd_serve(args) -> int:
    """Serve queries on stdin (line protocol) or TCP (framed RPC).

    With ``--shards N`` the queries run on the sharded worker-pool gateway
    (:class:`~repro.serving.cluster.ShardedScorer`); ``--watch`` addition-
    ally hot-swaps new versions of the snapshot file as a concurrently
    running trainer overwrites it.  ``rate u i:v ...`` applies the
    incremental fold-in update to a previously folded-in user.  With
    ``--tcp HOST:PORT`` the same command set is served over the framed
    RPC protocol instead, with ``--replicas N`` independent gateway
    replicas (ports PORT..PORT+N-1) and cross-user query fusion.
    """
    if args.watch and not args.shards:
        print("error: --watch requires --shards N", file=sys.stderr)
        return 2
    if args.tcp:
        try:
            host, port = _parse_hostport(args.tcp)
            if args.replicas < 1:
                raise ValidationError(
                    f"--replicas must be >= 1, got {args.replicas}")
            if port and port + args.replicas - 1 > 65535:
                raise ValidationError(
                    f"--replicas {args.replicas} from port {port} would "
                    "pass port 65535")
        except ValidationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return _serve_tcp(args, host, port)
    service = _make_service(args)
    watcher = (SnapshotWatcher(service, args.snapshot).start()
               if args.watch else None)
    backend = (f"{args.shards}-shard gateway" if args.shards
               else "single-process")
    return _serve_repl(service, watcher, backend,
                       owns_service=bool(args.shards))


_DRILL_FLAG_HELP = {
    "seed": "fault schedule seed (same seed, same schedule, byte for byte)",
    "latency_out": "write observed latencies to this JSON",
    "report_out": "write the schedule + fault log + invariant report as JSON",
    "trace_out": "write the recorded spans to this JSONL file",
    "metrics_out": "write the fleet registry snapshot to this JSON",
}


def _cmd_drill(args) -> int:
    """Run one self-check from :mod:`repro.serving.drills`."""
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "log_level")}
    try:
        drills.DRILLS[args.command](**options)
    except drills.DrillFailure as failure:
        print(f"{args.command.upper()} FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Train, snapshot, serve and query BPMF posteriors.")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train and write a snapshot")
    _add_snapshot_arg(train)
    train.add_argument("--users", type=int, default=200)
    train.add_argument("--movies", type=int, default=150)
    train.add_argument("--num-latent", type=int, default=8)
    train.add_argument("--burn-in", type=int, default=5)
    train.add_argument("--n-samples", type=int, default=10)
    train.add_argument("--backend", choices=_BACKENDS, default="sequential")
    train.add_argument("--threads", type=int, default=2,
                       help="threads for --backend multicore")
    train.add_argument("--engine", choices=_ENGINES, default="batched",
                       help="update-engine: batched (default), shared "
                            "(process pool over shared memory), reference")
    train.add_argument("--workers", type=int, default=None,
                       help="process-pool size for --engine shared")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       help="save every k sweeps (default: final sweep only)")
    train.add_argument("--resume", default=None,
                       help="snapshot to continue from")
    train.set_defaults(func=_cmd_train)

    info = commands.add_parser("info", help="describe a snapshot")
    _add_snapshot_arg(info)
    info.set_defaults(func=_cmd_info)

    query = commands.add_parser("query", help="one-shot predictions / top-N")
    _add_snapshot_arg(query)
    query.add_argument("--user", type=int, default=None)
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--pairs", nargs="*", default=[],
                       help="user:item pairs, e.g. 0:3 7:12")
    query.set_defaults(func=_cmd_query)

    serve = commands.add_parser("serve",
                                help="answer a line protocol on stdin")
    _add_snapshot_arg(serve)
    serve.add_argument("--shards", type=int, default=0,
                       help="serve through an N-shard worker-pool gateway "
                            "(0 = single-process)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes for --shards (default: one "
                            "per shard)")
    serve.add_argument("--watch", action="store_true",
                       help="hot-swap new versions of --snapshot while "
                            "serving (requires --shards)")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="serve the framed RPC protocol over TCP "
                            "instead of the stdin line protocol")
    serve.add_argument("--replicas", type=int, default=1,
                       help="independent gateway replicas for --tcp "
                            "(ports PORT..PORT+N-1)")
    serve.add_argument("--wal", default=None, metavar="DIR",
                       help="directory for the write leader's durable "
                            "mutation log (--tcp; default: in-memory log "
                            "— replication without crash durability)")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="enable request tracing and stream finished "
                            "spans to JSONL files in DIR (--tcp; default: "
                            "tracing off)")
    _add_log_level(serve)
    serve.set_defaults(func=_cmd_serve)

    # The self-checks in repro.serving.drills: a fixed configuration,
    # whose keyword arguments (artifact paths, the chaos seed) are flags.
    for name, drill in drills.DRILLS.items():
        command = commands.add_parser(name, help=drill.__doc__.split("\n")[0])
        for option in inspect.signature(drill).parameters.values():
            command.add_argument(
                "--" + option.name.replace("_", "-"), default=option.default,
                type=int if option.name == "seed" else str,
                help=_DRILL_FLAG_HELP[option.name])
        _add_log_level(command)
        command.set_defaults(func=_cmd_drill)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "log_level", None):
        set_verbosity(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
