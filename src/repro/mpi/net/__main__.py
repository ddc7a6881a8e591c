"""Rank launcher and multi-process smoke for the socket MPI world.

Three entry modes:

``--rank R --world N --rendezvous HOST:PORT``
    Run ONE rank in this process: join the world and run the distributed
    BPMF sampler over a synthetic dataset (``TRAIN_DEFAULTS``).  This is
    the form a real deployment's process manager invokes once per rank,
    on as many hosts as the rendezvous point can reach.

``--spawn --world N``
    Spawn N rank processes of this same module on localhost, wait for
    them, and verify the socket chain is bit-identical to the same rank
    program run on a ``SimCommWorld`` in-process.

``--smoke --world N [--out report.json]``
    The CI dist-smoke: four spawned phases — clean, benign faults
    (seeded delays/slow-reads through the chaos layer's
    ``net.send``/``net.recv`` sites; must stay bit-identical), a lethal
    fault (an injected connection reset; every rank must *fail fast*
    instead of hanging), and resume (half the chain with rank 0
    checkpointing, then fresh processes resume from the file; must land
    on the uninterrupted chain bit for bit).  Writes a JSON report of
    phase outcomes, parity booleans, fault logs, transport counters and
    the clean phase's frames and bytes per sweep.

Exit codes: 0 success, 2 usage/validation, 3 transport failure
(``MpiTransportError`` — the expected outcome under lethal faults),
1 anything else.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mpi.net.world import (
    MpiNetError,
    MpiTransportError,
    SocketCommWorld,
    free_port,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.serving.chaos.plan import FaultEvent, FaultInjector, FaultPlan
from repro.utils.validation import ValidationError

#: Synthetic workload of the rank program — small enough for a CI smoke,
#: large enough that every rank pair exchanges factor blocks.  ``data_rank``,
#: ``density``, ``noise_std``, ``test_fraction`` and ``alpha`` are fixed;
#: the other entries are flag defaults.
TRAIN_DEFAULTS = dict(users=60, movies=45, data_rank=4, density=0.25,
                      noise_std=0.3, test_fraction=0.2, data_seed=321,
                      num_latent=4, burn_in=2, n_samples=3, alpha=4.0,
                      seed=7, hyper_mode="gather")


def _parse_rendezvous(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"rendezvous must be HOST:PORT, got {value!r}")
    return host, int(port)


# ---------------------------------------------------------------------------
# fault schedules for the smoke phases
# ---------------------------------------------------------------------------

def benign_fault_plan(seed: int) -> FaultPlan:
    """Delays and slow reads only — traffic is perturbed, bits are not."""
    rng = random.Random(int(seed))
    events = []
    for step in sorted(rng.sample(range(2, 150), 12)):
        site = rng.choice(("net.send", "net.recv"))
        action = "delay" if site == "net.send" \
            else rng.choice(("delay", "slow"))
        events.append(FaultEvent(site=site, step=step, action=action,
                                 arg=round(rng.uniform(0.001, 0.01), 6)))
    return FaultPlan(seed=int(seed), events=events)


def lethal_fault_plan(seed: int) -> FaultPlan:
    """One injected connection reset mid-run — the world must die fast.

    The step counts ``recv`` *syscalls*, not frames — TCP coalescing
    makes one recv return many small frames, so the step stays low
    enough to land inside even a short training run.
    """
    rng = random.Random(int(seed))
    return FaultPlan(seed=int(seed), events=[
        FaultEvent(site="net.recv", step=rng.randint(6, 20),
                   action="reset", arg=0.0)])


def _build_injector(mode: str, seed: int, rank: int,
                    fault_rank: int) -> Optional[FaultInjector]:
    if mode == "benign":
        # Every rank gets its own seeded schedule of harmless faults.
        return FaultInjector(benign_fault_plan(seed * 1000 + rank))
    if mode == "lethal":
        # Exactly one rank's links get the reset; the failure must
        # propagate to every peer as a fast MpiTransportError.
        if rank == fault_rank:
            return FaultInjector(lethal_fault_plan(seed))
        return None
    return None


# ---------------------------------------------------------------------------
# the rank program
# ---------------------------------------------------------------------------

def _train_dataset(args):
    from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset

    return make_low_rank_dataset(SyntheticConfig(
        n_users=args.users, n_movies=args.movies,
        rank=TRAIN_DEFAULTS["data_rank"], density=TRAIN_DEFAULTS["density"],
        noise_std=TRAIN_DEFAULTS["noise_std"],
        test_fraction=TRAIN_DEFAULTS["test_fraction"], seed=args.data_seed))


def _train_sampler(args, n_ranks: int):
    from repro.core.priors import BPMFConfig
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )
    from repro.core.checkpoint import CheckpointConfig

    config = BPMFConfig(num_latent=args.num_latent, burn_in=args.burn_in,
                        n_samples=args.n_samples,
                        alpha=TRAIN_DEFAULTS["alpha"])
    options = DistributedOptions(
        n_ranks=n_ranks, hyper_mode=args.hyper_mode,
        checkpoint=(CheckpointConfig(path=args.checkpoint)
                    if args.checkpoint else None))
    return DistributedGibbsSampler(config, options)


def _program_train(world: SocketCommWorld, args) -> Dict[str, object]:
    """One rank of the distributed sampler; rank 0 writes the chain."""
    from repro.core.checkpoint import coerce_snapshot

    data = _train_dataset(args)
    sampler = _train_sampler(args, world.n_ranks)
    result, info = sampler.run(data.split.train, data.split, seed=args.seed,
                               resume=args.resume, comm_world=world)
    sweeps = sampler.config.total_iterations - (
        coerce_snapshot(args.resume).iteration if args.resume else 0)
    summary: Dict[str, object] = {
        "n_messages": info.n_messages,
        "bytes_sent": info.bytes_sent,
        "frames_per_sweep": info.n_messages / max(sweeps, 1),
        "bytes_per_sweep": info.bytes_sent / max(sweeps, 1),
    }
    if world.rank == 0 and args.out:
        np.savez(args.out,
                 user_factors=result.state.user_factors,
                 movie_factors=result.state.movie_factors,
                 predictions=result.predictions,
                 rmse_burn_in=np.asarray(result.rmse_burn_in),
                 rmse_per_sample=np.asarray(result.rmse_per_sample),
                 rmse_running_mean=np.asarray(result.rmse_running_mean))
        summary["out"] = args.out
        summary["final_rmse"] = (result.rmse_running_mean[-1]
                                 if result.rmse_running_mean else None)
    return summary


def run_rank(args) -> int:
    """Join the world and run the rank program (one rank, this process)."""
    injector = _build_injector(args.fault_mode, args.fault_seed, args.rank,
                               args.fault_rank)
    tracer = None
    report: Dict[str, object] = {"rank": args.rank, "world": args.world,
                                 "fault_mode": args.fault_mode}
    started = time.monotonic()
    status, detail = 0, None
    try:
        world = SocketCommWorld.connect(
            args.rank, args.world, args.rendezvous,
            timeout=args.connect_timeout, injector=injector,
            op_timeout=args.op_timeout)
    except (MpiNetError, OSError, ValidationError) as error:
        report["error"] = f"{type(error).__name__}: {error}"
        report["ok"] = False
        _write_rank_report(args, report, started)
        print(f"[rank {args.rank}] connect failed: {error}", file=sys.stderr)
        return 3
    world.register_metrics(REGISTRY)
    try:
        if args.trace_dir:
            tracer = Tracer(sink_dir=args.trace_dir,
                            sink_name=f"mpi-rank{args.rank}.jsonl")
        if tracer is not None:
            with tracer.start("mpi.rank", attrs={"rank": args.rank}):
                report["result"] = _program_train(world, args)
        else:
            report["result"] = _program_train(world, args)
        report["ok"] = True
    except MpiTransportError as error:
        status, detail = 3, f"{type(error).__name__}: {error}"
    except (MpiNetError, ValidationError, OSError) as error:
        status, detail = 1, f"{type(error).__name__}: {error}"
    finally:
        report["transport"] = world.stats()
        if injector is not None:
            report["faults"] = {"triggered": injector.log,
                                "counts": injector.counts(),
                                "digest": injector.plan.digest()}
        if detail is not None:
            world.abort(detail)
        else:
            world.close()
    if detail is not None:
        report["ok"] = False
        report["error"] = detail
        print(f"[rank {args.rank}] {detail}", file=sys.stderr)
    _write_rank_report(args, report, started)
    return status


def _write_rank_report(args, report: Dict[str, object],
                       started: float) -> None:
    report["duration_s"] = round(time.monotonic() - started, 3)
    if args.metrics_out:
        report["metrics"] = REGISTRY.snapshot()
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2,
                                                default=str))
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(REGISTRY.snapshot(), indent=2, default=str))


# ---------------------------------------------------------------------------
# parent: spawn + verify
# ---------------------------------------------------------------------------

def _spawn_ranks(args, workdir: Path, fault_mode: str,
                 timeout: float) -> Dict[str, object]:
    """Launch one process per rank; wait; collect exits and reports."""
    workdir.mkdir(parents=True, exist_ok=True)
    port = free_port(args.host)
    processes: List[subprocess.Popen] = []
    for rank in range(args.world):
        command = [
            sys.executable, "-m", "repro.mpi.net",
            "--rank", str(rank), "--world", str(args.world),
            "--rendezvous", f"{args.host}:{port}",
            "--fault-mode", fault_mode,
            "--fault-seed", str(args.fault_seed),
            "--fault-rank", str(args.fault_rank),
            "--report", str(workdir / f"rank{rank}.json"),
            "--op-timeout", str(args.op_timeout),
            "--users", str(args.users), "--movies", str(args.movies),
            "--num-latent", str(args.num_latent),
            "--burn-in", str(args.burn_in),
            "--n-samples", str(args.n_samples),
            "--hyper-mode", args.hyper_mode,
            "--seed", str(args.seed),
            "--data-seed", str(args.data_seed),
        ]
        if args.resume:
            command += ["--resume", args.resume]
        if args.checkpoint:
            # Every rank gathers to rank 0 on the sweeps it saves.
            command += ["--checkpoint", args.checkpoint]
        if rank == 0:
            command += ["--out", str(workdir / "chain.npz")]
        if args.trace_dir:
            command += ["--trace-dir", args.trace_dir]
        processes.append(subprocess.Popen(command))
    deadline = time.monotonic() + timeout
    exit_codes: List[Optional[int]] = [None] * args.world
    hung = False
    for rank, process in enumerate(processes):
        remaining = max(deadline - time.monotonic(), 0.1)
        try:
            exit_codes[rank] = process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            hung = True
            process.kill()
            process.wait()
            exit_codes[rank] = -9
    reports = []
    for rank in range(args.world):
        path = workdir / f"rank{rank}.json"
        if path.exists():
            reports.append(json.loads(path.read_text()))
    faults_triggered = sum(len(report.get("faults", {}).get("triggered", []))
                           for report in reports)
    return {"exit_codes": exit_codes, "hung": hung, "reports": reports,
            "faults_triggered": faults_triggered,
            "chain": workdir / "chain.npz"}


def _spawn_resumed(args, workdir: Path, timeout: float) -> Dict[str, object]:
    """Half the chain with rank 0 checkpointing (every rank knows the
    policy), then fresh processes resume from the file and finish it."""
    snapshot = str(workdir / "half.npz")
    first_half = argparse.Namespace(**{
        **vars(args), "n_samples": max(args.n_samples // 2, 1),
        "checkpoint": snapshot})
    first = _spawn_ranks(first_half, workdir / "first-half", "off", timeout)
    if first["hung"] or any(first["exit_codes"]):
        return first
    # A resumed chain takes its generator from the snapshot, so launching
    # with the wrong seed proves the processes really resumed.
    rest = argparse.Namespace(**{**vars(args), "resume": snapshot,
                                 "seed": args.seed + 1})
    return _spawn_ranks(rest, workdir, "off", timeout)


def _reference_chain(args) -> Dict[str, np.ndarray]:
    """The same rank program on a SimCommWorld, uninterrupted."""
    data = _train_dataset(args)
    sampler = _train_sampler(args, args.world)
    result, _ = sampler.run(data.split.train, data.split, seed=args.seed)
    return {
        "user_factors": result.state.user_factors,
        "movie_factors": result.state.movie_factors,
        "predictions": result.predictions,
        "rmse_burn_in": np.asarray(result.rmse_burn_in),
        "rmse_per_sample": np.asarray(result.rmse_per_sample),
        "rmse_running_mean": np.asarray(result.rmse_running_mean),
    }


def _check_parity(chain_path: Path, reference: Dict[str, np.ndarray]
                  ) -> Tuple[bool, Dict[str, bool]]:
    """Bitwise comparison of the socket chain against the reference."""
    if not chain_path.exists():
        return False, {}
    with np.load(chain_path) as chain:
        fields = {key: bool(np.array_equal(chain[key], reference[key]))
                  for key in reference}
    return all(fields.values()), fields


def run_spawn(args) -> int:
    """``--spawn``: one multi-process run, parity-checked."""
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="repro-mpi-"))
    outcome = _spawn_ranks(args, workdir, args.fault_mode, args.timeout)
    ok = not outcome["hung"] and all(code == 0
                                     for code in outcome["exit_codes"])
    parity = None
    if ok:
        parity, fields = _check_parity(outcome["chain"],
                                       _reference_chain(args))
        print(f"bit-parity vs SimCommWorld: {parity} {fields}")
        ok = ok and parity
    print(f"exit codes: {outcome['exit_codes']}  "
          f"faults: {outcome['faults_triggered']}")
    return 0 if ok else 1


def run_smoke(args) -> int:
    """``--smoke``: clean, benign-fault, lethal-fault and resume phases."""
    workroot = Path(args.workdir or tempfile.mkdtemp(prefix="repro-mpi-"))
    report: Dict[str, object] = {
        "world": args.world,
        "train": {key: getattr(args, key) for key in
                  ("users", "movies", "num_latent", "burn_in", "n_samples",
                   "hyper_mode", "seed", "data_seed")},
        "fault_plans": {
            "benign_digest": benign_fault_plan(
                args.fault_seed * 1000).digest(),
            "lethal_digest": lethal_fault_plan(args.fault_seed).digest(),
        },
        "phases": [],
    }
    reference = _reference_chain(args)
    all_ok = True
    for phase, fault_mode, expect_clean in (
            ("baseline", "off", True),
            ("benign-faults", "benign", True),
            ("lethal-fault", "lethal", False),
            ("resume", "off", True)):
        started = time.monotonic()
        if phase == "resume":
            outcome = _spawn_resumed(args, workroot / phase, args.timeout)
        else:
            outcome = _spawn_ranks(args, workroot / phase, fault_mode,
                                   args.timeout)
        duration = round(time.monotonic() - started, 3)
        entry: Dict[str, object] = {
            "phase": phase, "fault_mode": fault_mode,
            "exit_codes": outcome["exit_codes"], "hung": outcome["hung"],
            "faults_triggered": outcome["faults_triggered"],
            "duration_s": duration,
        }
        if expect_clean:
            phase_ok = not outcome["hung"] and all(
                code == 0 for code in outcome["exit_codes"])
            if phase_ok:
                parity, fields = _check_parity(outcome["chain"], reference)
                entry["bit_identical"] = parity
                entry["parity_fields"] = fields
                phase_ok = parity
            if phase == "baseline":
                # The wire shape of one clean sweep, every rank's sends.
                sent = [rank_report.get("result", {})
                        for rank_report in outcome["reports"]]
                entry["per_sweep"] = {
                    key: sum(result.get(key, 0) for result in sent)
                    for key in ("frames_per_sweep", "bytes_per_sweep")}
            if fault_mode == "benign":
                # The schedule must actually have perturbed the wire.
                entry["faults_fired"] = outcome["faults_triggered"] > 0
        else:
            # Lethal: the world must die, and it must die *fast* — every
            # process exits (no hang) and at least one reports the
            # transport failure (exit 3).
            phase_ok = (not outcome["hung"]
                        and any(code != 0
                                for code in outcome["exit_codes"])
                        and any(code == 3
                                for code in outcome["exit_codes"]))
            entry["failed_fast"] = phase_ok
        entry["ok"] = phase_ok
        all_ok = all_ok and phase_ok
        report["phases"].append(entry)
        print(f"[{phase}] ok={phase_ok} exits={outcome['exit_codes']} "
              f"faults={outcome['faults_triggered']} {duration}s")
        if "per_sweep" in entry:
            print(f"[{phase}] per sweep: {entry['per_sweep']}")
    report["ok"] = all_ok
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, default=str))
        print(f"report written to {args.out}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mpi.net",
        description="socket-backed MPI world: rank runner, spawner, smoke")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--rank", type=int, default=None,
                      help="run this one rank in this process")
    mode.add_argument("--spawn", action="store_true",
                      help="spawn --world rank processes locally and verify")
    mode.add_argument("--smoke", action="store_true",
                      help="CI smoke: clean + benign + lethal fault + "
                           "resume phases")
    parser.add_argument("--world", type=int, default=4,
                        help="total number of ranks (default 4)")
    parser.add_argument("--rendezvous", type=_parse_rendezvous,
                        default=None, metavar="HOST:PORT",
                        help="rendezvous address (rank 0 binds it)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind/spawn host (default 127.0.0.1)")
    parser.add_argument("--fault-mode", choices=("off", "benign", "lethal"),
                        default="off")
    parser.add_argument("--fault-seed", type=int, default=1)
    parser.add_argument("--fault-rank", type=int, default=1,
                        help="rank whose links carry the lethal fault")
    parser.add_argument("--out", default=None,
                        help="rank mode: chain .npz (rank 0); smoke: report "
                             "JSON path")
    parser.add_argument("--report", default=None,
                        help="per-rank JSON report path")
    parser.add_argument("--metrics-out", default=None,
                        help="write the obs metrics snapshot JSON here")
    parser.add_argument("--trace-dir", default=None,
                        help="emit per-rank span JSONL into this directory")
    parser.add_argument("--workdir", default=None,
                        help="spawn/smoke scratch directory (default: temp)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="spawn/smoke per-phase wall-clock limit")
    parser.add_argument("--connect-timeout", type=float, default=30.0)
    parser.add_argument("--op-timeout", type=float, default=120.0)
    train = parser.add_argument_group("rank program")
    train.add_argument("--users", type=int,
                       default=TRAIN_DEFAULTS["users"])
    train.add_argument("--movies", type=int,
                       default=TRAIN_DEFAULTS["movies"])
    train.add_argument("--data-seed", type=int,
                       default=TRAIN_DEFAULTS["data_seed"])
    train.add_argument("--num-latent", type=int,
                       default=TRAIN_DEFAULTS["num_latent"])
    train.add_argument("--burn-in", type=int,
                       default=TRAIN_DEFAULTS["burn_in"])
    train.add_argument("--n-samples", type=int,
                       default=TRAIN_DEFAULTS["n_samples"])
    train.add_argument("--seed", type=int, default=TRAIN_DEFAULTS["seed"])
    train.add_argument("--hyper-mode", choices=("stats", "gather"),
                       default=TRAIN_DEFAULTS["hyper_mode"])
    train.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="rank 0 saves the final posterior snapshot "
                            "here; give it to every rank")
    train.add_argument("--resume", default=None, metavar="PATH",
                       help="every rank restores this snapshot and the "
                            "chain continues from its sweep")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rank is not None:
        if args.rendezvous is None:
            print("--rank requires --rendezvous HOST:PORT", file=sys.stderr)
            return 2
        return run_rank(args)
    if args.spawn:
        return run_spawn(args)
    if args.smoke:
        return run_smoke(args)
    print("choose a mode: --rank R, --spawn, or --smoke", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
