"""Run rounds in fresh worker processes and reduce them to medians.

Protocol: one fresh, pinned worker process per (workload, round), strictly
one at a time, rounds interleaved round-robin across workloads so a noisy
neighbour hits every workload alike.  The reported value of an end-to-end
metric is the median over the rounds; the round spread ``(max - min) /
median`` is kept next to it.  End-to-end metrics always come from untraced
rounds; per-layer metrics come from one extra traced round per workload.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Optional

from perfbench.spec import END_TO_END, PER_LAYER, ROOT, timed_ops

#: A round that takes longer than this is a hang, not a measurement.
WORKER_TIMEOUT_S = 90

WORK_DIR = ROOT / ".perfbench-work"


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or printed no report."""


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "PYTHONHASHSEED": "0"})
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([inherited] if inherited else []))
    return env


def run_worker(workload: str, seed: int, n_ops: int,
               traced: bool) -> Dict[str, object]:
    """One round: start the worker, wait for it, parse its report."""
    WORK_DIR.mkdir(exist_ok=True)
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", workload, "--seed", str(seed),
               "--ops", str(n_ops), "--traced", str(int(traced)),
               "--workdir", str(WORK_DIR)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=_worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(f"{workload}: worker hung "
                           f"(> {WORKER_TIMEOUT_S} s)") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def median_and_spread(values: Iterable[float]) -> Dict[str, object]:
    """Median over rounds, the round spread and the raw values."""
    values = [float(value) for value in values]
    median = statistics.median(values)
    spread = (max(values) - min(values)) / median if median else 0.0
    return {"value": median, "spread": spread, "rounds": values}


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _end_to_end_of_round(report: Dict[str, object]) -> Dict[str, float]:
    return {
        "throughput": report["work"] / report["wall_s"],
        "op_p50_ms": statistics.median(report["op_ms"]),
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def reduce_rounds(rounds: List[Dict[str, object]],
                  traced: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Fold one workload's round reports into its result entry."""
    per_round = [_end_to_end_of_round(report) for report in rounds]
    units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: dict(median_and_spread(r[name] for r in per_round),
                          unit=units[name]) for name in units}

    every = rounds + ([traced] if traced is not None else [])
    checks = [dict(check, round=index)
              for index, report in enumerate(every)
              for check in report["checks"]]
    # Same seed, same inputs: every round (the traced one too) must land
    # on the same bits and the same exact counts.
    for key in rounds[0]["fingerprint"]:
        seen = {json.dumps(report["fingerprint"].get(key)) for report in every}
        checks.append({"name": f"{key}_identical_across_rounds",
                       "ok": len(seen) == 1, "detail": ", ".join(sorted(seen)),
                       "round": None})
    entry: Dict[str, object] = {
        "metrics": metrics,
        "ops_attempted": sum(report["ops_attempted"] for report in rounds),
        "ops_failed": sum(report["ops_failed"] for report in rounds),
        "checks": checks,
        "correct": all(check["ok"] for check in checks),
        "rounds_env": [report["env"] for report in every],
    }
    if traced is not None:
        entry["layers"] = _layers(rounds, traced, metrics)
    return entry


def _layers(rounds: List[Dict[str, object]], traced: Dict[str, object],
            metrics: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Every per-layer metric; 0 for layers the workload never enters."""
    measured = dict(traced["layers"])
    pooled = [value for report in rounds for value in report["op_ms"]]
    untraced_p50 = metrics["op_p50_ms"]["value"]
    measured["tail.op_p95_ms"] = _percentile(pooled, 0.95)
    measured["tail.samples"] = float(len(pooled))
    measured["trace.overhead_ratio"] = (
        statistics.median(traced["op_ms"]) / untraced_p50)
    if "sim_chain_ms" in measured:
        measured["mpi.socket_vs_sim"] = (
            untraced_p50 / measured.pop("sim_chain_ms"))
        measured["distributed.vs_sequential"] = (
            metrics["throughput"]["value"]
            / measured.pop("sequential_items_per_s"))
    return {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER}


def measure(workloads: List[str], seed: int, seconds: float, rounds: int,
            traced: bool) -> Dict[str, object]:
    """Run ``rounds`` untraced rounds (plus a traced one) per workload."""
    reports: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    traced_reports: Dict[str, Dict[str, object]] = {}
    try:
        for _ in range(rounds):
            for workload in workloads:
                reports[workload].append(run_worker(
                    workload, seed, timed_ops(workload, seconds), False))
        if traced:
            for workload in workloads:
                traced_reports[workload] = run_worker(
                    workload, seed, timed_ops(workload, seconds), True)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result = {
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "environment": environment(),
        "workloads": {
            workload: reduce_rounds(reports[workload],
                                    traced_reports.get(workload))
            for workload in workloads},
    }
    result["spans"] = {workload: report.pop("spans", [])
                       for workload, report in traced_reports.items()}
    return result


def environment() -> Dict[str, object]:
    """Where the numbers were taken (worker-side facts ride in each
    workload's ``rounds_env``)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"git_sha": sha or "unknown",
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0))}


def warnings_for(result: Dict[str, object]) -> List[str]:
    """Conditions that make a run suspect without failing it."""
    notes = []
    nproc = result["environment"]["nproc"] or 1
    for workload, entry in result["workloads"].items():
        for index, env in enumerate(entry["rounds_env"]):
            load = max(env["load_start"][0], env["load_end"][0])
            if load > nproc:
                notes.append(f"{workload} round {index}: 1-min load average "
                             f"{load:.2f} exceeds nproc={nproc}")
        for name, metric in entry["metrics"].items():
            if metric["spread"] > 0.25:
                notes.append(f"{workload} {name}: round spread "
                             f"{metric['spread']:.2f} exceeds 0.25")
        layers = entry.get("layers")
        if layers and workload.startswith("train_"):
            share = layers["trace.layers_over_op"]["value"]
            if abs(share - 1.0) > 0.10:
                notes.append(f"{workload}: traced layers sum to {share:.2f} "
                             f"of the traced op")
    return notes
