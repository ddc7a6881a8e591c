"""What the benchmark measures: workloads, op counts and metric names.

``BENCHMARK.json`` at the repository root repeats the workload and metric
names (the driver reads that file, not this one); ``tests/test_harness.py``
keeps the two in step.  The regression bounds live only in
``BENCHMARK.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: ``run_seconds`` of BENCHMARK.json: the timed seconds of one invocation on
#: one workload (all rounds together) that the op counts below were sized for.
RUN_SECONDS = 20

#: Fresh worker processes per workload whose median is the reported value.
ROUNDS = 5

#: Untraced rounds run next to the traced one in ``--trace 1`` / ``trace``
#: mode; they supply the untraced op time the overhead ratios divide by.
TRACE_UNTRACED_ROUNDS = 2

#: name -> one-line reason the workload exists (also in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "train_movielens": (
        "dense MovieLens-like data, K=32: ~300 degree buckets per sweep, "
        "Gram build dominates, so kernel/Gram/gather work shows here"),
    "train_chembl": (
        "sparse ChEMBL-like data, K=16: few huge stacks, time goes to the "
        "K^3 factor/solve and scatter, so a Gram gain predicts no change"),
    "dist_socket_2rank": (
        "2-rank chain over real localhost TCP: exchange, framing and "
        "collectives dominate, core is the minority; only mpi/distributed "
        "gains show at full strength"),
    "serve_mixed": (
        "80% Zipf top_n reads + 20% durable writes through a 2-replica WAL "
        "fleet: the only workload touching serving; bypasses the sampler"),
}

#: Timed ops per round at ``RUN_SECONDS`` (warm-up ops come on top).
#: ``serve_mixed`` counts ops per client; it runs ``SERVE_CLIENTS`` clients.
TIMED_OPS: Dict[str, int] = {
    "train_movielens": 30,
    "train_chembl": 30,
    "dist_socket_2rank": 10,
    "serve_mixed": 1000,
}

#: Smallest op count ``--seconds`` may scale a round down to (smoke runs).
MIN_OPS: Dict[str, int] = {
    "train_movielens": 3,
    "train_chembl": 3,
    "dist_socket_2rank": 2,
    "serve_mixed": 50,
}

SERVE_CLIENTS = 4

#: (name, unit, better) — identical for every workload.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("throughput", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better).  A workload that does not exercise a layer reports
#: 0 for it — the "predicted no change" pairs of the README.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("datasets.generate_s", "s", "lower"),
    ("sparse.split_s", "s", "lower"),
    ("sparse.plan_build_ms", "ms", "lower"),
    ("sparse.n_buckets", "count", "lower"),
    ("core.hyper_ms", "ms", "lower"),
    ("core.noise_ms", "ms", "lower"),
    ("core.update_movies_ms", "ms", "lower"),
    ("core.update_users_ms", "ms", "lower"),
    ("core.eval_ms", "ms", "lower"),
    ("core.items_updated", "count", "higher"),
    ("core.gram_flops", "flop", "lower"),
    ("core.factor_flops", "flop", "lower"),
    ("distributed.partition_ms", "ms", "lower"),
    ("distributed.comm_plan_ms", "ms", "lower"),
    ("distributed.compute_ms", "ms", "lower"),
    ("distributed.imbalance", "ratio", "lower"),
    ("distributed.items_exchanged", "count", "lower"),
    ("distributed.vs_sequential", "ratio", "higher"),
    ("mpi.messages", "count", "lower"),
    ("mpi.bytes", "B", "lower"),
    ("mpi.send_ms", "ms", "lower"),
    ("mpi.recv_wait_ms", "ms", "lower"),
    ("mpi.collective_ms", "ms", "lower"),
    ("mpi.world_setup_ms", "ms", "lower"),
    ("mpi.socket_vs_sim", "ratio", "lower"),
    ("serving.net.read_p50_ms", "ms", "lower"),
    ("serving.net.write_p50_ms", "ms", "lower"),
    ("serving.net.codec_us", "us", "lower"),
    ("serving.net.fused_batch_mean", "ratio", "higher"),
    ("serving.net.shed", "count", "lower"),
    ("serving.net.overhead_ms", "ms", "lower"),
    ("serving.service.top_n_ms", "ms", "lower"),
    ("serving.service.add_ratings_ms", "ms", "lower"),
    ("serving.service.cache_hit_ratio", "ratio", "higher"),
    ("serving.wal.append_ms", "ms", "lower"),
    ("serving.wal.fsyncs", "count", "lower"),
    ("serving.wal.bytes_per_write", "B", "lower"),
    ("serving.wal.follower_lag_max", "count", "lower"),
    ("tail.op_p95_ms", "ms", "lower"),
    ("tail.samples", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.layers_over_op", "ratio", "higher"),
)


def timed_ops(workload: str, seconds: float) -> int:
    """Timed ops per round for a ``--seconds`` budget (fixed counts, never
    fixed durations: the same ``seconds`` always yields the same count)."""
    scaled = round(TIMED_OPS[workload] * float(seconds) / RUN_SECONDS)
    return max(MIN_OPS[workload], int(scaled))
