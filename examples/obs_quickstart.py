#!/usr/bin/env python3
"""Observability quickstart: trace a write across the fleet, read the
unified metrics registry.

Walks the observability layer (`repro.obs`) end to end:

1. train BPMF and snapshot the posterior;
2. start a traced 3-replica durable :class:`ReplicaSet` — one shared
   :class:`Tracer` ring buffer, one fleet-wide
   :class:`MetricsRegistry` with every component's counters registered
   as providers under dotted names (``serving.server.*``, ``wal.*``,
   ...) — the one dotted view, served by the ``metrics`` frame;
3. send one traced write and print its span *tree*: client attempt →
   server admission (queue-wait split out) → WAL commit → append/fsync
   → ship → each follower's apply, all under a single ``trace_id``;
4. storm the fleet a little so request fusion kicks in, and show a
   ``fusion.window`` parent with its per-rider ``fusion.waiter``
   children;
5. read the same telemetry over the wire: the ``metrics`` frame
   renders the fleet-wide dotted snapshot and the ``trace`` frame
   exports (and can drain) the server-side span buffer.

Run with:  PYTHONPATH=src python examples/obs_quickstart.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import (
    BPMFConfig,
    CheckpointConfig,
    GibbsSampler,
    PredictionService,
    SamplerOptions,
    make_low_rank_dataset,
)
from repro.obs import Tracer
from repro.serving.net import ReplicaSet, ServingClient


def print_tree(spans, root, depth=0):
    """Print a span subtree, children indented under their parent."""
    print(f"  {'  ' * depth}{root['name']:<20} "
          f"{root['dur_ms']:8.3f} ms  {root['attrs']}")
    children = [span for span in spans
                if span["parent_id"] == root["span_id"]]
    for child in sorted(children, key=lambda span: span["ts"]):
        print_tree(spans, child, depth + 1)


def main() -> None:
    data = make_low_rank_dataset(n_users=300, n_movies=200, rank=6,
                                 density=0.15, noise_std=0.3, factor_std=1.5,
                                 seed=42)
    train, split = data.split.train, data.split

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        config = BPMFConfig(num_latent=6, alpha=2.0, burn_in=4, n_samples=6)
        GibbsSampler(config, SamplerOptions(
            checkpoint=CheckpointConfig(path=path, every=2))).run(
            train, split, seed=0)

        # -- 1. one tracer, one registry, the whole fleet ------------------
        tracer = Tracer(capacity=8192)
        with ReplicaSet(lambda i: PredictionService(path), n_replicas=3,
                        wal_dir=str(Path(tmp) / "mutation-log"),
                        wal_sync_every=1, ship_cooldown=0.05,
                        fuse_window_ms=25.0, tracer=tracer) as replicas:
            with ServingClient(replicas.addresses, tracer=tracer) as client:

                # -- 2. one traced write, end to end -----------------------
                client.fold_in(np.array([3, 8, 21]),
                               np.array([5.0, 4.0, 3.0]))
                # Wait for both followers to apply the shipped record.
                deadline_spans = []
                while sum(1 for span in deadline_spans
                          if span["name"] == "wal.follower_apply") < 2:
                    deadline_spans = tracer.spans()
                spans = tracer.spans()
                root = next(span for span in spans
                            if span["name"] == "client.foldin")
                print("the write's span tree (one trace_id "
                      f"{root['trace_id'][:12]}...):")
                print_tree(spans, root)

                # -- 3. fused reads: one window, many riders ---------------
                barrier = threading.Barrier(4)

                def reader(user):
                    with ServingClient(replicas.addresses[:1],
                                       tracer=tracer) as reader_client:
                        barrier.wait()
                        reader_client.top_n(user, n=5)

                threads = [threading.Thread(target=reader, args=(user,))
                           for user in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                spans = tracer.spans()
                windows = [span for span in spans
                           if span["name"] == "fusion.window"]
                best = max(windows, key=lambda span: span["attrs"]["users"])
                print(f"\nbusiest fused window ({best['attrs']['users']} "
                      "riders):")
                print_tree(spans, best)

                # -- 4. the same telemetry over the wire -------------------
                snapshot = client.metrics()
                print("\nfleet metrics (a few of "
                      f"{len(snapshot)} series):")
                for key in sorted(snapshot):
                    if key.startswith(("serving.server.n_requests",
                                       "wal.applied_seqno")):
                        print(f"  {key} = {snapshot[key]}")
                queue = snapshot["serving.server.queue_wait_ms{replica=0}"]
                print(f"  queue wait on replica 0: p50={queue['p50']:.3f} "
                      f"p99={queue['p99']:.3f} over {queue['count']} reqs")

                exported = client.spans(limit=5, drain=True)
                print(f"\ntrace frame exported {len(exported['spans'])} "
                      f"spans (server buffer had "
                      f"{exported['tracer']['finished']} finished)")


if __name__ == "__main__":
    main()
