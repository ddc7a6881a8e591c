"""Online serving subsystem over posterior snapshots.

The training side of this repository ends with a fitted posterior in
memory; this package is what happens *after* training in a production
recommender:

* the posterior snapshots it serves — versioned, integrity-checked
  ``.npz`` archives — are written by the samplers' checkpoint hook in
  :mod:`repro.core.checkpoint` and re-exported here;
* :mod:`repro.serving.service` — :class:`PredictionService`: predictions,
  batched lookups and top-N ranked retrieval over one snapshot, with
  an LRU score cache;
* :mod:`repro.serving.foldin` — conditional-Gaussian fold-in for
  cold-start users and their incremental updates, one rating at a time
  in history order (:class:`FoldInState`);
* :mod:`repro.serving.cluster` — the sharded, hot-reloading serving
  cluster: :class:`ShardedScorer` (parallel top-N over shared-memory
  item shards, bit-identical to the single process) and
  :class:`SnapshotWatcher` (serve while training writes);
* :mod:`repro.serving.net` — the network frontend: framed RPC protocol
  over asyncio TCP (:class:`NetServer`), cross-user query fusion
  (:class:`QueryFuser`), replica failover (:class:`ReplicaSet`) and the
  client (:class:`AsyncServingClient`, with the blocking
  :class:`ServingClient` facade);
* ``python -m repro.serving`` — train → snapshot → serve → query from the
  command line.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SNAPSHOT_FORMAT",
    "CheckpointConfig",
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "coerce_snapshot",
    "restore_generator",
    "snapshot_from_result",
    "FoldInState",
    "PredictionService",
    "ShardedScorer",
    "SnapshotWatcher",
    "ClusterError",
    "NetServer",
    "QueryFuser",
    "ReplicaSet",
    "ServingClient",
    "AsyncServingClient",
    "NetError",
]

# Lazy (PEP 562): an in-process PredictionService loads neither asyncio
# nor the network stack.  The snapshot names are re-exported from
# ``repro.core.checkpoint``, where the samplers' checkpoints live.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.core.checkpoint": ("SNAPSHOT_FORMAT", "CheckpointConfig",
                              "Snapshot", "save_snapshot", "load_snapshot",
                              "coerce_snapshot", "restore_generator",
                              "snapshot_from_result"),
    "repro.serving.foldin": ("FoldInState",),
    "repro.serving.service": ("PredictionService",),
    "repro.serving.cluster": ("ShardedScorer", "SnapshotWatcher",
                              "ClusterError"),
    "repro.serving.net": ("NetServer", "QueryFuser", "ReplicaSet",
                          "ServingClient", "AsyncServingClient", "NetError"),
})
