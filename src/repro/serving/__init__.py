"""Posterior snapshot store + online serving subsystem.

The training side of this repository ends with a fitted posterior in
memory; this package is what happens *after* training in a production
recommender:

* :mod:`repro.serving.checkpoint` — versioned, integrity-checked ``.npz``
  posterior snapshots with exact-resume support (the samplers' checkpoint
  hook lives here too);
* :mod:`repro.serving.service` — :class:`PredictionService`: predictions,
  batched lookups and top-N ranked retrieval over one or more
  snapshots, with an LRU score cache;
* :mod:`repro.serving.foldin` — conditional-Gaussian fold-in for
  cold-start users, executed through the batched block-Cholesky engine,
  plus incremental rank-k posterior updates (:class:`FoldInState`);
* :mod:`repro.serving.cluster` — the sharded, hot-reloading serving
  cluster: :class:`ShardedScorer` (parallel top-N over shared-memory
  item shards, bit-identical to the single process) and
  :class:`SnapshotWatcher` (serve while training writes);
* :mod:`repro.serving.net` — the network frontend: framed RPC protocol
  over asyncio TCP (:class:`NetServer`), cross-user query fusion
  (:class:`QueryFuser`), replica failover (:class:`ReplicaSet`) and the
  sync/async client library;
* ``python -m repro.serving`` — train → snapshot → serve → query from the
  command line.
"""

from repro.serving.checkpoint import (
    SNAPSHOT_FORMAT,
    CheckpointConfig,
    Snapshot,
    coerce_snapshot,
    load_snapshot,
    restore_generator,
    save_snapshot,
    snapshot_from_result,
)
from repro.serving.foldin import (
    FoldInState,
    fold_in_posterior,
    fold_in_user,
    fold_in_users,
)
from repro.serving.service import PredictionService
from repro.serving.cluster import ClusterError, ShardedScorer, SnapshotWatcher
from repro.serving.net import (
    AsyncServingClient,
    NetError,
    NetServer,
    QueryFuser,
    ReplicaSet,
    ServingClient,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "CheckpointConfig",
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "coerce_snapshot",
    "restore_generator",
    "snapshot_from_result",
    "fold_in_users",
    "fold_in_user",
    "fold_in_posterior",
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
