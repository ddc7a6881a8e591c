"""Sharded, hot-reloading serving cluster.

Scales the single-process :class:`~repro.serving.service.PredictionService`
out across worker processes:

* :class:`~repro.serving.cluster.scorer.ShardedScorer` — a
  ``PredictionService`` whose ranked retrieval fans out: the item factor
  block is partitioned into contiguous shards in shared memory, each
  worker ranks its slice for the user rows the query carries, and the
  gateway performs an exact k-way merge, so the served top-N is
  bit-identical to the single-process service.  Predictions, fold-in and
  incremental updates are the inherited in-process calls;
* :class:`~repro.serving.cluster.watcher.SnapshotWatcher` — polls the
  checkpoint a training run keeps overwriting and hot-swaps validated
  snapshots into fresh shard segments without dropping requests.
"""

from repro.serving.cluster.scorer import ClusterError, ShardedScorer
from repro.serving.cluster.watcher import SnapshotWatcher

__all__ = ["ShardedScorer", "SnapshotWatcher", "ClusterError"]
