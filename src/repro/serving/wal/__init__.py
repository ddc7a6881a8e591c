"""Durable replicated mutation log for the serving fleet.

Three layers, bottom up:

* :mod:`.log` — :class:`WriteAheadLog`: append-only CRC-checked segment
  files with monotonic seqnos, fsync policy, rotation, compaction and
  torn-tail recovery.
* :mod:`.replay` — :class:`MutationReplayer`: deterministic, exactly-
  once application of logged ``rate``/``foldin`` records into a
  gateway via an applied-seqno high-water mark.
* :mod:`.shipper` — :class:`LeaderCoordinator` /
  :class:`FollowerCoordinator`: one write leader appends durably and
  fans records out over the framed RPC; followers apply, forward and
  catch up by seqno range.
"""

from repro.serving.wal.log import (
    WalCorruptionError,
    WalError,
    WalRecord,
    WriteAheadLog,
)
from repro.serving.wal.replay import (
    MutationReplayer,
    WalDivergenceError,
    WalGapError,
    apply_record,
    mutation_record_payload,
    validate_mutation,
)
from repro.serving.wal.shipper import (
    CATCHUP_BATCH,
    FollowerCoordinator,
    LeaderCoordinator,
    WalUnavailableError,
)

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "WalError",
    "WalCorruptionError",
    "WalGapError",
    "WalDivergenceError",
    "WalUnavailableError",
    "MutationReplayer",
    "apply_record",
    "mutation_record_payload",
    "validate_mutation",
    "LeaderCoordinator",
    "FollowerCoordinator",
    "CATCHUP_BATCH",
]
