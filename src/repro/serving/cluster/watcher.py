"""Hot snapshot reload: watch a training run's checkpoints and swap them in.

A training process with ``CheckpointConfig`` keeps atomically overwriting
one snapshot file (or dropping versioned files into a directory);
:func:`~repro.core.checkpoint.save_snapshot` fsyncs each archive before
renaming it into place, so a file the watcher can see is already durable.
:class:`SnapshotWatcher` polls that location, and whenever the newest
candidate's ``(path, mtime, size)`` signature changes it loads the file —
which re-verifies the SHA-256 integrity checksum — and hands the snapshot
to :meth:`ShardedScorer.load_version`: new item shards are staged in
fresh segments, folded-in users are re-folded against the new item
factors, and the gateway's factors are swapped under its lock, so a
fold-in is never lost across a swap.
A snapshot that fails validation (truncated copy, checksum mismatch,
shape drift) is *rejected and recorded*; the cluster keeps serving the
previous version, so only fully-validated snapshots ever go live.

``check_once()`` is the synchronous unit of work — tests and the CLI
smoke drive it directly for determinism; ``start()`` runs it on a daemon
thread every ``interval`` seconds for real serve-while-training use.
"""

from __future__ import annotations

import stat as stat_module
import threading
from pathlib import Path
from typing import Optional

from repro.core.checkpoint import PathLike, load_snapshot
from repro.serving.cluster.scorer import ShardedScorer
from repro.utils.validation import check_positive

__all__ = ["SnapshotWatcher"]

#: How many polls may try one failing candidate before it is given up on.
MAX_ATTEMPTS = 3


class SnapshotWatcher:
    """Polls a snapshot path (file or directory) and hot-swaps new versions.

    Parameters
    ----------
    scorer:
        The gateway to swap new snapshots into.
    path:
        A snapshot file a trainer keeps overwriting, or a directory of
        versioned ``*.npz`` snapshots (the newest by mtime-then-name is
        the candidate).
    interval:
        Poll period in seconds for the background thread.

    The candidate present at construction is recorded *without* being
    loaded: the scorer was just built from that very snapshot, and
    re-loading it would burn a swap for nothing.
    """

    def __init__(self, scorer: ShardedScorer, path: PathLike,
                 interval: float = 0.5):
        check_positive("interval", interval)
        self.scorer = scorer
        self.path = Path(path)
        self.interval = float(interval)
        self.n_reloads = 0
        self.n_rejected = 0
        self.last_error: Optional[str] = None
        self._attempts = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._last_signature = self._signature(self._candidate())

    # -- candidate discovery ----------------------------------------------

    def _candidate(self) -> Optional[Path]:
        if self.path.is_dir():
            snapshots = []
            for entry in self.path.glob("*.npz"):
                if entry.name.endswith(".tmp.npz"):
                    continue  # a writer's in-flight atomic-save temp file
                try:
                    status = entry.stat()
                except OSError:
                    continue  # renamed/removed between glob and stat
                if stat_module.S_ISREG(status.st_mode):
                    snapshots.append((status.st_mtime_ns, entry.name, entry))
            if not snapshots:
                return None
            return max(snapshots)[2]
        return self.path if self.path.is_file() else None

    @staticmethod
    def _signature(candidate: Optional[Path]):
        if candidate is None:
            return None
        try:
            stat = candidate.stat()
        except OSError:  # pragma: no cover - raced with a writer
            return None
        return (str(candidate), stat.st_mtime_ns, stat.st_size)

    # -- the poll body -----------------------------------------------------

    def check_once(self) -> bool:
        """Load-and-swap if the candidate changed; True on a new version.

        A failing candidate is retried for up to :data:`MAX_ATTEMPTS`
        polls (then ignored until its signature changes): the file itself
        never transitions from invalid to valid — the trainer writes
        atomically — but a swap can also fail for *gateway-side* reasons
        (transient segment-memory exhaustion), and a training run's final
        checkpoint must not be skipped forever because of one, while a
        genuinely corrupt file must not be re-checksummed on every poll.
        """
        candidate = self._candidate()
        signature = self._signature(candidate)
        if signature is None:
            return False
        if signature == self._last_signature:
            if self._attempts == 0 or self._attempts >= MAX_ATTEMPTS:
                return False  # already served, or given up on
        else:
            self._last_signature = signature
            self._attempts = 0
        self._attempts += 1
        try:
            snapshot = load_snapshot(candidate)  # verifies the checksum
            self.scorer.load_version(snapshot)
        except Exception as error:
            # Anything a bad file can throw (checksum ValidationError,
            # BadZipFile, truncation OSError, shape mismatch) must reject
            # the candidate, never kill the watcher or the serving path.
            self.n_rejected += 1
            self.last_error = f"{candidate}: {error}"
            return False
        self._attempts = 0
        self.n_reloads += 1
        self.last_error = None
        return True

    # -- background thread -------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SnapshotWatcher":
        """Run :meth:`check_once` every ``interval`` seconds on a thread."""
        if self.running:
            return self
        self._stop.clear()

        def poll() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.check_once()
                except Exception as error:  # pragma: no cover - last resort
                    self.n_rejected += 1
                    self.last_error = str(error)

        self._thread = threading.Thread(target=poll, daemon=True,
                                        name="repro-snapshot-watcher")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SnapshotWatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
