"""Versioned posterior snapshots: the persistence layer of the samplers
and the serving stack.

A *snapshot* is everything needed to (a) answer prediction queries without
the training process — the last Gibbs sample, the running posterior-mean
factor accumulators and the rating offset — and (b) resume the chain
*exactly* where it stopped: the generator's bit-stream state, the
posterior-predictive accumulators and the RMSE traces.  A chain resumed
from a snapshot is bit-identical to one that never stopped (see
``tests/test_serving_checkpoint.py``).

Snapshots are single ``.npz`` archives with a format tag and a SHA-256
integrity checksum over every stored payload; a corrupted or truncated
snapshot fails to load instead of silently serving garbage.

:class:`CheckpointConfig` is the save-every-k-sweeps policy consumed by
``SamplerOptions.checkpoint`` (which ``DistributedOptions`` inherits).
Writes are atomic (write to a temporary sibling, then ``os.replace``), so a
crash mid-save never destroys the previous checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.predict import FactorMeanAccumulator, PosteriorPredictor
from repro.core.priors import BPMFConfig, GaussianPrior
from repro.core.state import BPMFState
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "SNAPSHOT_FORMAT",
    "CheckpointConfig",
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "coerce_snapshot",
    "encode_rng_state",
    "restore_generator",
    "snapshot_from_result",
]

PathLike = Union[str, os.PathLike]

SNAPSHOT_FORMAT = "repro-snapshot-v1"

#: Config fields echoed into snapshots (enough to rebuild a ``BPMFConfig``
#: with default hyperpriors and to fold in new users at serving time).
_CONFIG_FIELDS = ("num_latent", "alpha", "burn_in", "n_samples", "beta0",
                  "init_std")


# ---------------------------------------------------------------------------
# RNG state round-tripping
# ---------------------------------------------------------------------------

def encode_rng_state_dict(state: dict) -> dict:
    """Normalise an rng-state dict so it is JSON-serializable.

    Bit-generator states mix plain ints with numpy arrays (``MT19937``
    keeps a ``(624,)`` uint32 key); arrays are tagged so
    :func:`restore_generator` can rebuild them exactly.  Idempotent, so an
    already-encoded dict passes through unchanged.
    """
    def convert(value):
        if isinstance(value, np.ndarray):
            return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, dict):
            return {key: convert(item) for key, item in value.items()}
        return value

    return convert(state)


def encode_rng_state(rng: np.random.Generator) -> dict:
    """Extract a JSON-serializable copy of a generator's bit-stream state."""
    return encode_rng_state_dict(rng.bit_generator.state)


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator whose bit stream continues from ``state``."""
    def convert(value):
        if isinstance(value, dict):
            if "__ndarray__" in value:
                return np.array(value["__ndarray__"], dtype=value["dtype"])
            return {key: convert(item) for key, item in value.items()}
        return value

    state = convert(state)
    name = state.get("bit_generator") if isinstance(state, dict) else None
    if not name or not hasattr(np.random, name):
        raise ValidationError(f"unknown bit generator in snapshot: {name!r}")
    bit_generator = getattr(np.random, name)()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------------------
# checkpoint policy
# ---------------------------------------------------------------------------

@dataclass
class CheckpointConfig:
    """Save-every-k-sweeps checkpoint policy for the samplers.

    Parameters
    ----------
    path:
        Snapshot file (overwritten atomically on every save).
    every:
        Save after every ``every``-th completed sweep.  The final sweep is
        always saved regardless, so ``path`` ends up holding the finished
        run.

    The samplers see ratings as given, so every snapshot they save has
    rating offset 0 and no metadata (:func:`snapshot_from_result` sets
    both for a snapshot saved by hand).
    """

    path: PathLike
    every: int = 1

    def __post_init__(self):
        check_positive("every", self.every)

    def due(self, iteration: int, total_iterations: int) -> bool:
        """Whether a save is due after completed sweep index ``iteration``."""
        return ((iteration + 1) % self.every == 0
                or iteration + 1 == total_iterations)


# ---------------------------------------------------------------------------
# the snapshot bundle
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    """One persisted posterior snapshot (serving payload + resume state).

    Attributes
    ----------
    state:
        The last Gibbs sample (factors, resampled priors, sweep count).
    config:
        Echo of the scalar :class:`~repro.core.priors.BPMFConfig` fields
        the run used (``num_latent``, ``alpha``, ``burn_in``, ...).
    rng_state:
        JSON-serializable bit-generator state captured *after* the last
        completed sweep; ``None`` for snapshots built outside a sampler.
    mean_user_sum, mean_movie_sum, mean_count:
        Running posterior-mean factor accumulators (sums over the
        ``mean_count`` post-burn-in samples); ``None``/0 when the run never
        left burn-in.
    prediction_sum, prediction_count:
        The :class:`~repro.core.predict.PosteriorPredictor` accumulator for
        the training run's held-out cells (resume continues the running
        posterior-mean RMSE trace exactly).
    rmse_burn_in, rmse_per_sample, rmse_running_mean:
        RMSE traces up to the checkpointed sweep.
    items_updated:
        Cumulative item-update count (throughput bookkeeping).
    offset:
        Rating offset to add back at serving time.
    metadata:
        Free-form string metadata.
    """

    state: BPMFState
    config: Dict[str, float] = field(default_factory=dict)
    rng_state: Optional[dict] = None
    mean_user_sum: Optional[np.ndarray] = None
    mean_movie_sum: Optional[np.ndarray] = None
    mean_count: int = 0
    prediction_sum: Optional[np.ndarray] = None
    prediction_count: int = 0
    rmse_burn_in: List[float] = field(default_factory=list)
    rmse_per_sample: List[float] = field(default_factory=list)
    rmse_running_mean: List[float] = field(default_factory=list)
    items_updated: int = 0
    offset: float = 0.0
    metadata: Dict[str, str] = field(default_factory=dict)

    # -- derived views ----------------------------------------------------

    @property
    def iteration(self) -> int:
        """Number of completed Gibbs sweeps at save time."""
        return self.state.iteration

    def bpmf_config(self) -> BPMFConfig:
        """Rebuild the run's :class:`BPMFConfig` from the echoed fields.

        Only the scalar fields round-trip; custom Normal–Wishart
        hyperpriors are reconstructed as the defaults for the echoed
        ``num_latent``/``beta0``.
        """
        if not self.config:
            raise ValidationError("snapshot carries no config echo")
        integer = {"num_latent", "burn_in", "n_samples"}
        return BPMFConfig(**{
            key: int(self.config[key]) if key in integer else self.config[key]
            for key in _CONFIG_FIELDS if key in self.config})

    @property
    def alpha(self) -> float:
        """Observation precision the chain was trained with (fold-in needs it)."""
        return float(self.config.get("alpha", 2.0))

    def posterior_mean_state(self) -> BPMFState:
        """Posterior-mean factors as a state; falls back to the last sample.

        The fallback (no accumulated samples, e.g. a burn-in-only
        checkpoint) keeps single-snapshot serving usable either way.
        """
        if self.mean_count > 0 and self.mean_user_sum is not None:
            return BPMFState(
                user_factors=self.mean_user_sum / self.mean_count,
                movie_factors=self.mean_movie_sum / self.mean_count,
                user_prior=self.state.user_prior.copy(),
                movie_prior=self.state.movie_prior.copy(),
                iteration=self.state.iteration,
            )
        return self.state.copy()


def snapshot_from_result(result, rng: Optional[np.random.Generator] = None,
                         offset: float = 0.0,
                         metadata: Optional[Dict[str, str]] = None) -> Snapshot:
    """Build a :class:`Snapshot` from a finished ``BPMFResult``.

    Convenience for "train in memory, persist afterwards" workflows that
    never enabled in-run checkpointing.  Passing the run's generator makes
    the snapshot resumable.  The posterior-predictive accumulator is
    reconstructed as ``mean * count`` (the result only carries the mean),
    so a resume continues the running-mean RMSE trace to floating-point
    accuracy; for the strict bit-identical guarantee use in-run
    checkpointing (:class:`CheckpointConfig`), which saves the raw sums.
    """
    means = result.factor_means
    n_accumulated = len(result.rmse_per_sample)
    return Snapshot(
        state=result.state.copy(),
        config={key: float(getattr(result.config, key))
                for key in _CONFIG_FIELDS},
        rng_state=None if rng is None else encode_rng_state(rng),
        mean_user_sum=None if means is None else means.user_sum.copy(),
        mean_movie_sum=None if means is None else means.movie_sum.copy(),
        mean_count=0 if means is None else means.n_samples,
        prediction_sum=(result.predictions * n_accumulated
                        if n_accumulated else None),
        prediction_count=n_accumulated,
        items_updated=result.items_updated,
        rmse_burn_in=list(result.rmse_burn_in),
        rmse_per_sample=list(result.rmse_per_sample),
        rmse_running_mean=list(result.rmse_running_mean),
        offset=offset,
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _payload_checksum(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every stored array, in sorted key order."""
    digest = hashlib.sha256()
    for key in sorted(payload):
        if key == "checksum":
            continue
        array = np.ascontiguousarray(payload[key])
        digest.update(key.encode("utf8"))
        digest.update(str(array.dtype).encode("utf8"))
        digest.update(str(array.shape).encode("utf8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_snapshot(snapshot: Snapshot, path: PathLike) -> None:
    """Write ``snapshot`` to ``path`` atomically with integrity metadata."""
    state = snapshot.state
    payload: Dict[str, np.ndarray] = {
        "format": np.array(SNAPSHOT_FORMAT),
        "user_factors": state.user_factors,
        "movie_factors": state.movie_factors,
        "user_prior_mean": state.user_prior.mean,
        "user_prior_precision": state.user_prior.precision,
        "movie_prior_mean": state.movie_prior.mean,
        "movie_prior_precision": state.movie_prior.precision,
        "iteration": np.array(state.iteration, dtype=np.int64),
        "config": np.array(json.dumps(snapshot.config)),
        "rng_state": np.array(
            "" if snapshot.rng_state is None
            else json.dumps(encode_rng_state_dict(snapshot.rng_state))),
        "mean_count": np.array(snapshot.mean_count, dtype=np.int64),
        "prediction_count": np.array(snapshot.prediction_count, dtype=np.int64),
        "rmse_burn_in": np.asarray(snapshot.rmse_burn_in, dtype=np.float64),
        "rmse_per_sample": np.asarray(snapshot.rmse_per_sample, dtype=np.float64),
        "rmse_running_mean": np.asarray(snapshot.rmse_running_mean,
                                        dtype=np.float64),
        "items_updated": np.array(snapshot.items_updated, dtype=np.int64),
        "offset": np.array(snapshot.offset, dtype=np.float64),
        "metadata": np.array(json.dumps(snapshot.metadata)),
    }
    if snapshot.mean_user_sum is not None:
        payload["mean_user_sum"] = snapshot.mean_user_sum
        payload["mean_movie_sum"] = snapshot.mean_movie_sum
    if snapshot.prediction_sum is not None:
        payload["prediction_sum"] = snapshot.prediction_sum
    payload["checksum"] = np.array(_payload_checksum(payload))

    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    # The temporary name must end in ".npz" so numpy writes *exactly* this
    # path (it appends the suffix otherwise) — a stale leftover from a
    # killed process can then never be mistaken for the fresh archive.
    # The archive's bytes are fsynced before the rename makes them visible
    # (a crash can then never leave the final name holding a torn file),
    # and the directory after it, so the rename itself survives a crash.
    tmp = path.with_name(path.name + ".tmp.npz")
    try:
        np.savez_compressed(tmp, **payload)
        _fsync_path(tmp)
        os.replace(tmp, path)
        _fsync_path(path.parent)
    finally:
        if tmp.exists():  # pragma: no cover - crash-path hygiene
            tmp.unlink()


def _fsync_path(path: Path) -> None:
    """fsync a file's data, or a directory's entries, by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(path: PathLike, verify: bool = True) -> Snapshot:
    """Read a snapshot written by :func:`save_snapshot`.

    With ``verify`` (default) the SHA-256 checksum is recomputed over every
    payload and compared to the stored value; a mismatch raises
    :class:`ValidationError` instead of returning corrupt factors.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}

    if str(payload.get("format", "")) != SNAPSHOT_FORMAT:
        raise ValidationError(
            f"{path} is not a {SNAPSHOT_FORMAT} snapshot "
            f"(format tag: {payload.get('format')!r})")
    if verify:
        stored = str(payload.get("checksum", ""))
        actual = _payload_checksum(payload)
        if stored != actual:
            raise ValidationError(
                f"snapshot {path} failed its integrity check "
                f"(stored {stored[:12]}..., recomputed {actual[:12]}...)")

    # Older versions could narrow the factor payloads to float32 at save
    # time; widen back so every consumer keeps its float64 invariants
    # (the precision already lost stays lost).
    state = BPMFState(
        user_factors=payload["user_factors"].astype(np.float64),
        movie_factors=payload["movie_factors"].astype(np.float64),
        user_prior=GaussianPrior(payload["user_prior_mean"].copy(),
                                 payload["user_prior_precision"].copy()),
        movie_prior=GaussianPrior(payload["movie_prior_mean"].copy(),
                                  payload["movie_prior_precision"].copy()),
        iteration=int(payload["iteration"]),
    )
    rng_json = str(payload["rng_state"])
    return Snapshot(
        state=state,
        config=json.loads(str(payload["config"])),
        rng_state=json.loads(rng_json) if rng_json else None,
        mean_user_sum=(payload["mean_user_sum"].astype(np.float64)
                       if "mean_user_sum" in payload else None),
        mean_movie_sum=(payload["mean_movie_sum"].astype(np.float64)
                        if "mean_movie_sum" in payload else None),
        mean_count=int(payload["mean_count"]),
        prediction_sum=(payload["prediction_sum"].astype(np.float64)
                        if "prediction_sum" in payload else None),
        prediction_count=int(payload["prediction_count"]),
        rmse_burn_in=payload["rmse_burn_in"].tolist(),
        rmse_per_sample=payload["rmse_per_sample"].tolist(),
        rmse_running_mean=payload["rmse_running_mean"].tolist(),
        items_updated=int(payload["items_updated"]),
        offset=float(payload["offset"]),
        metadata=json.loads(str(payload["metadata"])),
    )


def coerce_snapshot(source: Union[Snapshot, PathLike]) -> Snapshot:
    """Accept a :class:`Snapshot` or a path and return a :class:`Snapshot`."""
    if isinstance(source, Snapshot):
        return source
    return load_snapshot(source)


# ---------------------------------------------------------------------------
# the sampler-side checkpoint hook
# ---------------------------------------------------------------------------

class TrainingCheckpointer:
    """Save/restore logic around the chain loop.

    The loop (:meth:`repro.core.gibbs.GibbsSampler._rank_program`) owns the
    sweeps; this object, held by rank 0, owns everything a checkpoint must
    capture around them.  One instance is created per ``run()`` call
    (possibly from a resume snapshot), keeps the RMSE traces, holds the
    loop's posterior-mean factor accumulator, and writes snapshots
    whenever the :class:`CheckpointConfig` says one is due.
    """

    def __init__(self, config: BPMFConfig,
                 checkpoint: Optional[CheckpointConfig],
                 resume: Optional[Snapshot],
                 factor_means: FactorMeanAccumulator,
                 predictor: PosteriorPredictor):
        self.checkpoint = checkpoint
        self.config = config
        self.factor_means = factor_means
        self.rmse_burn_in: List[float] = []
        self.rmse_per_sample: List[float] = []
        self.rmse_running_mean: List[float] = []
        self.items_updated = 0
        if resume is not None:
            # The model (and the burn-in boundary the accumulators already
            # honoured) must match; only n_samples may grow on resume.
            for key in ("num_latent", "alpha", "burn_in", "beta0"):
                echoed = resume.config.get(key)
                if echoed is not None \
                        and float(echoed) != float(getattr(config, key)):
                    raise ValidationError(
                        f"snapshot was trained with {key}={echoed}, but the "
                        f"resuming config has {key}={getattr(config, key)}")
            self.items_updated = resume.items_updated
            self.rmse_burn_in = list(resume.rmse_burn_in)
            self.rmse_per_sample = list(resume.rmse_per_sample)
            self.rmse_running_mean = list(resume.rmse_running_mean)
            if resume.prediction_sum is not None:
                predictor.restore(resume.prediction_sum,
                                  resume.prediction_count)

    @staticmethod
    def open_resume(resume, state, rng):
        """Normalise a ``resume=`` argument into ``(snapshot, state, rng)``.

        ``state`` must not also be supplied; the snapshot's generator state
        (when present) replaces the seed-derived generator so the resumed
        bit stream continues exactly.
        """
        if resume is None:
            return None, state, rng
        if state is not None:
            raise ValidationError("pass either state= or resume=, not both")
        snapshot = coerce_snapshot(resume)
        if snapshot.rng_state is not None:
            rng = restore_generator(snapshot.rng_state)
        return snapshot, snapshot.state.copy(), rng

    def maybe_save(self, iteration: int, state: BPMFState,
                   rng: np.random.Generator,
                   predictor: PosteriorPredictor) -> bool:
        """Save a snapshot if one is due after ``iteration``; returns saved."""
        if self.checkpoint is None \
                or not self.checkpoint.due(iteration, self.config.total_iterations):
            return False
        means = self.factor_means
        snapshot = Snapshot(
            state=state.copy(),
            config={key: float(getattr(self.config, key))
                    for key in _CONFIG_FIELDS},
            rng_state=encode_rng_state(rng),
            mean_user_sum=means.user_sum.copy() if means.n_samples else None,
            mean_movie_sum=means.movie_sum.copy() if means.n_samples else None,
            mean_count=means.n_samples,
            prediction_sum=predictor.prediction_sum.copy(),
            prediction_count=predictor.n_samples,
            rmse_burn_in=list(self.rmse_burn_in),
            rmse_per_sample=list(self.rmse_per_sample),
            rmse_running_mean=list(self.rmse_running_mean),
            items_updated=self.items_updated,
        )
        save_snapshot(snapshot, self.checkpoint.path)
        return True
