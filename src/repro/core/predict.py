"""Posterior-mean prediction.

BPMF predictions average ``U_u · V_m`` over the Gibbs samples retained
after burn-in (a Rao-Blackwellised Monte-Carlo estimate of the posterior
predictive mean).  :class:`PosteriorPredictor` accumulates this average
incrementally so no per-sample factor matrices need to be stored — the
same trick the reference implementation uses to keep memory bounded on
large datasets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.state import BPMFState
from repro.utils.validation import ValidationError

__all__ = ["PosteriorPredictor", "FactorMeanAccumulator", "predict_ratings"]


def _check_index_range(name: str, indices: np.ndarray, n: int) -> None:
    """Require every index in ``[0, n)``; raise :class:`ValidationError`.

    Raw numpy fancy indexing would raise an ``IndexError`` for indices
    ``>= n`` but silently *wrap* negative ones — both are wrong answers for
    a prediction API, so the public entry points validate explicitly.
    """
    if indices.size == 0:
        return
    lo, hi = int(indices.min()), int(indices.max())
    if lo < 0 or hi >= n:
        bad = lo if lo < 0 else hi
        raise ValidationError(
            f"{name} contains index {bad}, outside the valid range [0, {n})")


class PosteriorPredictor:
    """Running average of test-point predictions over Gibbs samples.

    Parameters
    ----------
    test_users, test_movies:
        Index arrays of the held-out cells to track.
    keep_samples:
        When true, every per-sample prediction vector is kept (needed for
        posterior-interval/coverage evaluation); otherwise only the running
        mean is stored.
    """

    def __init__(self, test_users: np.ndarray, test_movies: np.ndarray,
                 keep_samples: bool = False):
        self.test_users = np.asarray(test_users, dtype=np.int64).ravel()
        self.test_movies = np.asarray(test_movies, dtype=np.int64).ravel()
        if self.test_users.shape != self.test_movies.shape:
            raise ValidationError("test_users and test_movies must align")
        if self.test_users.size:
            if int(self.test_users.min()) < 0:
                raise ValidationError("test_users contains negative indices")
            if int(self.test_movies.min()) < 0:
                raise ValidationError("test_movies contains negative indices")
        self._sum = np.zeros(self.test_users.shape[0])
        self._count = 0
        self._keep = keep_samples
        self._samples: list[np.ndarray] = []

    @property
    def n_samples(self) -> int:
        """Number of Gibbs samples accumulated so far."""
        return self._count

    @property
    def prediction_sum(self) -> np.ndarray:
        """The raw running sum (serialized by the checkpoint store)."""
        return self._sum

    def restore(self, prediction_sum: np.ndarray, n_samples: int) -> None:
        """Reload accumulator state saved by a checkpoint (exact resume)."""
        prediction_sum = np.asarray(prediction_sum, dtype=np.float64)
        if prediction_sum.shape != self._sum.shape:
            raise ValidationError(
                f"checkpointed prediction sum has shape {prediction_sum.shape}, "
                f"expected {self._sum.shape}")
        if n_samples < 0:
            raise ValidationError("n_samples must be >= 0")
        self._sum = prediction_sum.copy()
        self._count = int(n_samples)

    def accumulate(self, state: BPMFState) -> np.ndarray:
        """Add one posterior sample; returns that sample's predictions."""
        _check_index_range("test_users", self.test_users, state.n_users)
        _check_index_range("test_movies", self.test_movies, state.n_movies)
        return self.add(state.predict(self.test_users, self.test_movies))

    def add(self, predictions: np.ndarray) -> np.ndarray:
        """Add one sample's predictions of the tracked cells, in their
        order (made elsewhere, e.g. by the ranks owning the cells);
        returns them."""
        predictions = np.asarray(predictions, dtype=np.float64)
        if predictions.shape != self._sum.shape:
            raise ValidationError(
                f"predictions have shape {predictions.shape}, expected "
                f"{self._sum.shape}")
        self._sum += predictions
        self._count += 1
        if self._keep:
            self._samples.append(predictions)
        return predictions

    def mean_prediction(self) -> np.ndarray:
        """The posterior-mean prediction (requires >= 1 accumulated sample)."""
        if self._count == 0:
            raise ValidationError("no samples accumulated yet")
        return self._sum / self._count

    def sample_matrix(self) -> np.ndarray:
        """All per-sample predictions as ``(n_samples, n_test)`` (keep_samples only)."""
        if not self._keep:
            raise ValidationError("predictor was created with keep_samples=False")
        return np.array(self._samples)


class FactorMeanAccumulator:
    """Running average of the *factor matrices* over post-burn-in samples.

    :class:`PosteriorPredictor` averages predictions at a fixed set of test
    cells; a serving system instead needs to answer queries for arbitrary
    (user, movie) pairs after training ends.  This accumulator applies the
    same memory-bounded running-sum trick to ``U`` and ``V`` themselves, so
    a posterior snapshot can carry approximate posterior-mean factors
    without storing per-sample matrices.  (Note the usual caveat: the dot
    product of mean factors is not exactly the mean of per-sample dot
    products, but it is the standard serving-time compromise.)
    """

    def __init__(self, n_users: int, n_movies: int, num_latent: int):
        self._user_sum = np.zeros((n_users, num_latent))
        self._movie_sum = np.zeros((n_movies, num_latent))
        self._count = 0

    @classmethod
    def for_state(cls, state: BPMFState) -> "FactorMeanAccumulator":
        """An empty accumulator shaped like ``state``'s factor matrices."""
        return cls(state.n_users, state.n_movies, state.num_latent)

    @property
    def n_samples(self) -> int:
        """Number of Gibbs samples accumulated so far."""
        return self._count

    @property
    def user_sum(self) -> np.ndarray:
        """Raw running sum of ``U`` (serialized by the checkpoint store)."""
        return self._user_sum

    @property
    def movie_sum(self) -> np.ndarray:
        """Raw running sum of ``V`` (serialized by the checkpoint store)."""
        return self._movie_sum

    def accumulate(self, state: BPMFState) -> None:
        """Add one posterior sample's factor matrices."""
        if state.user_factors.shape != self._user_sum.shape \
                or state.movie_factors.shape != self._movie_sum.shape:
            raise ValidationError(
                "state factor shapes do not match the accumulator")
        self._user_sum += state.user_factors
        self._movie_sum += state.movie_factors
        self._count += 1

    def restore(self, user_sum: np.ndarray, movie_sum: np.ndarray,
                n_samples: int) -> None:
        """Reload accumulator state saved by a checkpoint (exact resume)."""
        user_sum = np.asarray(user_sum, dtype=np.float64)
        movie_sum = np.asarray(movie_sum, dtype=np.float64)
        if user_sum.shape != self._user_sum.shape \
                or movie_sum.shape != self._movie_sum.shape:
            raise ValidationError(
                "checkpointed factor sums do not match the accumulator shapes")
        if n_samples < 0:
            raise ValidationError("n_samples must be >= 0")
        self._user_sum = user_sum.copy()
        self._movie_sum = movie_sum.copy()
        self._count = int(n_samples)

    def mean_user_factors(self) -> np.ndarray:
        """Posterior-mean ``U`` (requires >= 1 accumulated sample)."""
        if self._count == 0:
            raise ValidationError("no samples accumulated yet")
        return self._user_sum / self._count

    def mean_movie_factors(self) -> np.ndarray:
        """Posterior-mean ``V`` (requires >= 1 accumulated sample)."""
        if self._count == 0:
            raise ValidationError("no samples accumulated yet")
        return self._movie_sum / self._count

    def mean_state(self, template: BPMFState) -> BPMFState:
        """A :class:`BPMFState` carrying the mean factors.

        Priors and iteration count are copied from ``template`` (typically
        the last Gibbs sample) — they are metadata here, not averages.
        """
        return BPMFState(
            user_factors=self.mean_user_factors(),
            movie_factors=self.mean_movie_factors(),
            user_prior=template.user_prior.copy(),
            movie_prior=template.movie_prior.copy(),
            iteration=template.iteration,
        )


def predict_ratings(state: BPMFState, users: np.ndarray, movies: np.ndarray,
                    clip: Optional[tuple[float, float]] = None) -> np.ndarray:
    """Single-sample prediction ``U_u · V_m`` with optional range clipping.

    Clipping to the rating scale (e.g. ``(0.5, 5.0)`` for MovieLens) is the
    standard post-processing for star-rating data.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    movies = np.asarray(movies, dtype=np.int64).ravel()
    if users.shape != movies.shape:
        raise ValidationError("users and movies must align")
    _check_index_range("users", users, state.n_users)
    _check_index_range("movies", movies, state.n_movies)
    predictions = state.predict(users, movies)
    if clip is not None:
        lo, hi = clip
        if lo > hi:
            raise ValidationError(f"invalid clip range ({lo}, {hi})")
        predictions = np.clip(predictions, lo, hi)
    return predictions
