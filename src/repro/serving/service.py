"""Online prediction/ranking service over persisted posterior snapshots.

:class:`PredictionService` is the read path of the system: it loads one or
more snapshots (averaging multiple chains when given several), precomputes
a C-contiguous item-factor block for fast ranked retrieval, and answers

* ``predict(user, item)`` / ``predict_batch`` — rating predictions with
  the training offset restored;
* ``top_n(user)`` — ranked recommendations, identical (same selection and
  tie-breaking) to :func:`repro.core.recommend.recommend_for_user` on the
  equivalent in-memory state;
* ``fold_in(items, values)`` — register a cold-start user never seen at
  training time (:mod:`repro.serving.foldin`) and serve them like any
  other user.

A bounded **LRU score cache** of per-user full score vectors makes
repeat ``top_n``/score traffic for hot users cost one dict lookup instead
of a GEMV.  Many single-pair lookups go through one ``predict_batch``
call (the TCP frontend fuses concurrent ``top_n`` requests the same way).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.priors import GaussianPrior
from repro.core.recommend import Recommendation, select_top_n
from repro.core.state import BPMFState
from repro.core.checkpoint import PathLike, Snapshot, coerce_snapshot
from repro.serving.foldin import FoldInRegistry, fold_in_users
from repro.sparse.csr import RatingMatrix
from repro.utils.validation import ValidationError, check_in, check_positive

__all__ = ["PredictionService", "check_user_range", "check_item_range"]

SnapshotLike = Union[Snapshot, PathLike]


def check_user_range(users: np.ndarray, n_users: int,
                     n_train_users: int) -> None:
    """Reject user indices outside ``[0, n_users)``.

    Shared by the single service and the cluster gateway so both reject
    with the same message (including the folded-in count, the usual
    source of off-by-confusion).
    """
    if users.size and (int(users.min()) < 0 or int(users.max()) >= n_users):
        raise ValidationError(
            f"user index outside [0, {n_users}) "
            f"({n_users - n_train_users} folded-in users)")


def check_item_range(items: np.ndarray, n_items: int) -> None:
    """Reject item indices outside ``[0, n_items)`` (shared, see above)."""
    if items.size and (int(items.min()) < 0 or int(items.max()) >= n_items):
        raise ValidationError(f"item index outside [0, {n_items})")


class PredictionService:
    """Serves predictions and rankings from posterior snapshots.

    Parameters
    ----------
    snapshots:
        One snapshot (or path), or a sequence of them.  Several snapshots —
        e.g. independent chains, or snapshots taken along one chain — are
        combined into a single factor model: ``mode="mean"`` pools their
        posterior-mean accumulators (weighted by sample counts), while
        ``mode="last"`` averages their last Gibbs samples.
    mode:
        ``"mean"`` (default) serves from posterior-mean factors, falling
        back to the last sample for snapshots that never left burn-in;
        ``"last"`` serves from the last Gibbs sample — the mode that
        reproduces in-memory ``recommend_for_user`` results exactly.
    train:
        Optional training rating matrix; when provided, ``top_n`` excludes
        items the user already rated (the standard serving rule).
    cache_size:
        Maximum number of per-user score vectors kept in the LRU cache.
    """

    #: Dotted prefix this gateway's :meth:`stats` surfaces under in a
    #: :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
    METRICS_PREFIX = "serving.service"

    def __init__(self, snapshots: Union[SnapshotLike, Sequence[SnapshotLike]],
                 mode: str = "mean", train: Optional[RatingMatrix] = None,
                 cache_size: int = 256):
        check_in("mode", mode, ("mean", "last"))
        check_positive("cache_size", cache_size)
        if isinstance(snapshots, (Snapshot, str)) or hasattr(snapshots, "__fspath__"):
            snapshots = [snapshots]
        loaded = [coerce_snapshot(source) for source in snapshots]
        if not loaded:
            raise ValidationError("at least one snapshot is required")

        shapes = {(snap.state.n_users, snap.state.n_movies, snap.state.num_latent)
                  for snap in loaded}
        if len(shapes) > 1:
            raise ValidationError(
                f"snapshots disagree on factor shapes: {sorted(shapes)}")
        offsets = {float(snap.offset) for snap in loaded}
        if len(offsets) > 1:
            raise ValidationError(
                f"snapshots disagree on the rating offset: {sorted(offsets)}")

        user_factors, item_factors = self._combine(loaded, mode)
        self.mode = mode
        self.offset = float(loaded[0].offset)
        # C-contiguous blocks: top_n is one GEMV against the item block.
        # The user block lives in a geometrically grown buffer so fold-in
        # registration is amortized O(K), not O(n_users) per request;
        # `_user_factors` is always the view of the rows in use.
        self._user_buffer = np.ascontiguousarray(user_factors)
        self._user_factors = self._user_buffer
        self._item_factors = np.ascontiguousarray(item_factors)
        self._n_train_users = int(user_factors.shape[0])
        self._user_prior: GaussianPrior = loaded[0].state.user_prior.copy()
        self._movie_prior: GaussianPrior = loaded[0].state.movie_prior.copy()
        self._alpha = loaded[0].alpha
        self._train = train
        if train is not None and (train.n_users != self._n_train_users
                                  or train.n_movies != self.n_items):
            raise ValidationError(
                "train matrix shape does not match the snapshot factors")
        self._cache_size = int(cache_size)
        self._score_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.n_snapshots = len(loaded)
        # Incremental-update state per folded-in user id (rank-k posterior
        # updates when a known cold-start user rates new items).
        self._foldin = FoldInRegistry(self._user_prior, self._alpha)

    @staticmethod
    def _combine(loaded: List[Snapshot], mode: str) -> Tuple[np.ndarray, np.ndarray]:
        if mode == "last":
            user = np.mean([snap.state.user_factors for snap in loaded], axis=0)
            item = np.mean([snap.state.movie_factors for snap in loaded], axis=0)
            return user, item
        # "mean": pool the running sums so chains with more retained samples
        # weigh proportionally; snapshots without samples fall back to their
        # last state with weight 1.
        user_sum = np.zeros_like(loaded[0].state.user_factors)
        item_sum = np.zeros_like(loaded[0].state.movie_factors)
        count = 0
        for snap in loaded:
            if snap.mean_count > 0 and snap.mean_user_sum is not None:
                user_sum += snap.mean_user_sum
                item_sum += snap.mean_movie_sum
                count += snap.mean_count
            else:
                user_sum += snap.state.user_factors
                item_sum += snap.state.movie_factors
                count += 1
        return user_sum / count, item_sum / count

    # -- shape properties --------------------------------------------------

    @property
    def n_users(self) -> int:
        """Total users served, including folded-in cold-start users."""
        return int(self._user_factors.shape[0])

    @property
    def n_train_users(self) -> int:
        """Users present at training time (fold-in ids start here)."""
        return self._n_train_users

    @property
    def n_items(self) -> int:
        return int(self._item_factors.shape[0])

    @property
    def num_latent(self) -> int:
        return int(self._item_factors.shape[1])

    def state(self) -> BPMFState:
        """The serving factors as a :class:`BPMFState` (parity/diagnostics)."""
        return BPMFState(
            user_factors=self._user_factors.copy(),
            movie_factors=self._item_factors.copy(),
            user_prior=self._user_prior.copy(),
            movie_prior=self._movie_prior.copy(),
        )

    # -- scoring -----------------------------------------------------------

    def _check_users(self, users: np.ndarray) -> None:
        check_user_range(users, self.n_users, self._n_train_users)

    def _check_items(self, items: np.ndarray) -> None:
        check_item_range(items, self.n_items)

    def predict_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Predicted ratings for parallel (user, item) index arrays."""
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        if users.shape != items.shape:
            raise ValidationError("users and items must align")
        self._check_users(users)
        self._check_items(items)
        scores = np.einsum("ij,ij->i", self._user_factors[users],
                           self._item_factors[items]) + self.offset
        return scores

    def predict(self, user: int, item: int) -> float:
        """Predicted rating for one (user, item) pair."""
        return float(self.predict_batch(np.array([user]), np.array([item]))[0])

    # -- ranked retrieval ----------------------------------------------------

    def _user_scores(self, user: int) -> np.ndarray:
        """Full (LRU-cached) score vector of one user over all items."""
        cached = self._score_cache.get(user)
        if cached is not None:
            self._score_cache.move_to_end(user)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        scores = self._item_factors @ self._user_factors[user] + self.offset
        scores.setflags(write=False)
        while len(self._score_cache) >= self._cache_size:
            self._score_cache.popitem(last=False)
        self._score_cache[user] = scores
        return scores

    def top_n(self, user: int, n: int = 10,
              exclude_seen: bool = True) -> Recommendation:
        """Top-``n`` items for ``user`` by predicted rating.

        Selection and tie-breaking mirror
        :func:`repro.core.recommend.recommend_for_user`; with
        ``exclude_seen`` (and a ``train`` matrix) the user's training-time
        ratings are excluded.  Folded-in users have no training rows, so
        all items are candidates for them.
        """
        check_positive("n", n)
        users = np.array([user], dtype=np.int64)
        self._check_users(users)
        user = int(user)

        if exclude_seen and self._train is not None \
                and user < self._n_train_users:
            seen, _ = self._train.user_ratings(user)
            candidates = np.setdiff1d(np.arange(self.n_items, dtype=np.int64),
                                      seen, assume_unique=False)
            if candidates.shape[0] == 0:
                return Recommendation(user=user,
                                      items=np.empty(0, dtype=np.int64),
                                      scores=np.empty(0))
            scores = self._user_scores(user)[candidates]
            order = select_top_n(scores, n)
            items = candidates[order]
        else:
            # Nothing excluded: rank the cached vector itself.  The
            # candidates would be every index, so the order is the items.
            scores = self._user_scores(user)
            items = select_top_n(scores, n)
            order = items
        return Recommendation(user=user, items=items, scores=scores[order])

    def top_n_batch(self, users: Sequence[int], n: int = 10,
                    exclude_seen: bool = True) -> Dict[int, Recommendation]:
        """Ranked lists for several users."""
        return {int(user): self.top_n(int(user), n=n, exclude_seen=exclude_seen)
                for user in users}

    # -- cache bookkeeping ---------------------------------------------------

    def _invalidate_cached_scores(self, user: int) -> None:
        """Drop a user's cached score vector after their row changed."""
        if self._score_cache.pop(user, None) is not None:
            self.cache_invalidations += 1

    def stats(self) -> Dict[str, object]:
        """Serving counters: cache behaviour and population sizes."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_invalidations": self.cache_invalidations,
            "cache_entries": len(self._score_cache),
            "n_users": self.n_users,
            "n_folded_in": self.n_users - self._n_train_users,
        }

    def state_digest(self) -> str:
        """A hex digest of all mutable serving state, bit-exact.

        Covers the user-factor rows in use plus the fold-in registry's
        incremental statistics — everything ``rate``/``foldin`` can
        touch.  Two replicas that applied the same mutation sequence to
        the same snapshot digest identically; a single ULP of drift in
        any factor row changes it.  This is the fleet convergence
        invariant the replication tests pin.
        """
        payload = hashlib.sha256()
        payload.update(f"{self._n_train_users}:{self.n_users}"
                       .encode("ascii"))
        payload.update(np.ascontiguousarray(self._user_factors).tobytes())
        payload.update(self._foldin.digest().encode("ascii"))
        return payload.hexdigest()

    # -- cold start ----------------------------------------------------------

    def fold_in(self, items: np.ndarray, values: np.ndarray) -> int:
        """Register an unseen user from their observed ratings.

        ``values`` are raw ratings on the served scale; the training offset
        is removed before the conditional posterior is computed.  Returns
        the new user id (``>= n_train_users``), immediately usable with
        :meth:`predict` and :meth:`top_n`.
        """
        return self.fold_in_batch([items], [values])[0]

    def fold_in_batch(self, item_lists: Sequence[np.ndarray],
                      value_lists: Sequence[np.ndarray]) -> List[int]:
        """Register several unseen users in one stacked fold-in pass."""
        item_lists = [np.asarray(items, dtype=np.int64)
                      for items in item_lists]
        value_lists = [np.asarray(vals, dtype=np.float64) - self.offset
                       for vals in value_lists]
        rows = fold_in_users(self._item_factors, self._user_prior,
                             self._alpha, item_lists, value_lists)
        first = self.n_users
        self._append_user_rows(rows)
        self._foldin.register(first, item_lists, value_lists,
                              lambda items: self._item_factors[items])
        for new_id in range(first, first + rows.shape[0]):
            # A buffer id can never be recycled, but drop any entry anyway
            # so a stale vector cannot survive an id-accounting bug.
            self._invalidate_cached_scores(new_id)
        return list(range(first, first + rows.shape[0]))

    def add_ratings(self, user: int, items: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
        """Incrementally update a folded-in user who rated new items.

        A rank-``k`` update of the user's conditional posterior
        (:class:`~repro.serving.foldin.FoldInState`) — their full history
        is *not* re-folded.  The user's factor row is rewritten in place
        and their cached score vector invalidated, so the next ``top_n``
        reflects the new ratings.  Only folded-in users carry the
        incremental state; training users' rows belong to the sampler.
        """
        user = int(user)
        items = np.asarray(items, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel() - self.offset
        self._check_items(items)
        row = self._foldin.update(user, self._n_train_users, self.n_users,
                                  items, values,
                                  lambda items: self._item_factors[items])
        self._user_buffer[user] = row
        self._invalidate_cached_scores(user)
        return row

    def _append_user_rows(self, rows: np.ndarray) -> None:
        """Append factor rows, doubling the buffer when it fills."""
        used, n_new = self.n_users, rows.shape[0]
        if used + n_new > self._user_buffer.shape[0]:
            capacity = max(used + n_new, 2 * self._user_buffer.shape[0])
            buffer = np.empty((capacity, self.num_latent))
            buffer[:used] = self._user_buffer[:used]
            self._user_buffer = buffer
        self._user_buffer[used:used + n_new] = rows
        self._user_factors = self._user_buffer[:used + n_new]

