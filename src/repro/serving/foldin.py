"""Cold-start fold-in: conditional posteriors for users unseen at training.

A new user with observed ratings ``r`` on items ``X`` has the same
conditional Gaussian as any training user,

.. math::

    U_u \\mid \\cdot \\sim \\mathcal{N}\\big(\\Lambda_*^{-1} m_*,
    \\Lambda_*^{-1}\\big), \\quad
    \\Lambda_* = \\Lambda_U + \\alpha X^\\top X, \\quad
    m_* = \\Lambda_U \\mu_U + \\alpha X^\\top r,

evaluated against the *fixed* posterior item factors — the PMF-style
fold-in.  Rather than reimplementing that linear algebra, this module
builds a one-phase :class:`~repro.sparse.csr.CompressedAxis` over the new
users' ratings and pushes it through the batched engine
(:class:`~repro.core.batch_engine.BatchedUpdateEngine`): every regime's
draw is ``mean + J z``, so with zero noise it *is* the posterior mean
(low-degree users take the data-space rank-one kernel), and with real
noise it is a posterior sample.  Folding in a thousand cold-start users
therefore costs one stacked pass per distinct degree.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch_engine import UpdateEngine, make_update_engine
from repro.core.priors import GaussianPrior
from repro.core.updates import conditional_distribution
from repro.sparse.csr import CompressedAxis
from repro.utils.validation import ValidationError, check_positive

__all__ = ["fold_in_users", "fold_in_user", "fold_in_posterior",
           "FoldInState", "FoldInRegistry"]


class FoldInState:
    """Incremental conditional-posterior state for one folded-in user.

    Keeps the Gaussian sufficient statistics ``Lambda = Lambda_0 +
    alpha X^T X`` and ``b = Lambda_0 mu_0 + alpha X^T r`` alongside the raw
    rating history.  A user rating ``k`` new items then costs one rank-``k``
    statistic update plus a single ``K x K`` solve
    (:meth:`update`) — no re-fold over their full history.  The raw
    history is retained so a snapshot hot-swap can rebuild the statistics
    against *new* item factors (:meth:`refreshed`), which is the only
    operation that must start over.

    The posterior-mean row produced here matches a full re-fold of the
    same history up to floating-point summation order; the serving-cluster
    parity tests pin the service and the sharded gateway to this one
    implementation so their rows agree bit-for-bit.
    """

    def __init__(self, prior: GaussianPrior, alpha: float):
        check_positive("alpha", alpha)
        self.prior = prior
        self.alpha = float(alpha)
        k = prior.num_latent
        self.precision = prior.precision.copy()
        self.linear = prior.precision @ prior.mean
        self.items = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=np.float64)
        self._row = np.linalg.solve(self.precision, self.linear)
        assert self._row.shape == (k,)

    @property
    def n_ratings(self) -> int:
        return int(self.items.shape[0])

    def row(self) -> np.ndarray:
        """The current posterior-mean factor row (a defensive copy)."""
        return self._row.copy()

    def update(self, item_rows: np.ndarray, items: np.ndarray,
               values: np.ndarray) -> np.ndarray:
        """Absorb ``k`` new ratings; returns the updated factor row.

        ``item_rows`` are the ``(k, K)`` factor rows of the newly rated
        items (the caller gathers them from its item block).
        """
        item_rows = np.asarray(item_rows, dtype=np.float64)
        items = np.asarray(items, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if item_rows.shape != (items.shape[0], self.prior.num_latent):
            raise ValidationError(
                f"item_rows must be ({items.shape[0]}, "
                f"{self.prior.num_latent}), got {item_rows.shape}")
        if items.shape != values.shape:
            raise ValidationError("items and values must align")
        self.precision += self.alpha * (item_rows.T @ item_rows)
        self.linear += self.alpha * (item_rows.T @ values)
        self.items = np.concatenate([self.items, items])
        self.values = np.concatenate([self.values, values])
        self._row = np.linalg.solve(self.precision, self.linear)
        return self.row()

    def refreshed(self, item_factors: np.ndarray, prior: GaussianPrior,
                  alpha: float) -> "FoldInState":
        """Rebuild against a new snapshot's item factors, prior and
        ``alpha`` (after a hot swap).

        The rating history carries over; the statistics are recomputed
        from scratch because ``X`` and the prior changed under them.
        """
        rebuilt = FoldInState(prior, alpha)
        if self.n_ratings:
            rebuilt.update(np.asarray(item_factors,
                                      dtype=np.float64)[self.items],
                           self.items, self.values)
        return rebuilt


#: Maps rated item ids to their ``(k, K)`` factor rows (the service
#: indexes its item block).
ItemRowsFor = Callable[[np.ndarray], np.ndarray]


class FoldInRegistry:
    """Per-user incremental fold-in bookkeeping of a
    :class:`~repro.serving.service.PredictionService` (the sharded
    gateway inherits it, so both produce *bit-identical* factor rows for
    the same fold-in history).  The service fetches item rows through the
    ``item_rows_for`` callable and stores the resulting row.
    """

    def __init__(self, prior: GaussianPrior, alpha: float):
        self.prior = prior
        self.alpha = float(alpha)
        self.states: Dict[int, FoldInState] = {}

    def register(self, first_id: int, item_lists: Sequence[np.ndarray],
                 value_lists: Sequence[np.ndarray],
                 item_rows_for: ItemRowsFor) -> None:
        """Create incremental state for users just folded in as
        ``first_id, first_id + 1, ...`` (values already offset-removed)."""
        for offset, (items, values) in enumerate(zip(item_lists,
                                                     value_lists)):
            state = FoldInState(self.prior, self.alpha)
            if items.size:
                state.update(item_rows_for(items), items, values)
            self.states[first_id + offset] = state

    def update(self, user: int, n_train_users: int, n_users: int,
               items: np.ndarray, values: np.ndarray,
               item_rows_for: ItemRowsFor) -> np.ndarray:
        """Validate ``user`` is folded-in and apply the rank-k update.

        ``item_rows_for`` runs only after validation, so an invalid id
        costs no item-row fetch.
        """
        if not n_train_users <= user < n_users:
            raise ValidationError(
                f"add_ratings only applies to folded-in users "
                f"[{n_train_users}, {n_users}), got {user}")
        return self.states[user].update(item_rows_for(items), items, values)

    def refreshed(self, item_factors: np.ndarray, prior: GaussianPrior,
                  alpha: float) -> "FoldInRegistry":
        """A new registry rebuilt against a new snapshot's item factors,
        prior and ``alpha`` (hot swap)."""
        fresh = FoldInRegistry(prior, alpha)
        fresh.states = {user: state.refreshed(item_factors, prior, alpha)
                        for user, state in sorted(self.states.items())}
        return fresh

    def digest(self) -> str:
        """A hex digest of every user's incremental state, bit-exact.

        Two registries that absorbed the same mutation history digest
        identically; any float-level drift in a precision matrix or a
        rating history changes it.  Part of the fleet convergence check
        (:meth:`PredictionService.state_digest`).
        """
        payload = hashlib.sha256()
        for user in sorted(self.states):
            state = self.states[user]
            payload.update(str(user).encode("ascii"))
            payload.update(np.ascontiguousarray(state.items).tobytes())
            payload.update(np.ascontiguousarray(state.values).tobytes())
            payload.update(np.ascontiguousarray(state.precision).tobytes())
            payload.update(np.ascontiguousarray(state.linear).tobytes())
        return payload.hexdigest()


def _ragged_axis(item_lists: Sequence[np.ndarray],
                 value_lists: Sequence[np.ndarray],
                 n_items: int) -> CompressedAxis:
    """Compress per-user ragged rating lists into one phase axis."""
    if len(item_lists) != len(value_lists):
        raise ValidationError("item_lists and value_lists must align")
    indices = [np.asarray(items, dtype=np.int64).ravel()
               for items in item_lists]
    values = [np.asarray(vals, dtype=np.float64).ravel()
              for vals in value_lists]
    for user, (idx, val) in enumerate(zip(indices, values)):
        if idx.shape != val.shape:
            raise ValidationError(
                f"fold-in user {user}: {idx.shape[0]} items but "
                f"{val.shape[0]} values")
        if idx.size and (idx.min() < 0 or idx.max() >= n_items):
            raise ValidationError(
                f"fold-in user {user}: item index outside [0, {n_items})")
    lengths = np.array([idx.shape[0] for idx in indices], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return CompressedAxis(
        indptr=indptr,
        indices=(np.concatenate(indices) if indices
                 else np.empty(0, dtype=np.int64)),
        values=(np.concatenate(values) if values
                else np.empty(0, dtype=np.float64)),
    )


def fold_in_users(
    item_factors: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    item_lists: Sequence[np.ndarray],
    value_lists: Sequence[np.ndarray],
    noise: Optional[np.ndarray] = None,
    engine: Optional[Union[str, UpdateEngine]] = None,
) -> np.ndarray:
    """Posterior factor rows for a batch of unseen users.

    Parameters
    ----------
    item_factors:
        ``(n_items, K)`` posterior item factors (a snapshot's mean factors
        or the last Gibbs sample).
    prior:
        The user-class Gaussian prior ``(mu_U, Lambda_U)`` from the same
        snapshot.
    alpha:
        Observation precision the chain was trained with.
    item_lists, value_lists:
        Per-user ragged arrays of rated item indices and rating values
        (already on the training scale, i.e. with any offset removed).
        A user with no ratings folds in to the prior mean.
    noise:
        Optional ``(n_new, K)`` standard-normal rows.  Default (``None``)
        uses zeros, which makes every returned row the exact conditional
        posterior *mean*; pass real noise to draw posterior *samples*
        instead.
    engine:
        Execution strategy: an engine registry name or a pre-built
        :class:`~repro.core.batch_engine.UpdateEngine`.  Default
        ``"batched"``.  An engine built here from a name is closed before
        returning (so ``engine="shared"`` cannot leak worker processes);
        pass a caller-owned instance instead to amortise one shared pool
        across many fold-in calls — the caller then closes it.  The
        zero-noise posterior-mean semantics hold for every engine.

    Returns
    -------
    ``(n_new, K)`` factor rows, one per folded-in user.
    """
    check_positive("alpha", alpha)
    owns_engine = False
    if engine is None:
        engine = "batched"
    if isinstance(engine, str):
        engine = make_update_engine(engine)
        owns_engine = True
    elif not isinstance(engine, UpdateEngine):
        raise ValidationError(
            f"engine must be a registry name or an UpdateEngine, "
            f"got {type(engine).__name__}")
    item_factors = np.asarray(item_factors, dtype=np.float64)
    if item_factors.ndim != 2:
        raise ValidationError("item_factors must be 2-D (n_items x K)")
    k = prior.num_latent
    if item_factors.shape[1] != k:
        raise ValidationError(
            f"item_factors have K={item_factors.shape[1]} but the prior "
            f"has K={k}")

    axis = _ragged_axis(item_lists, value_lists, item_factors.shape[0])
    n_new = axis.n
    if noise is None:
        noise = np.zeros((n_new, k))
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (n_new, k):
            raise ValidationError(
                f"noise must have shape ({n_new}, {k}), got {noise.shape}")

    target = np.zeros((n_new, k))
    try:
        engine.update_items(target, item_factors, axis, prior, alpha, noise)
    finally:
        if owns_engine:
            engine.close()
    return target


def fold_in_user(
    item_factors: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    items: np.ndarray,
    values: np.ndarray,
    noise: Optional[np.ndarray] = None,
    engine: Optional[Union[str, UpdateEngine]] = None,
) -> np.ndarray:
    """Posterior factor row for one unseen user (see :func:`fold_in_users`)."""
    noise_rows = None if noise is None else np.asarray(noise)[None, :]
    return fold_in_users(item_factors, prior, alpha, [items], [values],
                         noise=noise_rows, engine=engine)[0]


def fold_in_posterior(
    item_factors: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    items: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Full conditional posterior ``(mean, chol_precision)`` for one user.

    For callers that need the posterior *uncertainty* (e.g. exploration
    bonuses), not just a point estimate.  ``chol_precision`` is the lower
    Cholesky factor of ``Lambda_* = Lambda + alpha X^T X``.
    """
    item_factors = np.asarray(item_factors, dtype=np.float64)
    items = np.asarray(items, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if items.shape != values.shape:
        raise ValidationError("items and values must align")
    if items.size and (items.min() < 0 or items.max() >= item_factors.shape[0]):
        raise ValidationError(
            f"item index outside [0, {item_factors.shape[0]})")
    return conditional_distribution(item_factors[items], values, prior, alpha)
