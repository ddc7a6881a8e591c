"""Cold-start fold-in: conditional posteriors for users unseen at training.

A new user with observed ratings ``r`` on items ``X`` has the same
conditional Gaussian as any training user,

.. math::

    U_u \\mid \\cdot \\sim \\mathcal{N}\\big(\\Lambda_*^{-1} m_*,
    \\Lambda_*^{-1}\\big), \\quad
    \\Lambda_* = \\Lambda_U + \\alpha X^\\top X, \\quad
    m_* = \\Lambda_U \\mu_U + \\alpha X^\\top r,

evaluated against the *fixed* posterior item factors — the PMF-style
fold-in.  The served row is the posterior mean ``Lambda_*^-1 m_*``.
:class:`FoldInState` is its one source: it adds the statistics one
rating at a time, in history order, and solves once per call, so a row
depends only on the snapshot and the rating sequence — not on how the
sequence was split between ``fold_in`` and ``add_ratings`` calls, and
not on whether it was re-folded after a hot swap.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from repro.core.priors import GaussianPrior
from repro.utils.validation import ValidationError, check_positive

__all__ = ["FoldInState", "FoldInRegistry"]


class FoldInState:
    """Incremental conditional-posterior state for one folded-in user.

    Keeps the Gaussian sufficient statistics ``Lambda = Lambda_0 +
    alpha X^T X`` and ``b = Lambda_0 mu_0 + alpha X^T r`` alongside the raw
    rating history.  A user rating ``k`` new items then costs ``k``
    rank-one statistic updates plus a single ``K x K`` solve
    (:meth:`update`) — no re-fold over their full history.  The raw
    history is retained so a snapshot hot-swap can rebuild the statistics
    against *new* item factors (:meth:`refreshed`), which is the only
    operation that must start over.

    Each rating's term is added on its own, in history order, so the
    statistics (and the row) are bit-identical however the history was
    split into calls.
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
        for row, value in zip(item_rows, values):
            self.precision += self.alpha * np.outer(row, row)
            self.linear += self.alpha * (row * value)
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
        rebuilt.update(np.asarray(item_factors, dtype=np.float64)[self.items],
                       self.items, self.values)
        return rebuilt


class FoldInRegistry:
    """Per-user incremental fold-in bookkeeping of a
    :class:`~repro.serving.service.PredictionService` (the sharded
    gateway inherits it, so both produce *bit-identical* factor rows for
    the same fold-in history).  The service gathers the rated items'
    factor rows from its item block and stores the resulting row.
    """

    def __init__(self, prior: GaussianPrior, alpha: float):
        self.prior = prior
        self.alpha = float(alpha)
        self.states: Dict[int, FoldInState] = {}

    def fold_in(self, user: int, item_rows: np.ndarray, items: np.ndarray,
                values: np.ndarray) -> np.ndarray:
        """Create the state of a user folded in as ``user`` from their
        first ratings (values already offset-removed); returns the row.

        Nothing is registered when the ratings are refused.
        """
        state = FoldInState(self.prior, self.alpha)
        row = state.update(item_rows, items, values)
        self.states[user] = state
        return row

    def update(self, user: int, item_rows: np.ndarray, items: np.ndarray,
               values: np.ndarray) -> np.ndarray:
        """Absorb a folded-in user's new ratings; returns their row."""
        return self.states[user].update(item_rows, items, values)

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
