"""Per-item conditional updates — the inner loops of Algorithm 1.

Updating one user ``u`` (symmetrically one movie) requires sampling from
its conditional Gaussian

.. math::

    U_u \\mid \\cdot \\sim \\mathcal{N}\\big(\\Lambda_*^{-1} m_*, \\Lambda_*^{-1}\\big),
    \\quad
    \\Lambda_* = \\Lambda_U + \\alpha \\sum_{j \\in R(u)} V_j V_j^\\top,
    \\quad
    m_* = \\Lambda_U \\mu_U + \\alpha \\sum_{j \\in R(u)} R_{uj} V_j .

The paper (Section III, Figure 2) considers three algorithms for this
``K x K`` problem and picks between them based on the item's rating count:

* **rank-one update** — for items with only a handful of ratings, never
  form the ``K x K`` precision: work in the ``d``-dimensional data space
  with the prior's Cholesky factor (shared by the whole class) and one
  ``d x d`` factor per item, a Woodbury square root whose ``d = 1`` case
  is Potter's rank-one update (:func:`sample_item_rank_one`);
* **serial Cholesky** — form the Gram matrix with one BLAS ``syrk``-style
  product and factorise once; wins for moderately rated items;
* **parallel Cholesky** — split the Gram accumulation into blocks that can
  be computed by several workers, then factorise; wins for the very heavy
  items (>= ~1000 ratings), and — crucially for load balance — turns one
  huge task into several smaller ones.

All three produce samples from exactly the same distribution, each an
affine map ``u(z) = mean + J z`` of one row of ``K`` standard normals with
``J J^T`` the conditional covariance.  The two Cholesky kernels share one
square root ``J``, so they agree to floating-point accuracy when fed the
same noise; the rank-one kernel takes another root, so tests compare its
mean and ``J J^T`` instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from repro.core.priors import GaussianPrior
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "UpdateMethod",
    "HybridUpdatePolicy",
    "cholesky_rank_one_update",
    "conditional_distribution",
    "sample_item_rank_one",
    "sample_item_serial_cholesky",
    "sample_item_parallel_cholesky",
    "sample_item",
]


class UpdateMethod(enum.Enum):
    """The three item-update algorithms compared in Figure 2."""

    RANK_ONE = "rank_one"
    SERIAL_CHOLESKY = "serial_cholesky"
    PARALLEL_CHOLESKY = "parallel_cholesky"


# ---------------------------------------------------------------------------
# low-level linear algebra
# ---------------------------------------------------------------------------

def cholesky_rank_one_update(chol: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Return the Cholesky factor of ``L L^T + v v^T`` given lower ``L``.

    Implements the classic Givens-rotation based update in O(K^2), the
    update the paper's low-degree kernel is named after.
    :func:`sample_item_rank_one` draws in data space instead, with no
    per-rating factor update.
    """
    chol = np.array(chol, dtype=np.float64, copy=True)
    vector = np.array(vector, dtype=np.float64, copy=True)
    k = vector.shape[0]
    if chol.shape != (k, k):
        raise ValidationError(f"chol must be ({k}, {k}), got {chol.shape}")
    for i in range(k):
        diag = chol[i, i]
        r = math.hypot(diag, vector[i])
        c = r / diag
        s = vector[i] / diag
        chol[i, i] = r
        if i + 1 < k:
            chol[i + 1:, i] = (chol[i + 1:, i] + s * vector[i + 1:]) / c
            vector[i + 1:] = c * vector[i + 1:] - s * chol[i + 1:, i]
    return chol


def _sample_from_chol_precision(mean: np.ndarray, chol_precision: np.ndarray,
                                noise: np.ndarray) -> np.ndarray:
    """Sample ``N(mean, (L L^T)^-1)`` given lower Cholesky ``L`` and z ~ N(0, I)."""
    return mean + solve_triangular(chol_precision.T, noise, lower=False)


def conditional_distribution(
    neighbour_factors: np.ndarray,
    ratings: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and precision Cholesky factor of one item's conditional Gaussian.

    Parameters
    ----------
    neighbour_factors:
        ``(n, K)`` factor rows of the rating partners (movies the user rated
        or users that rated the movie).
    ratings:
        The ``n`` observed rating values.
    prior:
        Current Gaussian prior ``(mu, Lambda)`` for this entity class.
    alpha:
        Observation precision.

    Returns
    -------
    ``(mean, chol_precision)`` with ``chol_precision`` lower triangular.
    """
    check_positive("alpha", alpha)
    neighbour_factors = np.asarray(neighbour_factors, dtype=np.float64)
    ratings = np.asarray(ratings, dtype=np.float64)
    if neighbour_factors.ndim != 2:
        raise ValidationError("neighbour_factors must be 2-D (n x K)")
    if ratings.shape[0] != neighbour_factors.shape[0]:
        raise ValidationError("ratings and neighbour_factors disagree on n")

    precision = prior.precision + alpha * (neighbour_factors.T @ neighbour_factors)
    rhs = prior.precision @ prior.mean + alpha * (neighbour_factors.T @ ratings)
    chol = np.linalg.cholesky(precision)
    mean = cho_solve((chol, True), rhs)
    return mean, chol


# ---------------------------------------------------------------------------
# the three update kernels
# ---------------------------------------------------------------------------

def sample_item_rank_one(
    neighbour_factors: np.ndarray,
    ratings: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    rng: SeedLike = None,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample one low-degree item's factor in data space.

    With ``Lambda = L L^T`` (the prior's factor, shared by every item of
    the class), ``W = X L^-T`` (``d x K`` for ``d`` ratings) and the noise
    row ``z``::

        c = L^T mu + alpha W^T r        G = W W^T + I/alpha = C C^T  (d x d)
        u = L^-T [ c - W^T G^-1 W c  +  z - W^T C^-T (C + alpha^-1/2 I)^-1 W z ]

    By Woodbury, ``u(0)`` is the conditional mean ``P^-1 (Lambda mu +
    alpha X^T r)`` with ``P = Lambda + alpha X^T X``, and the map from
    ``z`` has ``J J^T = P^-1``, so ``u`` is an exact draw from the same
    conditional as the Cholesky kernels, through another square root.  It
    uses the same ``K`` normals and only a ``d x d`` factor per item,
    which is why it wins for low-degree items; for ``d = 1`` the root is
    Potter's square-root rank-one update.
    """
    neighbour_factors = np.asarray(neighbour_factors, dtype=np.float64)
    ratings = np.asarray(ratings, dtype=np.float64)
    rng = as_generator(rng)
    if noise is None:
        noise = rng.standard_normal(prior.num_latent)
    chol = np.linalg.cholesky(prior.precision)
    c = chol.T @ prior.mean
    x = c + noise
    if neighbour_factors.shape[0]:
        white = solve_triangular(chol, neighbour_factors.T, lower=True).T
        c = c + alpha * (white.T @ ratings)
        eye = np.eye(white.shape[0])
        gram = np.linalg.cholesky(white @ white.T + eye / alpha)
        solved = solve_triangular(gram, white @ c, lower=True) \
            + solve_triangular(gram + eye / math.sqrt(alpha), white @ noise,
                               lower=True)
        x = c + noise - white.T @ solve_triangular(gram.T, solved,
                                                   lower=False)
    return solve_triangular(chol.T, x, lower=False)


def sample_item_serial_cholesky(
    neighbour_factors: np.ndarray,
    ratings: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    rng: SeedLike = None,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample one item's factor with a single Gram product + Cholesky solve."""
    rng = as_generator(rng)
    mean, chol = conditional_distribution(neighbour_factors, ratings, prior, alpha)
    if noise is None:
        noise = rng.standard_normal(prior.num_latent)
    return _sample_from_chol_precision(mean, chol, noise)


def sample_item_parallel_cholesky(
    neighbour_factors: np.ndarray,
    ratings: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    rng: SeedLike = None,
    noise: Optional[np.ndarray] = None,
    n_blocks: int = 4,
) -> np.ndarray:
    """Sample one item's factor with a block-decomposed Gram accumulation.

    The neighbour matrix is split into ``n_blocks`` row blocks whose partial
    Gram matrices / partial right-hand sides can be computed independently
    (by different cores in the C++ implementation; by the simulated machine
    in :mod:`repro.parallel`), then reduced and factorised.  Numerically the
    result is identical to the serial Cholesky method up to floating-point
    summation order.
    """
    check_positive("n_blocks", n_blocks)
    neighbour_factors = np.asarray(neighbour_factors, dtype=np.float64)
    ratings = np.asarray(ratings, dtype=np.float64)
    rng = as_generator(rng)
    k = prior.num_latent

    n = neighbour_factors.shape[0]
    precision = prior.precision.copy()
    rhs = prior.precision @ prior.mean
    if n:
        blocks = np.array_split(np.arange(n), min(n_blocks, n))
        for block in blocks:
            sub = neighbour_factors[block]
            precision += alpha * (sub.T @ sub)
            rhs += alpha * (sub.T @ ratings[block])
    chol = np.linalg.cholesky(precision)
    mean = cho_solve((chol, True), rhs)
    if noise is None:
        noise = rng.standard_normal(k)
    return _sample_from_chol_precision(mean, chol, noise)


# ---------------------------------------------------------------------------
# hybrid policy and dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridUpdatePolicy:
    """The paper's load-balancing rule for choosing an update algorithm.

    *"To ensure a good load balance, we use a cheaper but serial algorithm
    for items with less than 1000 ratings.  For items with more ratings, we
    use a parallel algorithm containing a full Cholesky decomposition."*

    Parameters
    ----------
    parallel_threshold:
        Rating count at or above which the parallel Cholesky is used
        (1000 in the paper).
    rank_one_threshold:
        Rating count below which the rank-one (data-space) update is
        cheaper than forming the Gram matrix; between the two thresholds
        the serial Cholesky is used.  ``None`` (default) takes the measured
        boundary :meth:`rank_one_limit` gives for the item's ``K``.
    block_grain:
        Target number of ratings per sub-task when a heavy item is split
        for parallel execution.
    """

    parallel_threshold: int = 1000
    rank_one_threshold: Optional[int] = None
    block_grain: int = 512

    def __post_init__(self):
        check_positive("parallel_threshold", self.parallel_threshold)
        if self.rank_one_threshold is not None:
            check_positive("rank_one_threshold", self.rank_one_threshold)
            if self.rank_one_threshold > self.parallel_threshold:
                raise ValidationError(
                    "rank_one_threshold must not exceed parallel_threshold")
        check_positive("block_grain", self.block_grain)

    def rank_one_limit(self, num_latent: Optional[int] = None) -> int:
        """Rating count below which the rank-one kernel is used.

        The default boundary is ``K // 2`` (at least 1): 8 at ``K = 16``,
        16 at ``K = 32``.  It was measured on the batched engine on one
        core, where the data-space kernel costs ``O(d K + d^2)`` per item
        in stacked BLAS products and elementwise steps, and the Gram path
        one ``(K+1) x (K+1)`` LAPACK factorisation per item.  Above the
        boundary the Gram path is faster on rank-sized buckets (~100 items
        per degree); below it the data-space kernel is, by up to 4x on
        large buckets.  The rule reads the degree and ``K`` only, never
        how many items share a bucket, so a rank's subset picks the same
        kernel as the full plan.
        """
        if self.rank_one_threshold is not None:
            return self.rank_one_threshold
        if num_latent is None:
            raise ValidationError(
                "the default rank-one boundary depends on num_latent (K)")
        check_positive("num_latent", num_latent)
        return min(max(1, num_latent // 2), self.parallel_threshold)

    def choose(self, n_ratings: int,
               num_latent: Optional[int] = None) -> UpdateMethod:
        """Pick the update algorithm for an item with ``n_ratings`` ratings
        and ``num_latent`` latent features."""
        if n_ratings >= self.parallel_threshold:
            return UpdateMethod.PARALLEL_CHOLESKY
        if n_ratings < self.rank_one_limit(num_latent):
            return UpdateMethod.RANK_ONE
        return UpdateMethod.SERIAL_CHOLESKY

    def n_subtasks(self, n_ratings: int) -> int:
        """Number of parallel sub-tasks a heavy item is split into."""
        if n_ratings < self.parallel_threshold:
            return 1
        return max(2, math.ceil(n_ratings / self.block_grain))


def sample_item(
    neighbour_factors: np.ndarray,
    ratings: np.ndarray,
    prior: GaussianPrior,
    alpha: float,
    rng: SeedLike = None,
    noise: Optional[np.ndarray] = None,
    method: UpdateMethod | None = None,
    policy: HybridUpdatePolicy | None = None,
) -> np.ndarray:
    """Sample one item's factor, dispatching on ``method`` or the hybrid policy.

    When neither ``method`` nor ``policy`` is given the hybrid policy with
    paper defaults is used.
    """
    n_ratings = int(np.asarray(ratings).shape[0])
    if method is None:
        policy = policy or HybridUpdatePolicy()
        method = policy.choose(n_ratings, prior.num_latent)
    if method is UpdateMethod.RANK_ONE:
        return sample_item_rank_one(neighbour_factors, ratings, prior, alpha,
                                    rng=rng, noise=noise)
    if method is UpdateMethod.SERIAL_CHOLESKY:
        return sample_item_serial_cholesky(neighbour_factors, ratings, prior,
                                           alpha, rng=rng, noise=noise)
    if method is UpdateMethod.PARALLEL_CHOLESKY:
        n_blocks = (policy or HybridUpdatePolicy()).n_subtasks(n_ratings)
        return sample_item_parallel_cholesky(neighbour_factors, ratings, prior,
                                             alpha, rng=rng, noise=noise,
                                             n_blocks=n_blocks)
    raise ValidationError(f"unknown update method: {method!r}")
