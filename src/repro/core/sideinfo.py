"""Side-information extension (Macau-style linear feature links).

The paper highlights that BPMF "easily incorporates confidence intervals
and side-information [5], [6]" — reference [6] being Macau (Simm et al.),
the follow-up model from the same group in which entity features (compound
fingerprints, movie genres, …) shift the prior mean of each entity's latent
factor through a learned link matrix:

.. math::

    U_i \\sim \\mathcal{N}(\\mu_U + B_U^\\top x_i, \\Lambda_U^{-1}),
    \\qquad B_U \\in \\mathbb{R}^{F \\times K}

with a Gaussian prior on the link matrix.  This module implements that
extension on top of the existing Gibbs machinery:

* :func:`sample_link_matrix` — the matrix-normal conditional draw of the
  link matrix given the factors, the prior mean/precision and the features;
* :class:`MacauGibbsSampler` — a drop-in sampler that accepts optional
  per-entity feature matrices and falls back to plain BPMF behaviour for
  entity classes without features.

The practical pay-off reproduced in the tests: items with *no ratings at
all* (cold start) are predicted from their features instead of from the
global prior alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig, GaussianPrior
from repro.core.state import BPMFState
from repro.core.updates import sample_item
from repro.core.wishart import sample_hyperparameters
from repro.sparse.csr import RatingMatrix
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_positive

__all__ = ["SideInfo", "sample_link_matrix", "MacauGibbsSampler"]


@dataclass
class SideInfo:
    """Feature matrix for one entity class plus the link-matrix prior strength.

    Parameters
    ----------
    features:
        ``(n_entities, n_features)`` array; rows are per-entity feature
        vectors (standardising them to zero mean / unit variance is the
        caller's responsibility and usually a good idea).
    lambda_link:
        Precision of the zero-mean Gaussian prior on the link matrix
        entries (larger values shrink the feature effect towards zero).
    """

    features: np.ndarray
    lambda_link: float = 5.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValidationError("side-information features must be 2-D")
        check_positive("lambda_link", self.lambda_link)

    @property
    def n_entities(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])


def sample_link_matrix(
    factors: np.ndarray,
    prior_mean: np.ndarray,
    precision: np.ndarray,
    side: SideInfo,
    rng: SeedLike = None,
) -> np.ndarray:
    """Draw the link matrix ``B`` from its matrix-normal conditional.

    With centred factors ``Z = U - mu`` and features ``X``, the model is
    ``Z = X B + E`` with row noise ``N(0, Lambda^{-1})`` and prior
    ``B_{fk} ~ N(0, lambda_link^{-1})``.  The conditional is

    ``B | Z ~ MatrixNormal(M, (X^T X + lambda_link I)^{-1}, Lambda^{-1})``
    with ``M = (X^T X + lambda_link I)^{-1} X^T Z``.
    """
    from scipy.linalg import cho_solve, solve_triangular

    rng = as_generator(rng)
    factors = np.asarray(factors, dtype=np.float64)
    n, k = factors.shape
    if side.n_entities != n:
        raise ValidationError(
            f"features have {side.n_entities} rows but there are {n} factors")

    features = side.features
    centred = factors - prior_mean
    row_precision = features.T @ features + side.lambda_link * np.eye(side.n_features)
    row_chol = np.linalg.cholesky(row_precision)
    mean = cho_solve((row_chol, True), features.T @ centred)

    # Row covariance factor: A A^T = (X^T X + lambda I)^{-1}  =>  A = L^{-T}.
    row_factor = solve_triangular(row_chol.T, np.eye(side.n_features), lower=False)
    # Column side: the perturbation rows need covariance Lambda^{-1}, i.e. a
    # right-multiplier R with R^T R = Lambda^{-1}, which is R = Lc^{-1} for
    # the lower Cholesky factor Lc of Lambda.
    col_chol = np.linalg.cholesky(precision)
    gaussian = rng.standard_normal((side.n_features, k))
    perturbation = row_factor @ gaussian
    perturbation = solve_triangular(col_chol.T, perturbation.T, lower=False).T
    return mean + perturbation


class MacauGibbsSampler(GibbsSampler):
    """BPMF with optional Macau-style side information per entity class.

    Entity classes without features behave exactly as in plain BPMF (and the
    sampler is bit-for-bit identical to :class:`GibbsSampler` when neither
    side is given features and the same seed is used).
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: SamplerOptions | None = None,
                 user_side: Optional[SideInfo] = None,
                 movie_side: Optional[SideInfo] = None):
        super().__init__(config, options)
        self.user_side = user_side
        self.movie_side = movie_side
        self.user_link: Optional[np.ndarray] = None
        self.movie_link: Optional[np.ndarray] = None

    # -- helpers -----------------------------------------------------------

    def _check_sides(self, ratings: RatingMatrix) -> None:
        if self.user_side is not None and self.user_side.n_entities != ratings.n_users:
            raise ValidationError("user side information does not match n_users")
        if (self.movie_side is not None
                and self.movie_side.n_entities != ratings.n_movies):
            raise ValidationError("movie side information does not match n_movies")

    def _phase(self, state: BPMFState, ratings: RatingMatrix, entity: str,
               rng: np.random.Generator) -> None:
        """Hyperparameters, link matrix and item updates for one entity class."""
        if entity == "movies":
            factors = state.movie_factors
            side = self.movie_side
            hyperprior = self.config.movie_hyperprior
            neighbours_of = ratings.movie_ratings
            source = state.user_factors
        else:
            factors = state.user_factors
            side = self.user_side
            hyperprior = self.config.user_hyperprior
            neighbours_of = ratings.user_ratings
            source = state.movie_factors

        link = None
        if side is not None:
            # Residual-based hyperparameter update, then the link-matrix draw.
            previous_link = (self.movie_link if entity == "movies" else self.user_link)
            residual = factors - side.features @ previous_link \
                if previous_link is not None else factors
            prior = sample_hyperparameters(residual, hyperprior, rng)
            link = sample_link_matrix(factors, prior.mean, prior.precision, side, rng)
            feature_means = prior.mean + side.features @ link
        else:
            prior = sample_hyperparameters(factors, hyperprior, rng)
            feature_means = None

        if entity == "movies":
            state.movie_prior = prior
            self.movie_link = link
        else:
            state.user_prior = prior
            self.user_link = link

        for item in range(factors.shape[0]):
            idx, values = neighbours_of(item)
            item_prior = prior if feature_means is None else GaussianPrior(
                mean=feature_means[item], precision=prior.precision)
            factors[item] = sample_item(
                source[idx], values, item_prior, self.config.alpha, rng=rng,
                policy=self.options.policy)

    # -- GibbsSampler interface --------------------------------------------

    def sweep(self, state: BPMFState, ratings: RatingMatrix,
              rng: np.random.Generator) -> int:
        self._check_sides(ratings)
        self._phase(state, ratings, "movies", rng)
        self._phase(state, ratings, "users", rng)
        state.iteration += 1
        self._last_state = state
        return ratings.n_movies + ratings.n_users

    # run() is GibbsSampler's chain loop, which calls this sweep.

    def cold_start_means(self, entity: str = "movies") -> np.ndarray:
        """Prior predictive factor means from features alone (cold start).

        Only meaningful after :meth:`run`; returns ``mu + X B`` for the
        requested entity class.
        """
        if entity == "movies":
            side, link, prior_attr = self.movie_side, self.movie_link, "movie_prior"
        else:
            side, link, prior_attr = self.user_side, self.user_link, "user_prior"
        if side is None or link is None:
            raise ValidationError(
                f"no side information / fitted link matrix for {entity}")
        if self._last_state is None:
            raise ValidationError("cold_start_means requires a completed run")
        prior = getattr(self._last_state, prior_attr)
        return prior.mean + side.features @ link

    _last_state: Optional[BPMFState] = None
