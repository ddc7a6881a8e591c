"""Alternating least squares (ALS) matrix factorization.

Implements the weighted-lambda-regularised ALS of Zhou et al. ("Large-scale
Parallel Collaborative Filtering for the Netflix Prize", AAIM 2008), the
first baseline algorithm the paper cites.  Each half-iteration solves, per
item, the ridge-regression normal equations

.. math::

    U_u = (V_{R(u)}^\\top V_{R(u)} + \\lambda n_u I)^{-1} V_{R(u)}^\\top r_u

which is the same K x K linear-algebra kernel as BPMF's conditional update
minus the sampling — making ALS a natural cost reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.metrics import rmse
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["ALSConfig", "ALSResult", "run_als"]


@dataclass(frozen=True)
class ALSConfig:
    """ALS hyperparameters.

    ``regularization`` is the lambda of weighted-lambda regularisation; it
    must be tuned per dataset — exactly the cross-validation burden the
    Bayesian treatment in BPMF removes.
    """

    num_latent: int = 16
    n_iterations: int = 20
    regularization: float = 0.1
    init_std: float = 0.3
    weighted_regularization: bool = True

    def __post_init__(self):
        check_positive("num_latent", self.num_latent)
        check_positive("n_iterations", self.n_iterations)
        check_non_negative("regularization", self.regularization)
        check_positive("init_std", self.init_std)


@dataclass
class ALSResult:
    """Fitted factors and the per-iteration RMSE traces."""

    config: ALSConfig
    user_factors: np.ndarray
    movie_factors: np.ndarray
    train_rmse: List[float] = field(default_factory=list)
    test_rmse: List[float] = field(default_factory=list)

    @property
    def final_rmse(self) -> float:
        """Test RMSE after the last iteration (train RMSE if no test set)."""
        trace = self.test_rmse or self.train_rmse
        return trace[-1]

    def predict(self, users: np.ndarray, movies: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        movies = np.asarray(movies, dtype=np.int64)
        return np.einsum("ij,ij->i", self.user_factors[users],
                         self.movie_factors[movies])


def _solve_side(target_factors: np.ndarray, source_factors: np.ndarray,
                ratings_axis, config: ALSConfig) -> None:
    """Solve the normal equations for every item of one side, in place."""
    from scipy.linalg import cho_factor, cho_solve

    k = config.num_latent
    eye = np.eye(k)
    for item in range(target_factors.shape[0]):
        idx, values = ratings_axis.slice(item)
        n = idx.shape[0]
        if n == 0:
            target_factors[item] = 0.0
            continue
        neighbours = source_factors[idx]
        reg = config.regularization * (n if config.weighted_regularization else 1.0)
        gram = neighbours.T @ neighbours + reg * eye
        rhs = neighbours.T @ values
        chol = cho_factor(gram, lower=True)
        target_factors[item] = cho_solve(chol, rhs)


def run_als(train: RatingMatrix, split: Optional[RatingSplit] = None,
            config: Optional[ALSConfig] = None, seed: SeedLike = 0,
            **overrides) -> ALSResult:
    """Fit ALS on a rating matrix and trace train/test RMSE per iteration."""
    if config is None:
        config = ALSConfig(**overrides)
    elif overrides:
        config = ALSConfig(**{**config.__dict__, **overrides})

    rng = as_generator(seed)
    k = config.num_latent
    user_factors = rng.normal(0.0, config.init_std, size=(train.n_users, k))
    movie_factors = rng.normal(0.0, config.init_std, size=(train.n_movies, k))

    train_users, train_movies, train_values = train.triplets()
    if split is not None and split.n_test > 0:
        test_users, test_movies, test_values = split.test_triplets()
    else:
        test_users = test_movies = test_values = None

    result = ALSResult(config=config, user_factors=user_factors,
                       movie_factors=movie_factors)
    for _ in range(config.n_iterations):
        _solve_side(movie_factors, user_factors, train.by_movie, config)
        _solve_side(user_factors, movie_factors, train.by_user, config)
        predicted_train = np.einsum("ij,ij->i", user_factors[train_users],
                                    movie_factors[train_movies])
        result.train_rmse.append(rmse(predicted_train, train_values))
        if test_values is not None:
            predicted_test = np.einsum("ij,ij->i", user_factors[test_users],
                                       movie_factors[test_movies])
            result.test_rmse.append(rmse(predicted_test, test_values))
    return result
