"""Compressed sparse rating matrix with both row (user) and column (movie) views.

The Gibbs sampler updates users from the movies they rated and movies from
the users that rated them, so :class:`RatingMatrix` keeps the same data
compressed along *both* axes.  The per-axis structure is
:class:`CompressedAxis`, a classic ``indptr``/``indices``/``values`` layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.utils.validation import ValidationError

__all__ = ["CompressedAxis", "RatingMatrix"]


@dataclass(frozen=True)
class CompressedAxis:
    """One compressed axis (CSR if the axis is rows, CSC if columns).

    ``indptr`` has length ``n + 1``; entry ``i`` of the axis owns the slice
    ``indices[indptr[i]:indptr[i+1]]`` (the other-axis indices it touches)
    and the matching ``values`` slice.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    #: Bucket plans of this axis keyed by the planned items' bytes
    #: (:func:`repro.sparse.buckets.cached_bucket_plan`).
    plan_memo: Dict[Optional[bytes], object] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.indptr.ndim != 1 or self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValidationError("CompressedAxis arrays must be one-dimensional")
        if self.indptr.shape[0] < 1:
            raise ValidationError(
                "indptr must have at least one entry (length n + 1)")
        if self.indices.shape != self.values.shape:
            raise ValidationError("indices and values must have the same length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValidationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")

    @property
    def n(self) -> int:
        """Number of entries along this axis."""
        return int(self.indptr.shape[0] - 1)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def degree(self, i: int) -> int:
        """Number of stored entries for axis element ``i``."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        """Vector of per-element entry counts."""
        return np.diff(self.indptr)

    def slice(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(other_axis_indices, values)`` views for element ``i``."""
        start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[start:stop], self.values[start:stop]

    def iter_nonempty(self) -> Iterator[int]:
        """Indices of axis elements with at least one stored entry."""
        degs = self.degrees()
        return iter(np.nonzero(degs > 0)[0])


def _compress(major: np.ndarray, minor: np.ndarray, values: np.ndarray,
              n_major: int) -> CompressedAxis:
    """Compress triplets along ``major`` (counting sort; O(nnz))."""
    order = np.argsort(major, kind="stable")
    major_sorted = major[order]
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.add.at(indptr, major_sorted + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CompressedAxis(
        indptr=indptr,
        indices=minor[order].copy(),
        values=values[order].copy(),
    )


class RatingMatrix:
    """Immutable sparse rating matrix with user-major and movie-major views.

    Construct with :meth:`from_coo` (the normal path) or :meth:`from_arrays`.
    Rows are "users", columns are "movies" in the paper's terminology; for
    the ChEMBL benchmark rows are compounds and columns are protein targets.
    """

    def __init__(self, n_users: int, n_movies: int,
                 by_user: CompressedAxis, by_movie: CompressedAxis):
        if by_user.n != n_users:
            raise ValidationError(
                f"user axis has {by_user.n} entries, expected {n_users}")
        if by_movie.n != n_movies:
            raise ValidationError(
                f"movie axis has {by_movie.n} entries, expected {n_movies}")
        if by_user.nnz != by_movie.nnz:
            raise ValidationError("user and movie views disagree on nnz")
        self._n_users = n_users
        self._n_movies = n_movies
        self._by_user = by_user
        self._by_movie = by_movie

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_coo(cls, coo: CooMatrix, deduplicate: bool = True) -> "RatingMatrix":
        """Build both compressed views from a COO matrix."""
        coo.validate()
        if deduplicate:
            coo = coo.deduplicate()
        by_user = _compress(coo.rows, coo.cols, coo.values, coo.n_rows)
        by_movie = _compress(coo.cols, coo.rows, coo.values, coo.n_cols)
        return cls(coo.n_rows, coo.n_cols, by_user, by_movie)

    @classmethod
    def from_arrays(cls, n_users: int, n_movies: int,
                    users: np.ndarray, movies: np.ndarray,
                    ratings: np.ndarray) -> "RatingMatrix":
        """Build from parallel index/value arrays."""
        coo = CooMatrix.from_arrays(n_users, n_movies, users, movies, ratings)
        return cls.from_coo(coo)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "RatingMatrix":
        """Build from a dense array; ``nan`` cells are treated as unobserved."""
        dense = np.asarray(dense, dtype=np.float64)
        mask = ~np.isnan(dense)
        rows, cols = np.nonzero(mask)
        return cls.from_arrays(dense.shape[0], dense.shape[1],
                               rows, cols, dense[rows, cols])

    # -- basic properties -------------------------------------------------

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def n_movies(self) -> int:
        return self._n_movies

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n_users, self._n_movies)

    @property
    def nnz(self) -> int:
        return self._by_user.nnz

    @property
    def density(self) -> float:
        return self.nnz / float(self._n_users * self._n_movies)

    @property
    def by_user(self) -> CompressedAxis:
        """CSR view: for each user, the movies they rated."""
        return self._by_user

    @property
    def by_movie(self) -> CompressedAxis:
        """CSC view: for each movie, the users that rated it."""
        return self._by_movie

    # -- element access ---------------------------------------------------

    def user_ratings(self, user: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(movie_indices, values)`` rated by ``user``."""
        return self._by_user.slice(user)

    def movie_ratings(self, movie: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(user_indices, values)`` that rated ``movie``."""
        return self._by_movie.slice(movie)

    def user_degrees(self) -> np.ndarray:
        """Ratings per user."""
        return self._by_user.degrees()

    def movie_degrees(self) -> np.ndarray:
        """Ratings per movie."""
        return self._by_movie.degrees()

    def triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(users, movies, values)`` arrays in user-major order."""
        users = np.repeat(np.arange(self._n_users, dtype=np.int64),
                          self._by_user.degrees())
        return users, self._by_user.indices.copy(), self._by_user.values.copy()

    def mean_rating(self) -> float:
        """Global mean of observed ratings (0.0 for an empty matrix)."""
        if self.nnz == 0:
            return 0.0
        return float(self._by_user.values.mean())

    def to_coo(self) -> CooMatrix:
        users, movies, values = self.triplets()
        return CooMatrix.from_arrays(self._n_users, self._n_movies,
                                     users, movies, values)

    def to_dense(self) -> np.ndarray:
        """Dense array with ``nan`` for unobserved cells (small matrices only)."""
        return self.to_coo().to_dense()

    def to_scipy_csr(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (for interoperability)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self._by_user.values, self._by_user.indices, self._by_user.indptr),
            shape=self.shape,
        )

    # -- transformations --------------------------------------------------

    def transpose(self) -> "RatingMatrix":
        """Swap the user and movie axes (views are shared, not copied)."""
        return RatingMatrix(self._n_movies, self._n_users,
                            self._by_movie, self._by_user)

    def permute(self, user_perm: np.ndarray | None = None,
                movie_perm: np.ndarray | None = None) -> "RatingMatrix":
        """Relabel users and/or movies.

        ``user_perm[i]`` gives the *new* index of old user ``i`` (and
        similarly for movies); this is the operation the distributed
        partitioner uses to make partitions contiguous in ``R``.
        """
        users, movies, values = self.triplets()
        if user_perm is not None:
            user_perm = np.asarray(user_perm, dtype=np.int64)
            _check_permutation(user_perm, self._n_users, "user_perm")
            users = user_perm[users]
        if movie_perm is not None:
            movie_perm = np.asarray(movie_perm, dtype=np.int64)
            _check_permutation(movie_perm, self._n_movies, "movie_perm")
            movies = movie_perm[movies]
        return RatingMatrix.from_arrays(self._n_users, self._n_movies,
                                        users, movies, values)

    def select_users(self, users: np.ndarray) -> "RatingMatrix":
        """Restrict to a subset of users, keeping original movie indexing.

        The returned matrix has ``len(users)`` rows in the order given.
        """
        users = np.asarray(users, dtype=np.int64)
        rows = []
        cols = []
        vals = []
        for new_index, user in enumerate(users):
            movie_idx, values = self.user_ratings(int(user))
            rows.append(np.full(movie_idx.shape[0], new_index, dtype=np.int64))
            cols.append(movie_idx)
            vals.append(values)
        if rows:
            rows_arr = np.concatenate(rows)
            cols_arr = np.concatenate(cols)
            vals_arr = np.concatenate(vals)
        else:
            rows_arr = cols_arr = np.empty(0, dtype=np.int64)
            vals_arr = np.empty(0, dtype=np.float64)
        return RatingMatrix.from_arrays(len(users), self._n_movies,
                                        rows_arr, cols_arr, vals_arr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RatingMatrix(n_users={self._n_users}, n_movies={self._n_movies}, "
                f"nnz={self.nnz}, density={self.density:.2e})")


def _check_permutation(perm: np.ndarray, n: int, name: str) -> None:
    if perm.shape != (n,):
        raise ValidationError(f"{name} must have length {n}, got {perm.shape}")
    seen = np.zeros(n, dtype=bool)
    if perm.min() < 0 or perm.max() >= n:
        raise ValidationError(f"{name} contains out-of-range values")
    seen[perm] = True
    if not seen.all():
        raise ValidationError(f"{name} is not a permutation (missing targets)")
