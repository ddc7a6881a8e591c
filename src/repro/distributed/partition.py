"""Workload-aware distribution of ``U`` and ``V`` across ranks.

Section IV-B of the paper: the matrices ``U`` and ``V`` are distributed
over the nodes; to minimise the items that must be exchanged the rows and
columns of ``R`` are reordered so each node owns a *contiguous region*, and
the split takes a workload model (fixed cost + cost per rating) into
account so every node receives a comparable amount of work rather than a
comparable number of items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.sparse.csr import RatingMatrix
from repro.sparse.reorder import balanced_block_order, bipartite_rcm
from repro.utils.validation import ValidationError, check_positive

__all__ = ["WorkloadModel", "Partition", "partition_ratings",
           "locality_ordering", "ordered_partition"]


@dataclass(frozen=True)
class WorkloadModel:
    """Fixed-plus-per-rating workload estimate for one item update.

    This is the model the paper derives from Figure 2 and feeds into the
    data distribution (Section IV-B): *"we approximate the workload per
    user/movie with fixed cost, plus a cost per movie rating"*, i.e.
    ``work(item) = fixed_cost + rating_cost * n_ratings``.  Units are
    arbitrary (relative work), which is all balancing needs.
    """

    fixed_cost: float = 1.0
    rating_cost: float = 0.02

    def __post_init__(self):
        check_positive("fixed_cost", self.fixed_cost)
        check_positive("rating_cost", self.rating_cost)

    def cost(self, n_ratings) -> np.ndarray | float:
        """Relative work for an item (scalar) or items (array) with given degree."""
        return self.fixed_cost + self.rating_cost * np.asarray(n_ratings, dtype=float)

    def total_cost(self, degrees: Iterable[int]) -> float:
        degrees = np.asarray(list(degrees) if not isinstance(degrees, np.ndarray)
                             else degrees, dtype=float)
        return float(np.sum(self.fixed_cost + self.rating_cost * degrees))


@dataclass(frozen=True)
class Partition:
    """Ownership of users and movies by rank.

    ``user_owner[u]`` / ``movie_owner[m]`` give the rank that updates (and
    is authoritative for) user ``u`` / movie ``m``.  The permutations used
    to make ownership contiguous are kept for diagnostics; item indices in
    the partition always refer to the *original* (un-permuted) ids so the
    rest of the pipeline needs no translation.
    """

    n_ranks: int
    user_owner: np.ndarray
    movie_owner: np.ndarray
    user_permutation: Optional[np.ndarray] = None
    movie_permutation: Optional[np.ndarray] = None

    def __post_init__(self):
        check_positive("n_ranks", self.n_ranks)
        for name, owner in (("user_owner", self.user_owner),
                            ("movie_owner", self.movie_owner)):
            owner = np.asarray(owner)
            if owner.size and (owner.min() < 0 or owner.max() >= self.n_ranks):
                raise ValidationError(f"{name} contains ranks outside [0, {self.n_ranks})")

    @property
    def n_users(self) -> int:
        return int(self.user_owner.shape[0])

    @property
    def n_movies(self) -> int:
        return int(self.movie_owner.shape[0])

    def users_of(self, rank: int) -> np.ndarray:
        """User ids owned by ``rank``."""
        return np.nonzero(self.user_owner == rank)[0]

    def movies_of(self, rank: int) -> np.ndarray:
        """Movie ids owned by ``rank``."""
        return np.nonzero(self.movie_owner == rank)[0]

    def rank_sizes(self) -> List[Tuple[int, int]]:
        """``(n_users, n_movies)`` owned by each rank."""
        return [(int((self.user_owner == r).sum()), int((self.movie_owner == r).sum()))
                for r in range(self.n_ranks)]

    def work_per_rank(self, ratings: RatingMatrix,
                      workload: WorkloadModel) -> np.ndarray:
        """Modelled work per rank (users + movies it owns)."""
        user_cost = workload.cost(ratings.user_degrees())
        movie_cost = workload.cost(ratings.movie_degrees())
        work = np.zeros(self.n_ranks)
        np.add.at(work, self.user_owner, user_cost)
        np.add.at(work, self.movie_owner, movie_cost)
        return work

    def imbalance(self, ratings: RatingMatrix, workload: WorkloadModel) -> float:
        """Max-over-mean modelled work across ranks (1.0 = perfect balance)."""
        work = self.work_per_rank(ratings, workload)
        mean = work.mean()
        return float(work.max() / mean) if mean > 0 else 1.0


def _owners_from_blocks(order_positions: np.ndarray, costs: np.ndarray,
                        n_ranks: int) -> np.ndarray:
    """Assign contiguous (in the given ordering) cost-balanced blocks to ranks."""
    order = np.argsort(order_positions, kind="stable")
    blocks_in_order = balanced_block_order(costs[order], n_ranks)
    owners = np.empty(order.shape[0], dtype=np.int64)
    owners[order] = blocks_in_order
    return owners


def partition_ratings(
    ratings: RatingMatrix,
    n_ranks: int,
    workload: WorkloadModel | None = None,
    reorder: bool = True,
) -> Partition:
    """Partition users and movies over ``n_ranks`` ranks.

    Parameters
    ----------
    ratings:
        The training rating matrix.
    n_ranks:
        Number of ranks (nodes).
    workload:
        Per-item work model; defaults to the paper's fixed+per-rating model.
    reorder:
        When true (default) a reverse Cuthill–McKee ordering of the
        bipartite rating graph is computed first so that contiguous blocks
        cut few ratings; when false items are split in their natural order
        (the ablation baseline).
    """
    check_positive("n_ranks", n_ranks)
    workload = workload or WorkloadModel()
    return ordered_partition(
        n_ranks, workload.cost(ratings.user_degrees()),
        workload.cost(ratings.movie_degrees()),
        locality_ordering(ratings, reorder and n_ranks > 1))


def locality_ordering(ratings: RatingMatrix, reorder: bool = True
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``(user_perm, movie_perm)``: the reverse Cuthill–McKee ordering of
    the bipartite rating graph, or the natural order when ``reorder`` is
    false or the matrix is empty.

    It depends on the matrix only, so a study over many rank counts
    computes it once and passes it to :func:`ordered_partition`.
    """
    if reorder and ratings.nnz > 0:
        return bipartite_rcm(ratings)
    return (np.arange(ratings.n_users, dtype=np.int64),
            np.arange(ratings.n_movies, dtype=np.int64))


def ordered_partition(n_ranks: int, user_costs: np.ndarray,
                      movie_costs: np.ndarray,
                      ordering: Tuple[np.ndarray, np.ndarray]) -> Partition:
    """Cost-balanced contiguous blocks of ``ordering``, one per rank.

    ``user_costs`` / ``movie_costs`` give each item's work in any unit
    (the strong-scaling study passes its kernel cost model here, so
    balance is measured in the units its compute model uses).
    """
    check_positive("n_ranks", n_ranks)
    user_perm, movie_perm = ordering
    user_cost = np.asarray(user_costs, dtype=float)
    movie_cost = np.asarray(movie_costs, dtype=float)
    if user_cost.shape != user_perm.shape or movie_cost.shape != movie_perm.shape:
        raise ValidationError("per-item cost vectors do not match the ordering")
    return Partition(
        n_ranks=n_ranks,
        user_owner=_owners_from_blocks(user_perm, user_cost, n_ranks),
        movie_owner=_owners_from_blocks(movie_perm, movie_cost, n_ranks),
        user_permutation=user_perm,
        movie_permutation=movie_perm,
    )
