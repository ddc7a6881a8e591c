"""Communication plan derivation.

Section IV-B: *"When an item is computed, the rating matrix R determines to
what nodes this item needs to be sent."*  Concretely, after rank ``p``
updates movie ``m`` it must ship the new factor row to every rank that owns
at least one user who rated ``m`` (those ranks will read ``V_m`` during the
next user phase), and symmetrically for users.

:class:`CommunicationPlan` stores, for every item, the set of destination
ranks, plus aggregate per-rank-pair item counts which feed both the
performance model (Figures 4–5) and the partitioning-quality ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.distributed.partition import Partition
from repro.sparse.csr import RatingMatrix
from repro.utils.validation import ValidationError

__all__ = ["CommunicationPlan", "build_comm_plan"]


@dataclass(frozen=True)
class CommunicationPlan:
    """Destinations of every item's update, plus traffic summaries.

    ``movie_destinations[m]`` (resp. ``user_destinations[u]``) is a sorted
    integer array of ranks that must receive movie ``m`` (user ``u``) after
    its owner updates it.  The owner itself never appears.
    """

    partition: Partition
    movie_destinations: Tuple[np.ndarray, ...]
    user_destinations: Tuple[np.ndarray, ...]

    @property
    def n_ranks(self) -> int:
        return self.partition.n_ranks

    def _edges(self, phase: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(owner, item, destination)`` of every planned transfer of one
        phase (``"movies"`` or ``"users"``), item-major."""
        if phase == "movies":
            owners = self.partition.movie_owner
            destinations = self.movie_destinations
        elif phase == "users":
            owners = self.partition.user_owner
            destinations = self.user_destinations
        else:
            raise ValidationError(f"phase must be 'movies' or 'users', got {phase!r}")
        lengths = np.fromiter((dests.shape[0] for dests in destinations),
                              dtype=np.int64, count=len(destinations))
        items = np.repeat(np.arange(len(destinations), dtype=np.int64), lengths)
        dests = np.concatenate([np.empty(0, dtype=np.int64), *destinations])
        return np.asarray(owners, dtype=np.int64)[items], items, dests

    def expected_incoming(self, phase: str, rank: int) -> np.ndarray:
        """Ascending ids of the items ``rank`` must receive in one phase.

        The plan inverted for one rank: this is what lets a phase's
        receive loop *count* instead of guessing when the exchange is
        done.  (An item's owner never appears among its destinations.)
        """
        _, items, dests = self._edges(phase)
        return items[dests == rank]

    # -- aggregate traffic -------------------------------------------------

    def items_between(self, phase: str) -> np.ndarray:
        """``(n_ranks, n_ranks)`` matrix of item transfers for one phase.

        Entry ``[src, dst]`` counts items owned by ``src`` that must reach
        ``dst`` after the given phase (``"movies"`` or ``"users"``).
        """
        src, _, dst = self._edges(phase)
        matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        np.add.at(matrix, (src, dst), 1)
        return matrix

    def total_items_exchanged(self) -> int:
        """Total item transfers per iteration (both phases)."""
        return int(self.items_between("movies").sum()
                   + self.items_between("users").sum())

    def replication_factor(self, phase: str) -> float:
        """Average number of extra ranks each item must be copied to."""
        destinations = (self.movie_destinations if phase == "movies"
                        else self.user_destinations)
        if not destinations:
            return 0.0
        return float(np.mean([len(d) for d in destinations]))


def _destinations_for_axis(owners_of_items: np.ndarray,
                           owners_of_partners: np.ndarray,
                           axis) -> Tuple[np.ndarray, ...]:
    """For each item, ranks (other than its owner) owning a rating partner.

    Vectorised so the plan can be derived for paper-scale workloads: every
    stored rating contributes an ``(item, partner_owner)`` key; the unique
    keys, minus the item's own owner, are exactly the destination sets.
    """
    n_items = int(owners_of_items.shape[0])
    n_ranks = int(owners_of_items.max(initial=0)) + 1 if n_items else 1
    n_ranks = max(n_ranks, int(owners_of_partners.max(initial=0)) + 1)
    degrees = np.diff(axis.indptr)
    if axis.nnz == 0:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(n_items))

    item_of_entry = np.repeat(np.arange(n_items, dtype=np.int64), degrees)
    partner_owner = owners_of_partners[axis.indices]
    keys = np.unique(item_of_entry * np.int64(n_ranks) + partner_owner)
    key_items = keys // n_ranks
    key_ranks = keys % n_ranks
    keep = key_ranks != owners_of_items[key_items]
    key_items = key_items[keep]
    key_ranks = key_ranks[keep]

    boundaries = np.searchsorted(key_items, np.arange(n_items + 1))
    return tuple(key_ranks[boundaries[i]:boundaries[i + 1]].copy()
                 for i in range(n_items))


def build_comm_plan(ratings: RatingMatrix, partition: Partition) -> CommunicationPlan:
    """Derive the communication plan from the sparsity pattern and partition."""
    if partition.n_users != ratings.n_users or partition.n_movies != ratings.n_movies:
        raise ValidationError("partition shape does not match the rating matrix")
    movie_destinations = _destinations_for_axis(
        partition.movie_owner, partition.user_owner, ratings.by_movie)
    user_destinations = _destinations_for_axis(
        partition.user_owner, partition.movie_owner, ratings.by_user)
    return CommunicationPlan(
        partition=partition,
        movie_destinations=movie_destinations,
        user_destinations=user_destinations,
    )
