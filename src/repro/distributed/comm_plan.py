"""Communication plan derivation.

Section IV-B: *"When an item is computed, the rating matrix R determines to
what nodes this item needs to be sent."*  Concretely, after rank ``p``
updates movie ``m`` it must ship the new factor row to every rank that owns
at least one user who rated ``m`` (those ranks will read ``V_m`` during the
next user phase), and symmetrically for users.  A rank also predicts the
held-out cells of the users it owns, so a test cell's movie reaches its
user's owner too, whether or not a training rating already pulls it.

:class:`CommunicationPlan` stores every planned transfer as an *edge*
``(owner, item, destination)``, one :class:`PlanEdges` triple of parallel
arrays per phase, item-major with ascending destinations inside an item.
Everything else is a one-line reduction over those arrays: the ids a rank
receives, the per-rank-pair item counts that feed the performance model
(Figures 4–5) and the partitioning-quality ablation, and the per-rank send
schedules of the exchange (:func:`send_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.distributed.partition import Partition
from repro.sparse.csr import CompressedAxis, RatingMatrix
from repro.utils.validation import ValidationError

__all__ = ["CommunicationPlan", "PlanEdges", "build_comm_plan",
           "send_schedule"]


class PlanEdges(NamedTuple):
    """The transfers of one phase: ``item`` (owned by ``owner``) must reach
    ``dest`` after its update.  Item-major, destinations ascending within an
    item; an item's owner never appears among its destinations."""

    owner: np.ndarray
    item: np.ndarray
    dest: np.ndarray


@dataclass(frozen=True)
class CommunicationPlan:
    """Every item's destinations (as edge arrays), plus traffic summaries."""

    partition: Partition
    movie_edges: PlanEdges
    user_edges: PlanEdges

    @property
    def n_ranks(self) -> int:
        return self.partition.n_ranks

    def edges(self, phase: str) -> PlanEdges:
        """The planned transfers of one phase (``"movies"`` or ``"users"``)."""
        if phase == "movies":
            return self.movie_edges
        if phase == "users":
            return self.user_edges
        raise ValidationError(f"phase must be 'movies' or 'users', got {phase!r}")

    def expected_incoming(self, phase: str, rank: int) -> np.ndarray:
        """Ascending ids of the items ``rank`` must receive in one phase.

        The plan inverted for one rank: this is what lets a phase's
        receive loop *count* instead of guessing when the exchange is
        done.
        """
        edges = self.edges(phase)
        return edges.item[edges.dest == rank]

    # -- aggregate traffic -------------------------------------------------

    def items_between(self, phase: str) -> np.ndarray:
        """``(n_ranks, n_ranks)`` matrix of item transfers for one phase.

        Entry ``[src, dst]`` counts items owned by ``src`` that must reach
        ``dst`` after the given phase (``"movies"`` or ``"users"``).
        """
        edges, n = self.edges(phase), self.n_ranks
        return np.bincount(edges.owner * n + edges.dest,
                           minlength=n * n).reshape(n, n)

    def total_items_exchanged(self) -> int:
        """Total item transfers per iteration (both phases)."""
        return int(self.movie_edges.item.size + self.user_edges.item.size)

    def replication_factor(self, phase: str) -> float:
        """Average number of extra ranks each item must be copied to."""
        n_items = (self.partition.n_movies if phase == "movies"
                   else self.partition.n_users)
        return self.edges(phase).item.size / n_items if n_items else 0.0


def send_schedule(items: np.ndarray, destinations: np.ndarray
                  ) -> List[Tuple[int, np.ndarray]]:
    """The messages one owner posts in one phase, as ``(dest, ids)``.

    ``items[i]`` must reach rank ``destinations[i]``.  Every destination
    gets exactly one message, destinations ascending; its ids keep their
    given order (ascending for a plan's item-major edges) and travel as
    ``<i4``, half the bytes of int64.
    """
    items = np.asarray(items)
    destinations = np.asarray(destinations, dtype=np.int64)
    if items.shape != destinations.shape or items.ndim != 1:
        raise ValidationError("items and destinations must be equal-length vectors")
    order = np.argsort(destinations, kind="stable")
    destinations = destinations[order]
    ids = items[order].astype("<i4")
    starts = np.flatnonzero(np.diff(destinations, prepend=-1))
    return [(int(destinations[start]), chunk)
            for start, chunk in zip(starts, np.split(ids, starts[1:]))]


def _edges_for_axis(owners_of_items: np.ndarray,
                    owners_of_partners: np.ndarray,
                    items: np.ndarray, partners: np.ndarray,
                    n_ranks: int) -> PlanEdges:
    """For each item, the ranks (other than its owner) owning a partner.

    Every ``(items[i], partners[i])`` pair marks its ``(item, partner
    owner)`` cell of a dense ``n_items x n_ranks`` grid; the marked cells in
    ascending order, minus the item's own owner, are exactly the
    item-major edges.
    """
    n_items = owners_of_items.shape[0]
    mark = np.zeros(n_items * n_ranks, dtype=bool)
    mark[items * n_ranks + owners_of_partners[partners]] = True
    item, dest = np.divmod(np.flatnonzero(mark), n_ranks)
    owner = owners_of_items[item]
    keep = dest != owner
    return PlanEdges(owner[keep], item[keep], dest[keep])


def _pairs(axis: CompressedAxis) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, partner)`` of every rating stored along ``axis``."""
    items = np.repeat(np.arange(axis.indptr.shape[0] - 1, dtype=np.int64),
                      np.diff(axis.indptr))
    return items, axis.indices


def build_comm_plan(ratings: RatingMatrix, partition: Partition,
                    test_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                    ) -> CommunicationPlan:
    """Derive the communication plan from the sparsity pattern and partition.

    ``test_pairs`` — ``(users, movies)`` of the held-out cells the ranks
    predict — adds a movie edge to each cell's user owner, so the movie
    row is fresh where the cell is predicted.
    """
    if partition.n_users != ratings.n_users or partition.n_movies != ratings.n_movies:
        raise ValidationError("partition shape does not match the rating matrix")
    user_owner = np.asarray(partition.user_owner, dtype=np.int64)
    movie_owner = np.asarray(partition.movie_owner, dtype=np.int64)
    movies, users = _pairs(ratings.by_movie)
    if test_pairs is not None:
        test_users, test_movies = test_pairs
        movies = np.concatenate([movies, test_movies])
        users = np.concatenate([users, test_users])
    return CommunicationPlan(
        partition=partition,
        movie_edges=_edges_for_axis(movie_owner, user_owner, movies, users,
                                    partition.n_ranks),
        user_edges=_edges_for_axis(user_owner, movie_owner,
                                   *_pairs(ratings.by_user),
                                   partition.n_ranks),
    )
