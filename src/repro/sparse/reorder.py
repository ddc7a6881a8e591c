"""Row/column reordering of the rating matrix.

Section IV-B of the paper: *"we can reorder the rows and columns in R to
minimize the number of items that have to be exchanged, if we split and
distribute U and V according to consecutive regions in R"*, and the
reordering additionally takes the per-item workload into account.

This module provides the reordering primitives; the workload-aware block
partitioning that consumes them lives in :mod:`repro.distributed.partition`.

All functions return *permutations* in the "new index of old element"
convention used by :meth:`repro.sparse.RatingMatrix.permute`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse.csr import RatingMatrix
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "identity_order",
    "degree_order",
    "reverse_cuthill_mckee",
    "bipartite_rcm",
    "bandwidth",
    "apply_permutation",
    "balanced_block_order",
]


def identity_order(n: int) -> np.ndarray:
    """The do-nothing permutation."""
    return np.arange(n, dtype=np.int64)


def degree_order(degrees: np.ndarray, descending: bool = True) -> np.ndarray:
    """Permutation sorting elements by degree (rating count).

    Heavy items first (descending) is the order the work-stealing scheduler
    prefers, because scheduling the long tasks early minimises makespan.
    Returns ``perm`` with ``perm[old] = new``.
    """
    degrees = np.asarray(degrees)
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    perm = np.empty_like(order)
    perm[order] = np.arange(order.shape[0])
    return perm.astype(np.int64)


def _bipartite_csr(ratings: RatingMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the bipartite user-movie graph: users are
    nodes ``0..n_users-1``, movies follow, each row in stored order."""
    by_user, by_movie = ratings.by_user, ratings.by_movie
    indptr = np.concatenate([by_user.indptr,
                             by_user.indptr[-1] + by_movie.indptr[1:]])
    indices = np.concatenate([by_user.indices + ratings.n_users,
                              by_movie.indices])
    return indptr.astype(np.int64), indices.astype(np.int64)


def _split_ordering(ordering: np.ndarray,
                    n_users: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis permutations from a node ordering of the bipartite graph,
    compacting each axis to ``0..n-1`` while keeping the relative order."""
    users = ordering[ordering < n_users]
    movies = ordering[ordering >= n_users] - n_users
    user_perm = np.empty(users.shape[0], dtype=np.int64)
    user_perm[users] = np.arange(users.shape[0])
    movie_perm = np.empty(movies.shape[0], dtype=np.int64)
    movie_perm[movies] = np.arange(movies.shape[0])
    return user_perm, movie_perm


def _cuthill_mckee_levels(start: int, indptr: np.ndarray, indices: np.ndarray,
                          degrees: np.ndarray,
                          visited: np.ndarray) -> List[np.ndarray]:
    """Breadth-first levels of ``start``'s component, one level at a time.

    This is the FIFO Cuthill–McKee visit: a node's unvisited neighbours
    join the next level behind those of the nodes before it, sorted by
    degree (ties in adjacency order), and a node reached from several
    nodes of the level joins behind the first of them.
    """
    levels = []
    frontier = np.array([start], dtype=np.int64)
    visited[start] = True
    while frontier.shape[0]:
        levels.append(frontier)
        counts = degrees[frontier]
        parent = np.repeat(np.arange(frontier.shape[0]), counts)
        slots = np.arange(parent.shape[0]) + np.repeat(
            indptr[frontier] - (np.cumsum(counts) - counts), counts)
        neighbours = indices[slots]
        seen = np.flatnonzero(~visited[neighbours])
        _, first = np.unique(neighbours[seen], return_index=True)
        seen = seen[first]
        seen = seen[np.lexsort((seen, degrees[neighbours[seen]], parent[seen]))]
        frontier = neighbours[seen]
        visited[frontier] = True
    return levels


def reverse_cuthill_mckee(ratings: RatingMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Reverse Cuthill–McKee ordering of the bipartite rating graph.

    A classic bandwidth-reducing ordering: after permuting, users and movies
    that interact end up close together, so a contiguous block split of
    ``U``/``V`` cuts few ratings — exactly the locality property the paper's
    data distribution relies on.  The breadth-first visit runs one whole
    level per step (:func:`_cuthill_mckee_levels`), which yields exactly the
    node-at-a-time FIFO order.  Each connected component costs a few numpy
    calls per level, so the visit is fastest on the usual shape of rating
    data — one giant component plus isolated vertices (taken in bulk) — and
    slower than a node-at-a-time visit on a graph of many tiny components.

    Returns ``(user_perm, movie_perm)`` in the "new index of old" convention.
    """
    indptr, indices = _bipartite_csr(ratings)
    degrees = np.diff(indptr)
    visited = np.zeros(degrees.shape[0], dtype=bool)

    # Every component starts from its minimum-degree vertex (the standard
    # CM heuristic for a pseudo-peripheral start).  Isolated vertices sort
    # first and are whole components on their own; past them, one forward
    # pass over the start order finds each next unvisited start.
    starts = np.argsort(degrees, kind="stable")
    n_isolated = int(np.count_nonzero(degrees == 0))
    levels = [starts[:n_isolated]]
    visited[levels[0]] = True
    for start in starts[n_isolated:].tolist():
        if not visited[start]:
            levels += _cuthill_mckee_levels(start, indptr, indices, degrees,
                                            visited)

    ordering = np.concatenate(levels)[::-1]  # reverse CM
    return _split_ordering(ordering, ratings.n_users)


def _scipy_bipartite_rcm(ratings: RatingMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """RCM of the bipartite rating graph using scipy's compiled implementation.

    Produces the same kind of locality-improving ordering as
    :func:`reverse_cuthill_mckee` but scales to millions of ratings; used
    automatically by :func:`bipartite_rcm` for large matrices.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee as _rcm

    n_users, n_movies = ratings.n_users, ratings.n_movies
    users, movies, _ = ratings.triplets()
    n_total = n_users + n_movies
    data = np.ones(users.shape[0], dtype=np.int8)
    upper = sp.coo_matrix((data, (users, movies + n_users)),
                          shape=(n_total, n_total))
    adjacency = (upper + upper.T).tocsr()
    ordering = np.asarray(_rcm(adjacency, symmetric_mode=True), dtype=np.int64)
    return _split_ordering(ordering, n_users)


def bipartite_rcm(ratings: RatingMatrix,
                  large_threshold: int = 200_000) -> Tuple[np.ndarray, np.ndarray]:
    """Locality ordering of users and movies, choosing an implementation by size.

    Below ``large_threshold`` stored ratings the pure-Python
    :func:`reverse_cuthill_mckee` is used (no extra dependencies exercised,
    easier to trace in tests); above it the scipy compiled RCM keeps the
    partitioner fast on paper-scale workloads.
    """
    if ratings.nnz > large_threshold:
        return _scipy_bipartite_rcm(ratings)
    return reverse_cuthill_mckee(ratings)


def bandwidth(ratings: RatingMatrix) -> float:
    """Mean normalised |user_pos - movie_pos| over observed ratings.

    A locality score in [0, 1]: lower means a contiguous block split of the
    matrix cuts fewer ratings.  Used to verify that reordering helps.
    """
    if ratings.nnz == 0:
        return 0.0
    users, movies, _ = ratings.triplets()
    u = users / max(ratings.n_users - 1, 1)
    m = movies / max(ratings.n_movies - 1, 1)
    return float(np.abs(u - m).mean())


def apply_permutation(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Reorder ``values`` so entry ``perm[i]`` of the result is old entry ``i``."""
    values = np.asarray(values)
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape[0] != values.shape[0]:
        raise ValidationError("permutation length does not match values")
    out = np.empty_like(values)
    out[perm] = values
    return out


def balanced_block_order(costs: np.ndarray, n_blocks: int) -> np.ndarray:
    """Group elements into ``n_blocks`` contiguous blocks of near-equal cost.

    Given per-element costs (the paper's workload model: fixed cost plus a
    cost per rating), return the block index of each element such that
    blocks are contiguous in the current ordering and their total costs are
    balanced.  This is the 1-D "chains-on-chains" partitioning the
    distributed data distribution needs after locality reordering.
    """
    check_positive("n_blocks", n_blocks)
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n_blocks >= n:
        return np.arange(n, dtype=np.int64) % n_blocks

    prefix = np.concatenate([[0.0], np.cumsum(costs)])
    total = prefix[-1]
    blocks = np.empty(n, dtype=np.int64)
    # Greedy sweep: cut whenever the running block reaches its fair share of
    # the *remaining* cost; this keeps later blocks from starving.
    start = 0
    for block in range(n_blocks):
        remaining_blocks = n_blocks - block
        if block == n_blocks - 1:
            end = n
        else:
            target = prefix[start] + (total - prefix[start]) / remaining_blocks
            # Smallest end > start whose prefix reaches the target, but leave
            # enough elements for the remaining blocks.
            end = int(np.searchsorted(prefix, target, side="left"))
            end = max(end, start + 1)
            end = min(end, n - (remaining_blocks - 1))
        blocks[start:end] = block
        start = end
        if start >= n:
            blocks[-1] = min(int(blocks[-1]), n_blocks - 1)
            break
    return blocks
