"""Unit tests for train/test splitting and the reordering utilities."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import RatingMatrix
from repro.sparse.reorder import (
    apply_permutation,
    balanced_block_order,
    bandwidth,
    bipartite_rcm,
    degree_order,
    identity_order,
    reverse_cuthill_mckee,
)
from repro.sparse.split import train_test_split
from repro.utils.validation import ValidationError


class TestTrainTestSplit:
    def test_partitions_all_entries(self, small_dataset):
        ratings = small_dataset.ratings
        split = train_test_split(ratings, test_fraction=0.25, seed=3)
        assert split.train.nnz + split.n_test == ratings.nnz

    def test_fraction_respected_approximately(self, small_dataset):
        ratings = small_dataset.ratings
        split = train_test_split(ratings, test_fraction=0.3, seed=3,
                                 keep_coverage=False)
        assert split.n_test == pytest.approx(0.3 * ratings.nnz, rel=0.02)

    def test_no_overlap_between_train_and_test(self, simple_ratings):
        split = train_test_split(simple_ratings, test_fraction=0.4, seed=0)
        train_cells = set(zip(*split.train.triplets()[:2]))
        test_cells = set(zip(split.test_users, split.test_movies))
        assert not train_cells & test_cells

    def test_keep_coverage_leaves_no_empty_rows_or_columns(self, small_dataset):
        ratings = small_dataset.ratings
        split = train_test_split(ratings, test_fraction=0.5, seed=1,
                                 keep_coverage=True)
        assert (split.train.user_degrees() > 0).all()
        assert (split.train.movie_degrees() > 0).all()

    def test_deterministic_given_seed(self, simple_ratings):
        a = train_test_split(simple_ratings, test_fraction=0.4, seed=7)
        b = train_test_split(simple_ratings, test_fraction=0.4, seed=7)
        np.testing.assert_array_equal(a.test_users, b.test_users)
        np.testing.assert_array_equal(a.test_movies, b.test_movies)

    def test_zero_fraction(self, simple_ratings):
        split = train_test_split(simple_ratings, test_fraction=0.0)
        assert split.n_test == 0
        assert split.train.nnz == simple_ratings.nnz

    def test_invalid_fraction(self, simple_ratings):
        with pytest.raises(ValidationError):
            train_test_split(simple_ratings, test_fraction=1.5)

    def test_empty_matrix(self):
        empty = RatingMatrix.from_arrays(3, 3, [], [], [])
        split = train_test_split(empty, test_fraction=0.2)
        assert split.n_test == 0

    def test_test_triplets_accessor(self, simple_ratings):
        split = train_test_split(simple_ratings, test_fraction=0.4, seed=1)
        users, movies, values = split.test_triplets()
        assert users.shape == movies.shape == values.shape


class TestSimpleOrders:
    def test_identity_order(self):
        np.testing.assert_array_equal(identity_order(4), [0, 1, 2, 3])

    def test_degree_order_descending(self):
        perm = degree_order(np.array([1, 5, 3]))
        # element 1 (degree 5) must map to the first position
        assert perm[1] == 0
        assert perm[0] == 2

    def test_degree_order_ascending(self):
        perm = degree_order(np.array([1, 5, 3]), descending=False)
        assert perm[0] == 0
        assert perm[1] == 2

    def test_degree_order_is_permutation(self):
        perm = degree_order(np.array([4, 4, 1, 9, 0]))
        assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]

    def test_apply_permutation(self):
        values = np.array([10.0, 20.0, 30.0])
        perm = np.array([2, 0, 1])
        out = apply_permutation(values, perm)
        np.testing.assert_array_equal(out, [20.0, 30.0, 10.0])

    def test_apply_permutation_length_mismatch(self):
        with pytest.raises(ValidationError):
            apply_permutation(np.arange(3), np.array([0, 1]))


class TestReverseCuthillMckee:
    def _block_diagonal_shuffled(self, seed=0):
        """Two disconnected user/movie communities, randomly relabelled."""
        rng = np.random.default_rng(seed)
        triplets = []
        for block, (users, movies) in enumerate([(range(0, 10), range(0, 8)),
                                                 (range(10, 20), range(8, 16))]):
            for u in users:
                for m in movies:
                    if rng.random() < 0.4:
                        triplets.append((u, m, 1.0))
        matrix = RatingMatrix.from_coo(CooMatrix.from_triplets(20, 16, triplets))
        user_shuffle = rng.permutation(20)
        movie_shuffle = rng.permutation(16)
        return matrix.permute(user_shuffle, movie_shuffle)

    def test_returns_valid_permutations(self, simple_ratings):
        user_perm, movie_perm = reverse_cuthill_mckee(simple_ratings)
        assert sorted(user_perm.tolist()) == list(range(4))
        assert sorted(movie_perm.tolist()) == list(range(3))

    def test_reduces_bandwidth_of_shuffled_block_matrix(self):
        shuffled = self._block_diagonal_shuffled()
        user_perm, movie_perm = reverse_cuthill_mckee(shuffled)
        reordered = shuffled.permute(user_perm, movie_perm)
        assert bandwidth(reordered) < bandwidth(shuffled)

    def test_scipy_path_matches_quality(self):
        shuffled = self._block_diagonal_shuffled(seed=3)
        user_perm, movie_perm = bipartite_rcm(shuffled, large_threshold=1)
        reordered = shuffled.permute(user_perm, movie_perm)
        assert bandwidth(reordered) < bandwidth(shuffled)

    def test_bipartite_rcm_dispatch_small(self, simple_ratings):
        user_perm, movie_perm = bipartite_rcm(simple_ratings, large_threshold=10**6)
        assert sorted(user_perm.tolist()) == list(range(4))
        assert sorted(movie_perm.tolist()) == list(range(3))

    def test_handles_isolated_items(self):
        matrix = RatingMatrix.from_arrays(5, 4, [0, 1], [0, 1], [1.0, 1.0])
        user_perm, movie_perm = reverse_cuthill_mckee(matrix)
        assert sorted(user_perm.tolist()) == list(range(5))
        assert sorted(movie_perm.tolist()) == list(range(4))


def per_node_rcm(ratings):
    """Reverse Cuthill–McKee one node at a time: the FIFO queue the
    level-synchronous :func:`reverse_cuthill_mckee` must reproduce."""
    n_users, n_movies = ratings.n_users, ratings.n_movies
    adjacency = ([ratings.user_ratings(u)[0] + n_users for u in range(n_users)]
                 + [ratings.movie_ratings(m)[0] for m in range(n_movies)])
    degrees = np.array([a.shape[0] for a in adjacency], dtype=np.int64)
    visited = np.zeros(n_users + n_movies, dtype=bool)
    ordering = []
    for start in np.argsort(degrees, kind="stable"):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([int(start)])
        while queue:
            node = queue.popleft()
            ordering.append(node)
            unvisited = adjacency[node][~visited[adjacency[node]]]
            unvisited = unvisited[np.argsort(degrees[unvisited], kind="stable")]
            visited[unvisited] = True
            queue.extend(int(v) for v in unvisited)
    position = np.empty(n_users + n_movies, dtype=np.int64)
    position[np.array(ordering[::-1], dtype=np.int64)] = np.arange(len(ordering))
    user_perm = np.empty(n_users, dtype=np.int64)
    user_perm[np.argsort(position[:n_users], kind="stable")] = np.arange(n_users)
    movie_perm = np.empty(n_movies, dtype=np.int64)
    movie_perm[np.argsort(position[n_users:], kind="stable")] = np.arange(n_movies)
    return user_perm, movie_perm


def assert_same_rcm(ratings):
    expected_users, expected_movies = per_node_rcm(ratings)
    user_perm, movie_perm = reverse_cuthill_mckee(ratings)
    np.testing.assert_array_equal(user_perm, expected_users)
    np.testing.assert_array_equal(movie_perm, expected_movies)


class TestLevelSynchronousRcm:
    """The level-at-a-time visit yields the node-at-a-time permutation."""

    def test_movielens_generator(self):
        from repro.datasets import make_movielens_like
        assert_same_rcm(make_movielens_like(scale=40.0, seed=7).split.train)

    def test_chembl_generator(self):
        from repro.datasets.chembl import ChemblLikeConfig, make_chembl_like
        # Thousands of isolated compounds plus a few small components.
        assert_same_rcm(make_chembl_like(ChemblLikeConfig(scale=25.0,
                                                          seed=7)).ratings)

    def test_synthetic_generator(self, small_dataset):
        assert_same_rcm(small_dataset.split.train)

    def test_empty_matrix(self):
        assert_same_rcm(RatingMatrix.from_arrays(3, 4, [], [], []))

    @pytest.mark.parametrize("size", [2, 4])
    def test_many_tiny_components(self, size):
        """Hundreds of two-node (user-movie) or four-node (path) components,
        each visited from its own start, in start order."""
        n = 600
        pairs = np.arange(0, n, 2)
        users = [np.arange(n)] if size == 2 else [pairs, pairs, pairs + 1]
        movies = [np.arange(n)] if size == 2 else [pairs, pairs + 1, pairs + 1]
        users, movies = np.concatenate(users), np.concatenate(movies)
        assert_same_rcm(RatingMatrix.from_arrays(n, n, users, movies,
                                                 np.ones(users.shape[0])))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 12), st.data())
    def test_random_bipartite_graphs(self, n_users, n_movies, data):
        """Sparse random graphs: isolated users and movies, several
        components, and (no ratings at all) the empty matrix."""
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_movies - 1)),
            max_size=n_users * n_movies // 3, unique=True))
        users = [u for u, _ in cells]
        movies = [m for _, m in cells]
        assert_same_rcm(RatingMatrix.from_arrays(n_users, n_movies, users,
                                                 movies, np.ones(len(cells))))


class TestBandwidth:
    def test_empty_matrix(self):
        assert bandwidth(RatingMatrix.from_arrays(3, 3, [], [], [])) == 0.0

    def test_diagonal_is_low_antidiagonal_is_high(self):
        n = 10
        diag = RatingMatrix.from_arrays(n, n, np.arange(n), np.arange(n), np.ones(n))
        anti = RatingMatrix.from_arrays(n, n, np.arange(n), np.arange(n)[::-1],
                                        np.ones(n))
        assert bandwidth(diag) < bandwidth(anti)


class TestBalancedBlockOrder:
    def test_blocks_are_contiguous(self):
        costs = np.ones(10)
        blocks = balanced_block_order(costs, 3)
        assert (np.diff(blocks) >= 0).all()
        assert blocks.min() == 0 and blocks.max() == 2

    def test_uniform_costs_balanced(self):
        blocks = balanced_block_order(np.ones(12), 4)
        sizes = np.bincount(blocks)
        assert sizes.max() - sizes.min() <= 1

    def test_skewed_costs_balanced_by_cost(self):
        costs = np.array([10.0, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        blocks = balanced_block_order(costs, 2)
        totals = np.bincount(blocks, weights=costs)
        # The heavy element should end up alone-ish; balance within 2x.
        assert totals.max() / totals.min() < 2.5

    def test_every_block_nonempty(self):
        blocks = balanced_block_order(np.ones(7), 3)
        assert set(blocks.tolist()) == {0, 1, 2}

    def test_more_blocks_than_items(self):
        blocks = balanced_block_order(np.ones(3), 5)
        assert blocks.shape == (3,)
        assert blocks.max() < 5

    def test_empty_costs(self):
        assert balanced_block_order(np.array([]), 2).shape == (0,)

    def test_invalid_block_count(self):
        with pytest.raises(ValidationError):
            balanced_block_order(np.ones(3), 0)
