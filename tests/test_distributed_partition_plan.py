"""Tests for the workload-aware partitioner and the communication plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.comm_plan import build_comm_plan
from repro.distributed.partition import (
    Partition,
    WorkloadModel,
    locality_ordering,
    ordered_partition,
    partition_ratings,
)
from repro.utils.validation import ValidationError


class TestPartition:
    def test_every_item_owned_exactly_once(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 4)
        users_seen = np.concatenate([partition.users_of(r) for r in range(4)])
        movies_seen = np.concatenate([partition.movies_of(r) for r in range(4)])
        assert sorted(users_seen.tolist()) == list(range(chembl_tiny.ratings.n_users))
        assert sorted(movies_seen.tolist()) == list(range(chembl_tiny.ratings.n_movies))

    def test_single_rank_owns_everything(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 1)
        assert (partition.user_owner == 0).all()
        assert (partition.movie_owner == 0).all()

    def test_workload_balance(self, chembl_tiny):
        workload = WorkloadModel(fixed_cost=1.0, rating_cost=0.05)
        partition = partition_ratings(chembl_tiny.ratings, 4, workload=workload)
        assert partition.imbalance(chembl_tiny.ratings, workload) < 1.6

    def test_balance_beats_naive_equal_count_split_on_skewed_data(self, chembl_tiny):
        """The workload-aware split must balance better than splitting by
        item count when degrees are heavy-tailed (the movie axis here)."""
        ratings = chembl_tiny.ratings
        workload = WorkloadModel(fixed_cost=1.0, rating_cost=0.2)
        aware = partition_ratings(ratings, 4, workload=workload, reorder=False)
        boundaries = np.linspace(0, ratings.n_movies, 5).astype(int)
        naive_movie_owner = np.zeros(ratings.n_movies, dtype=np.int64)
        for rank in range(4):
            naive_movie_owner[boundaries[rank]:boundaries[rank + 1]] = rank
        naive = Partition(n_ranks=4, user_owner=aware.user_owner,
                          movie_owner=naive_movie_owner)
        assert aware.imbalance(ratings, workload) <= naive.imbalance(ratings, workload)

    def test_explicit_cost_vectors(self, simple_ratings):
        partition = ordered_partition(
            2, np.array([10.0, 1.0, 1.0, 1.0]), np.ones(3),
            locality_ordering(simple_ratings))
        work = np.zeros(2)
        np.add.at(work, partition.user_owner, np.array([10.0, 1.0, 1.0, 1.0]))
        assert work.max() <= 10.0 + 1e-9  # the heavy user sits alone-ish

    def test_explicit_cost_vector_shape_checked(self, simple_ratings):
        with pytest.raises(ValidationError):
            ordered_partition(2, np.ones(3), np.ones(3),
                              locality_ordering(simple_ratings))

    def test_partition_ratings_is_ordered_partition_of_the_workload(
            self, chembl_tiny):
        """What a strong-scaling study builds from one shared ordering is
        what ``partition_ratings`` builds per call."""
        ratings = chembl_tiny.ratings
        workload = WorkloadModel()
        ordering = locality_ordering(ratings)
        for n_ranks in (2, 3, 5):
            direct = partition_ratings(ratings, n_ranks, workload=workload)
            shared = ordered_partition(
                n_ranks, workload.cost(ratings.user_degrees()),
                workload.cost(ratings.movie_degrees()), ordering)
            np.testing.assert_array_equal(direct.user_owner, shared.user_owner)
            np.testing.assert_array_equal(direct.movie_owner, shared.movie_owner)

    def test_reorder_reduces_exchanged_items_on_block_structured_data(self):
        from repro.datasets import make_scaling_workload
        ratings = make_scaling_workload(n_users=600, n_movies=120, n_ratings=6000,
                                        n_communities=4, community_bias=0.95, seed=2)
        shuffled = ratings.permute(
            np.random.default_rng(0).permutation(ratings.n_users),
            np.random.default_rng(1).permutation(ratings.n_movies))
        with_reorder = build_comm_plan(shuffled, partition_ratings(shuffled, 4,
                                                                   reorder=True))
        without_reorder = build_comm_plan(shuffled, partition_ratings(shuffled, 4,
                                                                      reorder=False))
        assert with_reorder.total_items_exchanged() <= \
            without_reorder.total_items_exchanged()

    def test_rank_sizes_and_work_per_rank(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 3)
        sizes = partition.rank_sizes()
        assert len(sizes) == 3
        assert sum(users for users, _ in sizes) == chembl_tiny.ratings.n_users
        work = partition.work_per_rank(chembl_tiny.ratings, WorkloadModel())
        assert work.shape == (3,)
        assert (work > 0).all()

    def test_invalid_owner_values_rejected(self):
        with pytest.raises(ValidationError):
            Partition(n_ranks=2, user_owner=np.array([0, 2]),
                      movie_owner=np.array([0]))

    def test_more_ranks_than_items(self, simple_ratings):
        partition = partition_ratings(simple_ratings, 8)
        assert partition.user_owner.max() < 8
        assert partition.movie_owner.max() < 8


def destinations(plan, phase, item):
    """The ranks one item is shipped to, read off the plan's edge arrays."""
    edges = plan.edges(phase)
    return edges.dest[edges.item == item].tolist()


class TestCommunicationPlan:
    def test_destinations_are_exactly_the_partner_owners(self, simple_ratings):
        partition = Partition(
            n_ranks=2,
            user_owner=np.array([0, 0, 1, 1]),
            movie_owner=np.array([0, 1, 1]),
        )
        plan = build_comm_plan(simple_ratings, partition)
        # Movie 0 (owner 0) is rated by users 0,1 (rank 0) and 3 (rank 1):
        assert destinations(plan, "movies", 0) == [1]
        # Movie 1 (owner 1) is rated by users 0,3 -> ranks 0,1; owner removed:
        assert destinations(plan, "movies", 1) == [0]
        # Movie 2 (owner 1) is rated by users 1 (rank 0), 2 (rank 1):
        assert destinations(plan, "movies", 2) == [0]
        # User 0 (owner 0) rated movies 0 (rank 0), 1 (rank 1):
        assert destinations(plan, "users", 0) == [1]
        # User 2 (owner 1) rated movies 1, 2 (both rank 1): nothing to send.
        assert destinations(plan, "users", 2) == []
        # The edges carry each item's owner, item-major.
        assert plan.movie_edges.owner.tolist() == [0, 1, 1]
        assert plan.movie_edges.item.tolist() == [0, 1, 2]

    def test_owner_never_in_destinations(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 4)
        plan = build_comm_plan(chembl_tiny.ratings, partition)
        for phase, owners in (("movies", partition.movie_owner),
                              ("users", partition.user_owner)):
            edges = plan.edges(phase)
            assert (edges.owner == owners[edges.item]).all()
            assert (edges.dest != edges.owner).all()

    @pytest.mark.parametrize("n_ranks", [1, 3, 64])
    def test_edges_match_a_per_rating_derivation(self, chembl_tiny, n_ranks):
        """Item-major, ascending destinations, nothing missing or extra —
        from one rank up to more ranks than most items have partners."""
        ratings = chembl_tiny.ratings
        partition = partition_ratings(ratings, n_ranks)
        plan = build_comm_plan(ratings, partition)
        users, movies, _ = ratings.triplets()
        for phase, items, partners, owners, partner_owners in (
                ("movies", movies, users, partition.movie_owner,
                 partition.user_owner),
                ("users", users, movies, partition.user_owner,
                 partition.movie_owner)):
            expected = sorted({(int(item), int(partner_owners[partner]))
                               for item, partner in zip(items, partners)
                               if partner_owners[partner] != owners[item]})
            edges = plan.edges(phase)
            assert list(zip(edges.item.tolist(), edges.dest.tolist())) \
                == expected

    def test_items_between_matches_destination_lists(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 3)
        plan = build_comm_plan(chembl_tiny.ratings, partition)
        matrix = plan.items_between("movies")
        assert matrix.sum() == plan.movie_edges.item.size
        assert np.trace(matrix) == 0
        for src in range(3):
            for dst in range(3):
                assert matrix[src, dst] == np.count_nonzero(
                    (plan.movie_edges.owner == src)
                    & (plan.movie_edges.dest == dst))

    def test_expected_incoming_inverts_the_destination_lists(self, chembl_tiny):
        """The vectorised inversion against a per-item loop."""
        partition = partition_ratings(chembl_tiny.ratings, 3)
        plan = build_comm_plan(chembl_tiny.ratings, partition)
        for phase, owner in (("movies", partition.movie_owner),
                             ("users", partition.user_owner)):
            for rank in range(3):
                by_loop = [item for item in range(owner.shape[0])
                           if int(owner[item]) != rank
                           and rank in destinations(plan, phase, item)]
                assert plan.expected_incoming(phase, rank).tolist() == by_loop
            received = sum(plan.expected_incoming(phase, rank).size
                           for rank in range(3))
            assert received == plan.items_between(phase).sum()
        with pytest.raises(ValidationError):
            plan.expected_incoming("bogus", 0)

    def test_single_rank_has_no_traffic(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 1)
        plan = build_comm_plan(chembl_tiny.ratings, partition)
        assert plan.total_items_exchanged() == 0
        assert plan.replication_factor("movies") == 0.0

    def test_replication_factor_bounded_by_ranks(self, chembl_tiny):
        partition = partition_ratings(chembl_tiny.ratings, 4)
        plan = build_comm_plan(chembl_tiny.ratings, partition)
        assert 0.0 <= plan.replication_factor("movies") <= 3.0
        assert 0.0 <= plan.replication_factor("users") <= 3.0

    def test_more_ranks_means_more_exchange(self, chembl_tiny):
        ratings = chembl_tiny.ratings
        few = build_comm_plan(ratings, partition_ratings(ratings, 2))
        many = build_comm_plan(ratings, partition_ratings(ratings, 8))
        assert many.total_items_exchanged() >= few.total_items_exchanged()

    def test_invalid_phase_and_shape(self, chembl_tiny, simple_ratings):
        partition = partition_ratings(chembl_tiny.ratings, 2)
        plan = build_comm_plan(chembl_tiny.ratings, partition)
        with pytest.raises(ValidationError):
            plan.items_between("bogus")
        with pytest.raises(ValidationError):
            build_comm_plan(simple_ratings, partition)

    def test_plan_covers_every_cross_rank_rating(self, chembl_tiny):
        """For every rating whose user and movie live on different ranks, the
        movie must be shipped to the user's rank and vice versa."""
        ratings = chembl_tiny.ratings
        partition = partition_ratings(ratings, 4)
        plan = build_comm_plan(ratings, partition)
        users, movies, _ = ratings.triplets()
        for u, m in zip(users[:500], movies[:500]):
            user_rank = partition.user_owner[u]
            movie_rank = partition.movie_owner[m]
            if user_rank != movie_rank:
                assert user_rank in destinations(plan, "movies", m)
                assert movie_rank in destinations(plan, "users", u)
