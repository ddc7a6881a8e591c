"""Sharded serving cluster: parity, hot swap, fold-in, teardown.

The load-bearing guarantee is *bit-identity*: for every tested shard
count the gateway's ``top_n``/``top_n_batch``/``predict_batch`` must
reproduce the single-process :class:`PredictionService` answers down to
the last bit — including exact score ties, ``exclude_seen`` filtering,
zero-rating users and folded-in cold-start users.  Snapshots here are
synthetic random posteriors (:func:`make_bench_snapshot`): serving parity
depends only on the factor values, so no Gibbs sampling is burned.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.core.recommend import merge_top_n, select_top_n
from repro.core.checkpoint import save_snapshot
from repro.core.priors import GaussianPrior
from repro.serving.cluster import ClusterError, ShardedScorer, SnapshotWatcher
from repro.serving.foldin import FoldInState
from repro.serving.service import PredictionService
from repro.sparse.csr import RatingMatrix
from repro.sparse.shard import shard_bounds, slice_item_range
from repro.utils.validation import ValidationError

N_USERS, N_ITEMS, K = 50, 37, 4
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def snapshot():
    """Random posterior with exact score ties spanning shard boundaries."""
    snap = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=3)
    # Duplicate factor rows produce exactly tied scores for *every* user;
    # the copies live in different shards for every tested shard count.
    snap.state.movie_factors[30] = snap.state.movie_factors[2]
    snap.state.movie_factors[35] = snap.state.movie_factors[2]
    snap.state.movie_factors[20] = snap.state.movie_factors[5]
    return snap


@pytest.fixture(scope="module")
def train():
    """Sparse ratings: user 0 rated nothing, user 1 rated everything."""
    rng = np.random.default_rng(11)
    users, items = np.nonzero(rng.random((N_USERS, N_ITEMS)) < 0.3)
    keep = users != 0
    users, items = users[keep], items[keep]
    users = np.concatenate([users, np.full(N_ITEMS, 1)])
    items = np.concatenate([items, np.arange(N_ITEMS)])
    values = rng.integers(1, 6, size=users.shape[0]).astype(np.float64)
    return RatingMatrix.from_arrays(N_USERS, N_ITEMS, users, items, values)


# ---------------------------------------------------------------------------
# deterministic selection + exact merge (core/recommend.py helpers)
# ---------------------------------------------------------------------------

def test_select_top_n_orders_by_score_then_index():
    scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0, 0.5])
    assert select_top_n(scores, 4).tolist() == [1, 2, 4, 3]
    # Boundary tie: only two of the three 3.0s fit; lowest indices win.
    assert select_top_n(scores, 2).tolist() == [1, 2]
    assert select_top_n(scores, 99).tolist() == [1, 2, 4, 3, 0, 5]
    assert select_top_n(np.empty(0), 3).tolist() == []


def test_select_top_n_matches_full_sort_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(25):
        scores = rng.integers(0, 6, size=40).astype(float)  # many ties
        n = int(rng.integers(1, 40))
        expected = sorted(range(40), key=lambda i: (-scores[i], i))[:n]
        assert select_top_n(scores, n).tolist() == expected


def test_merge_top_n_is_exact_against_global_selection():
    rng = np.random.default_rng(1)
    scores = rng.integers(0, 8, size=60).astype(float)
    n = 9
    parts = []
    for lo, hi in shard_bounds(60, 4):
        local = select_top_n(scores[lo:hi], n)
        parts.append((local + lo, scores[lo:hi][local]))
    items, merged = merge_top_n(parts, n)
    expected = select_top_n(scores, n)
    assert items.tolist() == expected.tolist()
    assert merged.tolist() == scores[expected].tolist()


# ---------------------------------------------------------------------------
# CSR item-range slicing (sparse/shard.py)
# ---------------------------------------------------------------------------

def test_shard_bounds_partition_exactly():
    bounds = shard_bounds(37, 4)
    assert bounds[0][0] == 0 and bounds[-1][1] == 37
    sizes = [hi - lo for lo, hi in bounds]
    assert sum(sizes) == 37 and max(sizes) - min(sizes) <= 1
    assert all(bounds[i][1] == bounds[i + 1][0] for i in range(3))
    with pytest.raises(ValidationError):
        shard_bounds(3, 5)


def test_slice_item_range_matches_dense_restriction(train):
    dense = train.to_dense()
    for lo, hi in shard_bounds(N_ITEMS, 3):
        sliced = slice_item_range(train, lo, hi)
        assert sliced.shape == (N_USERS, hi - lo)
        np.testing.assert_array_equal(sliced.to_dense(), dense[:, lo:hi])
    with pytest.raises(ValidationError):
        slice_item_range(train, 5, 5)
    with pytest.raises(ValidationError):
        slice_item_range(train, 0, N_ITEMS + 1)


# ---------------------------------------------------------------------------
# sharded vs single-process bit-parity
# ---------------------------------------------------------------------------

def _assert_same_recommendation(expected, served):
    assert expected.items.tolist() == served.items.tolist()
    assert expected.scores.tobytes() == served.scores.tobytes()


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_top_n_bit_identical_across_shard_counts(snapshot, train, n_shards):
    service = PredictionService(snapshot, train=train)
    with ShardedScorer(snapshot, n_shards=n_shards, train=train) as scorer:
        # User 0 has zero ratings, user 1 rated everything, the rest are
        # ordinary; ties are present for every user (duplicated items).
        for user in (0, 1, 2, 17, N_USERS - 1):
            for exclude in (True, False):
                _assert_same_recommendation(
                    service.top_n(user, n=8, exclude_seen=exclude),
                    scorer.top_n(user, n=8, exclude_seen=exclude))
        # n larger than the candidate set, and the rated-everything user.
        _assert_same_recommendation(service.top_n(3, n=500),
                                    scorer.top_n(3, n=500))
        empty = scorer.top_n(1, n=5, exclude_seen=True)
        assert len(empty) == 0  # user 1 rated every item

        batch = scorer.top_n_batch([0, 2, 5], n=6)
        reference = service.top_n_batch([0, 2, 5], n=6)
        for user in reference:
            _assert_same_recommendation(reference[user], batch[user])


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_top_n_batch_is_one_dispatch_and_bit_identical(snapshot, train,
                                                       n_shards):
    """The fused batch entry: one worker fan-out, per-user exact bits.

    This is the gateway half of the cross-user query-fusion guarantee:
    however many users share the window, each one's ranking (ties
    included — the fixture duplicates item rows) must equal their lone
    ``top_n`` down to the score bytes, and the whole window must cost a
    single dispatch.
    """
    with ShardedScorer(snapshot, n_shards=n_shards, train=train) as scorer:
        users = [0, 1, 2, 17, 2, N_USERS - 1]  # duplicate user included
        for exclude in (True, False):
            singles = {user: scorer.top_n(user, n=8, exclude_seen=exclude)
                       for user in dict.fromkeys(users)}
            dispatches_before = scorer.n_batch_dispatches
            batch = scorer.top_n_batch(users, n=8, exclude_seen=exclude)
            assert scorer.n_batch_dispatches == dispatches_before + 1
            assert sorted(batch) == sorted(dict.fromkeys(users))
            for user, expected in singles.items():
                _assert_same_recommendation(expected, batch[user])
        assert scorer.top_n_batch([], n=3) == {}
        with pytest.raises(ValidationError):
            scorer.top_n_batch([0, N_USERS + 1], n=3)


def test_stats_surface_worker_pool_health(snapshot):
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        scorer.top_n(0, n=3)
        stats = scorer.stats()
        assert stats["pool_workers"] == 2
        assert stats["pool_spawns"] == 1
        assert stats["pool_respawns"] == 0
        assert stats["pool_worker_deaths"] == 0
        assert stats["pool_registration_failures"] == 0
        # Kill a worker: the failed query counts the death, the recovery
        # counts the respawn.
        scorer._workers[1][0].terminate()
        scorer._workers[1][0].join(timeout=5.0)
        with pytest.raises(ClusterError):
            scorer.top_n(0, n=3)
        assert len(scorer.top_n(0, n=3)) == 3
        stats = scorer.stats()
        assert stats["pool_spawns"] == 2
        assert stats["pool_respawns"] == 1
        assert stats["pool_worker_deaths"] >= 1


@pytest.mark.parametrize("n_shards", (2, 3))
def test_ties_across_shard_boundaries_keep_deterministic_order(
        snapshot, n_shards):
    service = PredictionService(snapshot)
    with ShardedScorer(snapshot, n_shards=n_shards) as scorer:
        for user in range(6):
            expected = service.top_n(user, n=N_ITEMS, exclude_seen=False)
            served = scorer.top_n(user, n=N_ITEMS, exclude_seen=False)
            _assert_same_recommendation(expected, served)
            # The duplicated items really are exact ties, ordered by id.
            scores = dict(zip(expected.items.tolist(),
                              expected.scores.tolist()))
            assert scores[2] == scores[30] == scores[35]
            positions = [expected.items.tolist().index(item)
                         for item in (2, 30, 35)]
            assert positions == sorted(positions)


def test_predict_batch_parity_and_validation(snapshot, train):
    service = PredictionService(snapshot, train=train)
    with ShardedScorer(snapshot, n_shards=3, train=train) as scorer:
        rng = np.random.default_rng(5)
        users = rng.integers(0, N_USERS, size=64)
        items = rng.integers(0, N_ITEMS, size=64)
        assert service.predict_batch(users, items).tobytes() \
            == scorer.predict_batch(users, items).tobytes()
        assert scorer.predict(4, 7) == service.predict(4, 7)
        with pytest.raises(ValidationError):
            scorer.predict_batch(np.array([0]), np.array([N_ITEMS]))
        with pytest.raises(ValidationError):
            scorer.predict_batch(np.array([N_USERS]), np.array([0]))


def test_fewer_workers_than_shards_still_exact(snapshot, train):
    service = PredictionService(snapshot, train=train)
    with ShardedScorer(snapshot, n_shards=4, n_workers=2,
                       train=train) as scorer:
        assert scorer.n_workers == 2
        for user in (0, 9, 23):
            _assert_same_recommendation(service.top_n(user, n=7),
                                        scorer.top_n(user, n=7))


# ---------------------------------------------------------------------------
# fold-in: cold start and incremental updates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_fold_in_and_incremental_updates_bit_identical(snapshot, train,
                                                       n_shards):
    service = PredictionService(snapshot, train=train)
    with ShardedScorer(snapshot, n_shards=n_shards, train=train) as scorer:
        items = np.array([0, 12, 36])
        values = np.array([4.0, 2.0, 5.0])
        assert service.fold_in(items, values) == scorer.fold_in(items, values)
        ids_a = [service.fold_in(np.array([3]), np.array([1.5])),
                 service.fold_in(np.array([], int), np.array([]))]
        ids_b = [scorer.fold_in(np.array([3]), np.array([1.5])),
                 scorer.fold_in(np.array([], int), np.array([]))]
        assert ids_a == ids_b
        for user in [N_USERS] + ids_a:
            _assert_same_recommendation(service.top_n(user, n=6),
                                        scorer.top_n(user, n=6))
        # Incremental rank-k update: same row bits on both sides.
        row_a = service.add_ratings(N_USERS, np.array([5, 6]),
                                    np.array([2.0, 4.5]))
        row_b = scorer.add_ratings(N_USERS, np.array([5, 6]),
                                   np.array([2.0, 4.5]))
        assert row_a.tobytes() == row_b.tobytes()
        _assert_same_recommendation(service.top_n(N_USERS, n=6),
                                    scorer.top_n(N_USERS, n=6))


def test_add_ratings_matches_full_refold(snapshot):
    """The rank-k update lands on the row a full re-fold gives, bit for
    bit."""
    service = PredictionService(snapshot)
    user = service.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
    incremental = service.add_ratings(user, np.array([2, 7]),
                                      np.array([5.0, 1.0]))
    fresh = PredictionService(snapshot)
    refolded = fresh.fold_in(np.array([0, 1, 2, 7]),
                             np.array([4.0, 3.0, 5.0, 1.0]))
    assert incremental.tobytes() == fresh._user_factors[refolded].tobytes()


def test_add_ratings_rejects_training_users(snapshot):
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        with pytest.raises(ValidationError):
            scorer.add_ratings(0, np.array([1]), np.array([3.0]))
    service = PredictionService(snapshot)
    with pytest.raises(ValidationError):
        service.add_ratings(0, np.array([1]), np.array([3.0]))


# ---------------------------------------------------------------------------
# hot snapshot swap
# ---------------------------------------------------------------------------

def test_load_version_swaps_to_the_new_posterior(snapshot, train):
    replacement = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=99)
    with ShardedScorer(snapshot, n_shards=2, train=train) as scorer:
        before = scorer.top_n(2, n=5)
        folded = scorer.fold_in(np.array([0, 4]), np.array([5.0, 2.0]))
        assert scorer.load_version(replacement) == 1
        assert scorer.version == 1 and scorer.n_swaps == 1
        reference = PredictionService(replacement, train=train)
        for user in (0, 2, 31):
            _assert_same_recommendation(reference.top_n(user, n=5),
                                        scorer.top_n(user, n=5))
        assert scorer.top_n(2, n=5).scores.tobytes() != before.scores.tobytes()
        # The folded-in user survives, re-folded against the new factors.
        survived = scorer.top_n(folded, n=5)
        assert np.isfinite(survived.scores).all()
        assert scorer.n_users == N_USERS + 1
        # And their incremental state still works post-swap.
        scorer.add_ratings(folded, np.array([9]), np.array([4.0]))
        assert np.isfinite(scorer.top_n(folded, n=5).scores).all()


def test_load_version_adopts_the_new_fold_in_prior(snapshot):
    """A swap serves the new snapshot's user prior and alpha: a user
    folded in after it gets, byte for byte, the row a fresh service on
    that snapshot gives, and one folded in before it is re-folded under
    the new prior."""
    replacement = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=99)
    prior = replacement.state.user_prior
    replacement.state.user_prior = GaussianPrior(mean=prior.mean + 0.5,
                                                 precision=prior.precision)
    items, values = np.array([0, 4, 9]), np.array([5.0, 2.0, 4.0])
    fresh = PredictionService(replacement)
    user = fresh.fold_in(items, values)
    expected = fresh.state().user_factors[user]
    refold = FoldInState(fresh.state().user_prior, replacement.alpha)
    refold.update(fresh.state().movie_factors[items], items,
                  values - replacement.offset)
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        before = scorer.fold_in(items, values)
        scorer.load_version(replacement)
        after = scorer.fold_in(items, values)
        rows = scorer.state().user_factors
    assert rows[after].tobytes() == expected.tobytes()
    assert rows[before].tobytes() == refold.row().tobytes()


def test_load_version_rejects_shape_and_offset_drift(snapshot):
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        with pytest.raises(ValidationError):
            scorer.load_version(
                make_bench_snapshot(N_USERS, N_ITEMS + 3, K, seed=1))
        with pytest.raises(ValidationError):
            scorer.load_version(
                make_bench_snapshot(N_USERS, N_ITEMS, K + 1, seed=1))
        recentred = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=1)
        recentred.offset = snapshot.offset + 1.0
        with pytest.raises(ValidationError, match="offset"):
            scorer.load_version(recentred)
        assert scorer.version == 0 and scorer.n_swaps == 0


def test_every_inherited_call_holds_the_lock_a_swap_takes(snapshot):
    """A hot swap never lands inside a gateway call: the calls the scorer
    inherits from PredictionService run holding the lock load_version
    takes, so a fold-in cannot be lost across a swap.  Each probe asks
    from another thread, mid-call, whether the lock is free."""
    held = []
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        def try_lock():
            free = scorer._lock.acquire(blocking=False)
            if free:
                scorer._lock.release()
            held.append(not free)

        def probing(method):
            def call(*args, **kwargs):
                thread = threading.Thread(target=try_lock)
                thread.start()
                thread.join()
                return method(*args, **kwargs)
            return call

        scorer._check_users = probing(scorer._check_users)
        scorer._check_items = probing(scorer._check_items)
        scorer._append_user_rows = probing(scorer._append_user_rows)
        scorer._foldin.digest = probing(scorer._foldin.digest)
        scorer.predict(0, 1)
        scorer.predict_batch(np.array([1, 2]), np.array([3, 4]))
        cold = scorer.fold_in(np.array([0, 4]), np.array([5.0, 2.0]))
        scorer.fold_in(np.array([1]), np.array([3.0]))
        scorer.add_ratings(cold, np.array([9]), np.array([4.0]))
        scorer.state_digest()
        scorer.top_n(cold, n=3)
    assert len(held) == 9 and all(held), held


def test_fold_in_storm_across_swaps_loses_no_user(snapshot):
    """Fold-ins racing hot swaps: every acknowledged user keeps its id,
    its row and its incremental state, whatever the interleaving."""
    replacements = [make_bench_snapshot(N_USERS, N_ITEMS, K, seed=seed)
                    for seed in range(61, 69)]
    folded, failures = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ShardedScorer(snapshot, n_shards=2) as scorer:
            def fold(offset):
                try:
                    for step in range(50):
                        item = (offset * 50 + step) % N_ITEMS
                        folded.append(scorer.fold_in(np.array([item]),
                                                     np.array([4.0])))
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append(error)

            threads = [threading.Thread(target=fold, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for replacement in replacements:
                scorer.load_version(replacement)
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            n_users, states = scorer.n_users, scorer._foldin.states
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]
    assert sorted(folded) == list(range(N_USERS, N_USERS + 200))
    assert n_users == N_USERS + 200 and sorted(states) == sorted(folded)


def test_swap_under_query_storm_loses_no_requests(snapshot, train):
    """The kill/swap test: a query storm across a hot swap.

    Every request must succeed and return a ranking bit-identical to
    either the old or the new posterior — never a mixture, never an
    error, never a dropped request.
    """
    replacement = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=7)
    old_ref = PredictionService(snapshot, train=train)
    new_ref = PredictionService(replacement, train=train)
    results, failures = [], []

    with ShardedScorer(snapshot, n_shards=2, train=train) as scorer:
        scorer.top_n(0, n=1)  # spawn the pool before any threads exist
        stop = threading.Event()

        def hammer():
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            while not stop.is_set():
                user = int(rng.integers(0, N_USERS))
                try:
                    results.append((user, scorer.top_n(user, n=5)))
                except Exception as error:  # noqa: BLE001 - recorded below
                    failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            scorer.load_version(replacement)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        # A few queries after the swap completed, for good measure.
        for user in (0, 10, 20):
            results.append((user, scorer.top_n(user, n=5)))

    assert not failures, failures[:3]
    assert len(results) >= 3
    matched_new = 0
    for user, served in results:
        old = old_ref.top_n(user, n=5)
        new = new_ref.top_n(user, n=5)
        is_old = (served.items.tolist() == old.items.tolist()
                  and served.scores.tobytes() == old.scores.tobytes())
        is_new = (served.items.tolist() == new.items.tolist()
                  and served.scores.tobytes() == new.scores.tobytes())
        assert is_old or is_new, f"user {user} served a mixed version"
        matched_new += is_new
    assert matched_new >= 3  # the post-swap queries saw the new version


# ---------------------------------------------------------------------------
# the snapshot watcher
# ---------------------------------------------------------------------------

def test_watcher_hot_swaps_on_file_change(snapshot, train, tmp_path):
    path = tmp_path / "model.npz"
    save_snapshot(snapshot, path)
    with ShardedScorer(path, n_shards=2, train=train) as scorer:
        watcher = SnapshotWatcher(scorer, path)
        assert watcher.check_once() is False  # primed: nothing new yet
        replacement = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=21)
        save_snapshot(replacement, path)
        assert watcher.check_once() is True
        assert scorer.version == 1 and watcher.n_reloads == 1
        reference = PredictionService(replacement, train=train)
        _assert_same_recommendation(reference.top_n(5, n=6),
                                    scorer.top_n(5, n=6))


def test_watcher_rejects_corrupt_and_mismatched_snapshots(snapshot, train,
                                                          tmp_path):
    path = tmp_path / "model.npz"
    save_snapshot(snapshot, path)
    with ShardedScorer(path, n_shards=2, train=train) as scorer:
        watcher = SnapshotWatcher(scorer, path)
        before = scorer.top_n(4, n=5)

        path.write_bytes(b"this is not a snapshot")
        assert watcher.check_once() is False
        assert watcher.n_rejected == 1 and watcher.last_error

        save_snapshot(make_bench_snapshot(N_USERS, N_ITEMS + 1, K, seed=2),
                      path)
        assert watcher.check_once() is False
        assert watcher.n_rejected == 2

        # Still serving the original version, bit-for-bit.
        assert scorer.version == 0
        _assert_same_recommendation(before, scorer.top_n(4, n=5))


def test_watcher_directory_mode_picks_newest(snapshot, train, tmp_path):
    save_snapshot(snapshot, tmp_path / "v001.npz")
    with ShardedScorer(tmp_path / "v001.npz", n_shards=2,
                       train=train) as scorer:
        watcher = SnapshotWatcher(scorer, tmp_path)
        # A writer's in-flight atomic-save temp file must never be a
        # candidate, however new it is.
        (tmp_path / "v002.npz.tmp.npz").write_bytes(b"half-written")
        assert watcher.check_once() is False and watcher.n_rejected == 0
        replacement = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=33)
        save_snapshot(replacement, tmp_path / "v002.npz")
        assert watcher.check_once() is True
        reference = PredictionService(replacement, train=train)
        _assert_same_recommendation(reference.top_n(7, n=5),
                                    scorer.top_n(7, n=5))


def test_watcher_retries_transient_failures_then_gives_up(snapshot,
                                                          tmp_path):
    """Gateway-side swap failures retry (bounded); the file isn't skipped."""
    path = tmp_path / "model.npz"
    save_snapshot(snapshot, path)
    with ShardedScorer(path, n_shards=1) as scorer:
        watcher = SnapshotWatcher(scorer, path)
        save_snapshot(make_bench_snapshot(N_USERS, N_ITEMS, K, seed=44), path)
        real, calls = scorer.load_version, {"n": 0}

        def flaky(source):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("transient segment exhaustion")
            return real(source)

        scorer.load_version = flaky
        assert watcher.check_once() is False and watcher.n_rejected == 1
        # Same signature, but within MAX_ATTEMPTS: retried and served.
        assert watcher.check_once() is True
        assert scorer.version == 1 and watcher.n_reloads == 1

        # A persistently failing candidate is abandoned after the cap.
        save_snapshot(make_bench_snapshot(N_USERS, N_ITEMS, K, seed=45), path)
        scorer.load_version = lambda source: (_ for _ in ()).throw(
            MemoryError("still failing"))
        for _ in range(3):
            assert watcher.check_once() is False
        assert watcher.n_rejected == 4
        assert watcher.check_once() is False  # given up: no further attempt
        assert watcher.n_rejected == 4


def test_watcher_thread_runs_and_stops(snapshot, tmp_path):
    path = tmp_path / "model.npz"
    save_snapshot(snapshot, path)
    with ShardedScorer(path, n_shards=1) as scorer:
        with SnapshotWatcher(scorer, path, interval=0.05) as watcher:
            assert watcher.running
        assert not watcher.running


# ---------------------------------------------------------------------------
# worker-pool failure handling
# ---------------------------------------------------------------------------

def test_dead_worker_raises_and_pool_respawns(snapshot):
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        expected = scorer.top_n(3, n=5)
        scorer._workers[0][0].terminate()
        scorer._workers[0][0].join(timeout=5.0)
        with pytest.raises(ClusterError):
            scorer.top_n(3, n=5)
        # The pool respawns lazily and serves the same answers again.
        served = scorer.top_n(3, n=5)
        _assert_same_recommendation(expected, served)


def test_close_is_terminal_and_idempotent(snapshot):
    scorer = ShardedScorer(snapshot, n_shards=2)
    assert len(scorer.top_n(0, n=3)) == 3
    scorer.close()
    scorer.close()
    with pytest.raises(ValidationError):
        scorer.top_n(0, n=3)
