"""Shared fixtures for the test-suite.

Fixtures are deliberately tiny (tens of users/movies, a handful of Gibbs
sweeps) so the whole suite stays fast; statistical assertions use loose
tolerances appropriate for those sizes.

Property tests are seeded.  The ``tier1`` hypothesis profile, loaded
here, sets ``derandomize=True``: every ``@given`` test draws the same
examples on every run, at its own ``max_examples``, so two runs of the
same code agree.  The ``fuzz`` profile (``--hypothesis-profile=fuzz``)
draws fresh random examples at ``FUZZ_EXAMPLES_SCALE`` times each test's
``max_examples``; a failure it finds is pinned back into its test as an
``@example``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.priors import BPMFConfig
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.datasets.chembl import ChemblLikeConfig, make_chembl_like
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import RatingMatrix

#: How many times each test's ``max_examples`` the ``fuzz`` profile runs.
FUZZ_EXAMPLES_SCALE = 10

settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
# Module-level settings objects in the test modules inherit from the
# profile active when they are built, so load it before they import; the
# pytest plugin's --hypothesis-profile option is applied after this.
settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    """Under the ``fuzz`` profile, scale every ``@given`` test's
    ``max_examples`` by :data:`FUZZ_EXAMPLES_SCALE`."""
    if settings.get_current_profile_name() != "fuzz":
        return
    for item in items:
        obj = getattr(item, "obj", None)
        test = getattr(obj, "__func__", obj)  # a method's function
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * FUZZ_EXAMPLES_SCALE)


@pytest.fixture
def rng():
    """A deterministic generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Ground-truth low-rank dataset small enough for per-test Gibbs runs."""
    return make_low_rank_dataset(SyntheticConfig(
        n_users=40, n_movies=30, rank=3, density=0.3, noise_std=0.25,
        test_fraction=0.2, seed=101))


@pytest.fixture(scope="session")
def small_dataset():
    """Slightly larger dataset for accuracy-oriented tests."""
    return make_low_rank_dataset(SyntheticConfig(
        n_users=120, n_movies=90, rank=5, density=0.15, noise_std=0.3,
        test_fraction=0.2, seed=202))


@pytest.fixture(scope="session")
def chembl_tiny():
    """A ChEMBL-like workload with heavy-tailed target degrees."""
    return make_chembl_like(ChemblLikeConfig(scale=400.0, seed=11))


@pytest.fixture(scope="session")
def wrapped_array_frame():
    """A 65-byte binary ``ok`` frame whose one ``<f8`` array block
    declares dims ``(2**32-1, 2**32-1)``: an int64 product of those dims
    wraps negative, which once slipped past the decoder's bounds check
    and escaped as ``ValueError`` instead of ``ProtocolError``."""
    import struct

    from repro.serving.net.protocol import (PROTOCOL_VERSION, _BINARY_FLAG,
                                            _HEADER, _KIND_CODES, _MAGIC)
    body = struct.pack(">I2sBB2I", 2, b"{}", 0, 2, 2**32 - 1, 2**32 - 1)
    body += bytes(55 - len(body))
    return _HEADER.pack(_MAGIC, PROTOCOL_VERSION,
                        _KIND_CODES["ok"] | _BINARY_FLAG, len(body)) + body


@pytest.fixture(scope="session")
def tiny_config():
    """A BPMF configuration sized for the tiny dataset."""
    return BPMFConfig(num_latent=3, burn_in=3, n_samples=5, alpha=4.0)


@pytest.fixture(scope="session")
def rank_messages():
    """The one traffic formula of a stats-mode distributed run, on either
    link: the messages rank ``rank`` of ``n_ranks`` sends over ``sweeps``
    sweeps, given its ``exchange`` frames per sweep (one per reader and
    phase).  Per sweep it adds two allreduces (a contribution to rank 0
    each, or rank 0's results to every other rank) and, off rank 0, its
    eval frame; the final barrier adds one marker per peer."""
    def count(rank, n_ranks, sweeps, exchange):
        allreduce = 2 * (n_ranks - 1 if rank == 0 else 1)
        return sweeps * (exchange + allreduce + (rank != 0)) + n_ranks - 1

    return count


@pytest.fixture(scope="session")
def assert_same_chain():
    """Bitwise equality of every field of two ``BPMFResult``s."""
    def check(result, reference):
        np.testing.assert_array_equal(result.state.user_factors,
                                      reference.state.user_factors)
        np.testing.assert_array_equal(result.state.movie_factors,
                                      reference.state.movie_factors)
        assert result.state.iteration == reference.state.iteration
        assert result.rmse_burn_in == reference.rmse_burn_in
        assert result.rmse_per_sample == reference.rmse_per_sample
        assert result.rmse_running_mean == reference.rmse_running_mean
        np.testing.assert_array_equal(result.predictions,
                                      reference.predictions)
        assert result.factor_means.n_samples == reference.factor_means.n_samples
        np.testing.assert_array_equal(result.factor_means.user_sum,
                                      reference.factor_means.user_sum)
        np.testing.assert_array_equal(result.factor_means.movie_sum,
                                      reference.factor_means.movie_sum)
        assert result.items_updated == reference.items_updated

    return check


@pytest.fixture(scope="session")
def forcing():
    """A policy that gives every item of degree ``1 .. ceiling - 1`` the
    kernel ``method``; degree 0 takes the rank-one kernel under every
    policy (``rank_one_limit`` is at least 1)."""
    def policy(method, grain=512, ceiling=10 ** 9):
        if method is UpdateMethod.RANK_ONE:
            return HybridUpdatePolicy(parallel_threshold=ceiling,
                                      rank_one_threshold=ceiling,
                                      block_grain=grain)
        parallel = method is UpdateMethod.PARALLEL_CHOLESKY
        return HybridUpdatePolicy(
            parallel_threshold=1 if parallel else ceiling,
            rank_one_threshold=1, block_grain=grain)

    return policy


@pytest.fixture(scope="session")
def affine_map():
    """``(u(0), J)`` of a per-item kernel's draw ``u(z) = u(0) + J z``."""
    def split(kernel, neighbours, ratings, prior, alpha):
        at_zero = kernel(neighbours, ratings, prior, alpha,
                         noise=np.zeros(prior.num_latent))
        return at_zero, np.column_stack([
            kernel(neighbours, ratings, prior, alpha, noise=unit) - at_zero
            for unit in np.eye(prior.num_latent)])

    return split


@pytest.fixture
def simple_ratings():
    """A hand-written 4x3 rating matrix with a known pattern.

    ::

        users\\movies   0     1     2
            0          5.0   3.0    -
            1          4.0    -    1.0
            2           -    2.0   4.5
            3          1.0   1.5    -
    """
    coo = CooMatrix.from_triplets(4, 3, [
        (0, 0, 5.0), (0, 1, 3.0),
        (1, 0, 4.0), (1, 2, 1.0),
        (2, 1, 2.0), (2, 2, 4.5),
        (3, 0, 1.0), (3, 1, 1.5),
    ])
    return RatingMatrix.from_coo(coo)
