"""Unit tests for the workload and kernel cost models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.updates import UpdateMethod
from repro.distributed.partition import WorkloadModel
from repro.parallel.cost_model import DEFAULT_COST_MODEL


class TestWorkloadModel:
    def test_cost_is_affine_in_degree(self):
        model = WorkloadModel(fixed_cost=2.0, rating_cost=0.5)
        assert model.cost(0) == pytest.approx(2.0)
        assert model.cost(10) == pytest.approx(7.0)

    def test_vectorised(self):
        model = WorkloadModel(fixed_cost=1.0, rating_cost=1.0)
        np.testing.assert_allclose(model.cost(np.array([0, 1, 2])), [1.0, 2.0, 3.0])

    def test_total_cost(self):
        model = WorkloadModel(fixed_cost=1.0, rating_cost=0.1)
        assert model.total_cost([10, 20]) == pytest.approx(2.0 + 3.0)

    def test_validation(self):
        with pytest.raises(Exception):
            WorkloadModel(fixed_cost=0.0)


class TestUpdateCostModel:
    def test_rank_one_linear_in_ratings(self):
        model = DEFAULT_COST_MODEL
        c1 = model.cost(10, UpdateMethod.RANK_ONE)
        c2 = model.cost(20, UpdateMethod.RANK_ONE)
        c3 = model.cost(30, UpdateMethod.RANK_ONE)
        assert (c3 - c2) == pytest.approx(c2 - c1)

    def test_figure2_ordering_small_and_large_items(self):
        """The paper's Figure 2 ordering: rank-one cheapest for tiny items,
        serial Cholesky in the middle band, parallel Cholesky past ~1000."""
        model = DEFAULT_COST_MODEL

        def cheapest(n_ratings, workers=1):
            return min(UpdateMethod, key=lambda method: float(
                model.cost(n_ratings, method, workers=workers)))

        assert cheapest(1) is UpdateMethod.RANK_ONE
        assert cheapest(200) is UpdateMethod.SERIAL_CHOLESKY
        assert cheapest(5000, workers=4) is UpdateMethod.PARALLEL_CHOLESKY

    def test_parallel_crossover_near_paper_threshold(self):
        """The serial->parallel crossover should sit in the same decade as
        the paper's 1000-rating hybrid threshold."""
        model = DEFAULT_COST_MODEL
        crossover = None
        for degree in range(50, 20_000, 50):
            serial = model.cost(degree, UpdateMethod.SERIAL_CHOLESKY)
            parallel = model.cost(degree, UpdateMethod.PARALLEL_CHOLESKY, workers=4)
            if parallel < serial:
                crossover = degree
                break
        assert crossover is not None
        assert 300 <= crossover <= 3000

    def test_workers_reduce_parallel_cost(self):
        model = DEFAULT_COST_MODEL
        slow = model.cost(10_000, UpdateMethod.PARALLEL_CHOLESKY, workers=1)
        fast = model.cost(10_000, UpdateMethod.PARALLEL_CHOLESKY, workers=8)
        assert fast < slow

    def test_latent_dimension_scaling(self):
        model = DEFAULT_COST_MODEL
        small = model.cost(100, UpdateMethod.SERIAL_CHOLESKY, num_latent=model.k_ref)
        large = model.cost(100, UpdateMethod.SERIAL_CHOLESKY,
                           num_latent=2 * model.k_ref)
        assert large > 2 * small  # K^2 per-rating + K^3 factorisation terms

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_COST_MODEL.cost(10, "bogus")

    def test_invalid_workers(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.cost(10, UpdateMethod.SERIAL_CHOLESKY, workers=0)
