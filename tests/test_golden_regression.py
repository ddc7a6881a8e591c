"""Golden regression: a fixed-seed 20-sweep run must keep its RMSE trajectory.

The golden values below were produced by the reference (per-item) engine at
the recorded seed.  Two layers of assertion:

* an *exact* layer (tight tolerance) that pins the sampled chain itself —
  any change to the hot path's arithmetic, random-stream consumption or
  update order shows up here immediately;
* a *statistical* layer (loose band) that survives floating-point
  reordering but still catches silently changed statistics (wrong prior,
  dropped ratings, broken noise indexing).

A future hot-path refactor that intentionally changes floating-point
details (and therefore the exact chain) should re-record the golden
trajectory with ``python -m tests.test_golden_regression`` semantics —
rerun the recipe in ``_run()`` — and justify the change in its PR; the
statistical band should survive any correct refactor unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset

SEED = 2024
DATASET = SyntheticConfig(n_users=80, n_movies=60, rank=4, density=0.25,
                          noise_std=0.3, test_fraction=0.2, seed=321)
CONFIG = dict(num_latent=8, burn_in=5, n_samples=15, alpha=4.0)

#: Golden trajectories recorded with engine="reference" at the seed above.
GOLDEN_BURN_IN = np.array([
    0.7118454020, 0.7001605852, 0.7499116034, 0.6800600680, 0.6834076630,
])
GOLDEN_RUNNING_MEAN = np.array([
    0.6749644589, 0.6342491495, 0.6160116379, 0.6189568682, 0.6160862523,
    0.6053203634, 0.6037503919, 0.5958084709, 0.5954318364, 0.5957950538,
    0.5978225044, 0.5909415635, 0.5891169625, 0.5848709809, 0.5771773674,
])

#: Exact layer: pins the chain (same platform/BLAS reproduces ~1e-12).
EXACT_ATOL = 1e-6
#: Statistical layer: survives fp reordering, catches changed statistics.
BAND_ATOL = 0.05


@pytest.fixture(scope="module")
def dataset():
    return make_low_rank_dataset(DATASET)


def _run(dataset, engine: str):
    sampler = GibbsSampler(BPMFConfig(**CONFIG), SamplerOptions(engine=engine))
    return sampler.run(dataset.split.train, dataset.split, seed=SEED)


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_rmse_trajectory_matches_golden(dataset, engine):
    """Both engines reproduce the recorded 20-sweep RMSE trajectory."""
    result = _run(dataset, engine)
    np.testing.assert_allclose(result.rmse_burn_in, GOLDEN_BURN_IN,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=EXACT_ATOL)


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_rmse_trajectory_statistics(dataset, engine):
    """The loose band that must survive any numerically-correct refactor."""
    result = _run(dataset, engine)
    assert len(result.rmse_burn_in) == CONFIG["burn_in"]
    assert len(result.rmse_running_mean) == CONFIG["n_samples"]
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=BAND_ATOL)
    # The posterior mean keeps improving overall and beats burn-in.
    assert result.final_rmse < result.rmse_running_mean[0]
    assert result.final_rmse < min(GOLDEN_BURN_IN)
    # Recovers the planted low-rank signal to within ~2x the noise floor.
    assert result.final_rmse < 2.0 * DATASET.noise_std


def test_socket_world_reproduces_the_golden_chain(dataset):
    """A 4-rank socket-world (real TCP links) run of the distributed
    sampler lands on the very same golden chain — and bit-identically on
    the orchestrated ``SimCommWorld`` chain, exact ties included."""
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )
    from repro.distributed.spmd import run_local_socket_world

    opts = dict(n_ranks=4, hyper_mode="gather")
    reference, _ = DistributedGibbsSampler(
        BPMFConfig(**CONFIG), DistributedOptions(**opts)).run(
        dataset.split.train, dataset.split, seed=SEED)
    outcomes = run_local_socket_world(
        lambda: DistributedGibbsSampler(BPMFConfig(**CONFIG),
                                        DistributedOptions(**opts)),
        4, dataset.split.train, dataset.split, seed=SEED)
    result, _info = outcomes[0]
    np.testing.assert_allclose(result.rmse_burn_in, GOLDEN_BURN_IN,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=EXACT_ATOL)
    # Bitwise against the simulated world, not just within tolerance.
    assert result.rmse_running_mean == reference.rmse_running_mean
    assert np.array_equal(result.state.user_factors,
                          reference.state.user_factors)
    assert np.array_equal(result.state.movie_factors,
                          reference.state.movie_factors)
    assert np.array_equal(result.predictions, reference.predictions)


def _sequential(dataset):
    return _run(dataset, "batched")


def _multicore(dataset):
    return GibbsSampler(BPMFConfig(**CONFIG), SamplerOptions(n_threads=2)).run(
        dataset.split.train, dataset.split, seed=SEED)


def _rank_program(dataset):
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )
    result, _ = DistributedGibbsSampler(
        BPMFConfig(**CONFIG),
        DistributedOptions(n_ranks=2, hyper_mode="gather")).run(
        dataset.split.train, dataset.split, seed=SEED)
    return result


@pytest.mark.parametrize("run", [_sequential, _multicore, _rank_program],
                         ids=["sequential", "multicore", "rank_program"])
def test_one_test_set_predict_per_sweep(dataset, monkeypatch, run):
    """The chain loop predicts the test set once per sweep on every world:
    after burn-in the sample's predictions are the ones the posterior
    predictor accumulates, not a second predict (the ranks each predict
    their own users' cells) — and the golden trajectory does not move."""
    from repro.core.state import BPMFState
    calls = []
    predict = BPMFState.predict

    def counted(self, users, movies):
        calls.append(len(users))
        return predict(self, users, movies)

    monkeypatch.setattr(BPMFState, "predict", counted)
    result = run(dataset)
    assert sum(calls) == (CONFIG["burn_in"] + CONFIG["n_samples"]) \
        * dataset.split.n_test
    np.testing.assert_allclose(result.rmse_burn_in, GOLDEN_BURN_IN,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=EXACT_ATOL)


def test_engines_agree_on_the_full_golden_run(dataset):
    """20-sweep cross-engine agreement on the same seed (chain-level)."""
    ref = _run(dataset, "reference")
    bat = _run(dataset, "batched")
    np.testing.assert_allclose(bat.rmse_running_mean, ref.rmse_running_mean,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(bat.predictions, ref.predictions, atol=1e-4)
