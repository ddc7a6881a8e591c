"""Ablation: batched update engine vs the per-item reference loop.

Quantifies the tentpole claim behind the engine refactor — grouping item
updates into degree buckets and executing them with stacked BLAS/LAPACK
must beat the per-item Python loop by a wide margin (the acceptance floor
is 3x at K = 32 on the synthetic workload; in practice the gap is one to
two orders of magnitude, because the loop pays interpreter and dispatch
overhead per item while the engine pays it per bucket).

The speed floors and microbenchmarks carry the ``perf`` marker (their
verdict depends on a measured duration), so tier-1 deselects them; run
them with ``python -m pytest -m perf benchmarks``.  The ``*_same_chain_*``
parity tests are deterministic and stay in tier-1.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.core.state import initialize_state
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.utils.timing import time_call

NUM_LATENT = 32

AVAILABLE_CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def workload():
    """Synthetic low-rank workload sized so the reference loop is measurable."""
    return make_low_rank_dataset(SyntheticConfig(
        n_users=400, n_movies=300, rank=5, density=0.05, noise_std=0.3,
        test_fraction=0.2, seed=17))


def _sweep_seconds(engine: str, data, repeats: int = 2,
                   n_workers: int | None = None) -> float:
    """Best-of-N wall-clock seconds for one full Gibbs sweep."""
    config = BPMFConfig(num_latent=NUM_LATENT, burn_in=0, n_samples=1,
                        alpha=4.0)

    def one_run():
        sampler = GibbsSampler(config, SamplerOptions(
            engine=engine, n_workers=n_workers))
        return sampler.run(data.split.train, data.split, seed=5)

    seconds, _ = time_call(one_run, repeats=repeats)
    return seconds


@pytest.mark.perf
def test_batched_engine_speedup_on_synthetic_workload(workload):
    """Acceptance criterion: >= 3x over the per-item loop at K = 32."""
    reference = _sweep_seconds("reference", workload)
    batched = _sweep_seconds("batched", workload)
    speedup = reference / batched
    print(f"\nfull-sweep K={NUM_LATENT}: reference={reference:.3f}s "
          f"batched={batched:.3f}s speedup={speedup:.1f}x")
    assert speedup >= 3.0


def test_batched_engine_same_chain_on_benchmark_workload(workload):
    """The speedup is not bought with a different chain."""
    config = BPMFConfig(num_latent=8, burn_in=0, n_samples=1, alpha=4.0)
    ref = GibbsSampler(config, SamplerOptions(engine="reference")).run(
        workload.split.train, workload.split, seed=5)
    bat = GibbsSampler(config, SamplerOptions(engine="batched")).run(
        workload.split.train, workload.split, seed=5)
    np.testing.assert_allclose(bat.state.user_factors, ref.state.user_factors,
                               rtol=1e-6, atol=1e-8)


def _warm_sweep_seconds(engine: str, data, n_workers: int | None = None,
                        sweeps: int = 3, repeats: int = 3) -> float:
    """Best-of-``repeats`` per-sweep seconds with a persistent engine.

    One untimed warm-up sweep first, so plan construction and (for the
    shared engine) pool spawning are paid outside the measurement — that
    matches production use, where the pool persists across a whole run.
    """
    config = BPMFConfig(num_latent=NUM_LATENT, burn_in=0, n_samples=1,
                        alpha=4.0)
    train = data.split.train
    sampler = GibbsSampler(config, SamplerOptions(
        engine=engine, n_workers=n_workers))
    try:
        state = initialize_state(train, config, np.random.default_rng(1234))
        rng = np.random.default_rng(5678)
        sampler.sweep(state, train, rng)  # warm-up

        def measured() -> None:
            for _ in range(sweeps):
                sampler.sweep(state, train, rng)

        seconds, _ = time_call(measured, repeats=repeats)
        return seconds / sweeps
    finally:
        sampler.engine.close()


@pytest.mark.perf
@pytest.mark.skipif(
    AVAILABLE_CORES < 4,
    reason=f"shared-engine speedup floor needs >= 4 cores, "
           f"have {AVAILABLE_CORES} (the engine cannot beat physics)")
def test_shared_engine_speedup_on_synthetic_workload(workload):
    """Acceptance criterion: shared@4 workers >= 1.8x over batched@1.

    Perf assertions on shared CI runners are noise-prone, so a miss is
    re-measured once before failing: a genuine regression fails both
    rounds, a scheduling hiccup does not.
    """
    speedup = 0.0
    for _attempt in range(2):
        batched = _warm_sweep_seconds("batched", workload)
        shared = _warm_sweep_seconds("shared", workload, n_workers=4)
        speedup = batched / shared
        print(f"\nfull-sweep K={NUM_LATENT}: batched={batched:.4f}s "
              f"shared@4={shared:.4f}s speedup={speedup:.2f}x")
        if speedup >= 1.8:
            break
    assert speedup >= 1.8


def test_shared_engine_same_chain_on_benchmark_workload(workload):
    """The process backend samples the identical chain (bit for bit)."""
    config = BPMFConfig(num_latent=8, burn_in=0, n_samples=1, alpha=4.0)
    bat = GibbsSampler(config, SamplerOptions(engine="batched")).run(
        workload.split.train, workload.split, seed=5)
    shm = GibbsSampler(config, SamplerOptions(engine="shared",
                                              n_workers=2)).run(
        workload.split.train, workload.split, seed=5)
    np.testing.assert_array_equal(shm.state.user_factors,
                                  bat.state.user_factors)
    np.testing.assert_array_equal(shm.state.movie_factors,
                                  bat.state.movie_factors)


@pytest.mark.perf
@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_sweep_microbench(benchmark, workload, engine):
    """Record both engines' absolute sweep cost on this machine."""
    config = BPMFConfig(num_latent=NUM_LATENT, burn_in=0, n_samples=1,
                        alpha=4.0)
    benchmark.pedantic(
        lambda: GibbsSampler(config, SamplerOptions(engine=engine)).run(
            workload.split.train, workload.split, seed=5),
        rounds=1, iterations=1)
