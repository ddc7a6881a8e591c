"""Benchmark: Figure 2 — per-item update time versus rating count.

Regenerates the measured and modelled curves for the three update kernels
and checks the crossover structure that motivates the paper's 1000-rating
hybrid threshold.  The individual kernels are also micro-benchmarked with
pytest-benchmark so their absolute cost on this machine is recorded; those
and the one assert on a *measured* series carry the ``perf`` marker and
run with ``python -m pytest -m perf benchmarks``, not in tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.fig2_update_methods import run_fig2
from repro.core.priors import GaussianPrior
from repro.core.updates import (
    sample_item_parallel_cholesky,
    sample_item_rank_one,
    sample_item_serial_cholesky,
)

NUM_LATENT = 32


FIG2_KWARGS = dict(
    degrees=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    num_latent=NUM_LATENT, repeats=1, max_rank_one_degree=1024)


def test_fig2_update_method_curves(benchmark):
    """The full Figure 2 sweep (measured + modelled series)."""
    result = benchmark.pedantic(run_fig2, kwargs=FIG2_KWARGS,
                                rounds=1, iterations=1)

    print()
    print(result.to_table("measured").render())
    print()
    print(result.to_table("modelled").render())

    # Paper shape, modelled (compiled-kernel) curves: the rank-one update is
    # the cheapest option for lightly-rated items, the serial Cholesky takes
    # over in the middle band, and the parallel Cholesky only wins for the
    # heavy items around the paper's 1000-rating threshold.
    assert result.modelled["rank-one update"][0] < result.modelled["serial Cholesky"][0]
    rank1_to_serial = result.crossover("modelled", "rank-one update", "serial Cholesky")
    serial_to_parallel = result.crossover("modelled", "serial Cholesky",
                                          "parallel Cholesky")
    assert rank1_to_serial is not None and rank1_to_serial <= 256
    assert serial_to_parallel is not None and 256 <= serial_to_parallel <= 4096


@pytest.mark.perf
def test_fig2_measured_serial_cholesky_grows_slowly():
    """Measured (pure-Python) curves keep the same large-item behaviour: the
    Gram-based kernels grow slowly while rank-one grows linearly."""
    result = run_fig2(**FIG2_KWARGS)
    measured_serial = np.array(result.measured["serial Cholesky"])
    assert measured_serial[-1] < 50 * measured_serial[0]


@pytest.mark.perf
@pytest.mark.parametrize("degree", [8, 128, 2048])
def test_kernel_serial_cholesky_microbench(benchmark, degree):
    rng = np.random.default_rng(0)
    neighbours = rng.normal(size=(degree, NUM_LATENT))
    ratings = rng.normal(size=degree)
    prior = GaussianPrior.standard(NUM_LATENT)
    noise = rng.standard_normal(NUM_LATENT)
    benchmark(sample_item_serial_cholesky, neighbours, ratings, prior, 2.0,
              noise=noise)


@pytest.mark.perf
@pytest.mark.parametrize("degree", [8, 128])
def test_kernel_rank_one_microbench(benchmark, degree):
    rng = np.random.default_rng(0)
    neighbours = rng.normal(size=(degree, NUM_LATENT))
    ratings = rng.normal(size=degree)
    prior = GaussianPrior.standard(NUM_LATENT)
    noise = rng.standard_normal(NUM_LATENT)
    benchmark(sample_item_rank_one, neighbours, ratings, prior, 2.0, noise=noise)


@pytest.mark.perf
@pytest.mark.parametrize("degree", [2048])
def test_kernel_parallel_cholesky_microbench(benchmark, degree):
    rng = np.random.default_rng(0)
    neighbours = rng.normal(size=(degree, NUM_LATENT))
    ratings = rng.normal(size=degree)
    prior = GaussianPrior.standard(NUM_LATENT)
    noise = rng.standard_normal(NUM_LATENT)
    benchmark(sample_item_parallel_cholesky, neighbours, ratings, prior, 2.0,
              noise=noise, n_blocks=4)
