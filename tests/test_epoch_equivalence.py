"""Across a change of kernel arithmetic, the chains must stay statistically
the same.

A kernel that draws the same conditionals through another square root
moves every trajectory (the golden test is re-recorded) but must not move
the posterior.  ``data/epoch_summary.json`` summarises 16 seeded chains
per dataset generator, recorded on the kernels before the data-space
rank-one kernel.  The current kernels must be indistinguishable from it:

* the final RMSEs pass a two-sample Kolmogorov-Smirnov test
  (``scipy.stats.ks_2samp``, p > 0.01);
* on each recorded held-out cell, the Gelman-Rubin R-hat of its
  per-sample predictions, pooled over the recorded and the current
  chains, stays below 1.05.

Record a new summary by running this file as a script against the kernels
it should describe: ``PYTHONPATH=src python tests/test_epoch_equivalence.py``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.diagnostics import potential_scale_reduction
from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets import make_chembl_like, make_movielens_like

SUMMARY = pathlib.Path(__file__).parent / "data" / "epoch_summary.json"

#: name -> dataset; both generators at a scale with many low-degree items.
GENERATORS = {
    "movielens": lambda: make_movielens_like(scale=150.0, seed=1),
    "chembl": lambda: make_chembl_like(scale=150.0, seed=1),
}
CONFIG = BPMFConfig(num_latent=8, burn_in=10, n_samples=20)
SEEDS = range(16)
#: Held-out cells whose per-sample predictions are recorded.
CELLS = 8


def summarise(dataset) -> dict:
    """Final RMSE and the first cells' per-sample predictions per seed."""
    rmse, traces = [], []
    for seed in SEEDS:
        result = GibbsSampler(CONFIG, SamplerOptions(
            keep_sample_predictions=True)).run(
            dataset.split.train, dataset.split, seed=seed)
        rmse.append(result.final_rmse)
        traces.append(np.round(result.sample_predictions[:, :CELLS].T,
                               6).tolist())
    return {"final_rmse": rmse, "predictions": traces}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(SUMMARY.read_text())


@pytest.mark.stat
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_chains_match_the_recorded_epoch(recorded, name):
    from scipy.stats import ks_2samp

    then, now = recorded[name], summarise(GENERATORS[name]())
    assert ks_2samp(then["final_rmse"], now["final_rmse"]).pvalue > 0.01
    # (chain, cell, sample), the recorded chains first.
    pooled = np.concatenate([then["predictions"], now["predictions"]])
    for cell in range(CELLS):
        assert potential_scale_reduction(pooled[:, cell]) < 1.05, cell


if __name__ == "__main__":
    SUMMARY.parent.mkdir(exist_ok=True)
    SUMMARY.write_text(json.dumps(
        {name: summarise(make()) for name, make in GENERATORS.items()}))
