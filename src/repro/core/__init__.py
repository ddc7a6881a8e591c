"""Core BPMF algorithm (the paper's primary computational kernel).

This package implements the Bayesian Probabilistic Matrix Factorization
Gibbs sampler of Salakhutdinov & Mnih (ICML 2008) exactly as used by the
paper:

* Normal–Wishart hyperpriors over the per-user and per-movie Gaussian
  priors (:mod:`repro.core.priors`, :mod:`repro.core.wishart`);
* the conditional update of a single user/movie factor given the factors
  of its rating partners, available through three interchangeable kernels
  — rank-one Cholesky updates, a serial Cholesky solve and a blocked
  "parallel" Cholesky — plus the hybrid policy that picks between them
  based on the item's rating count (:mod:`repro.core.updates`);
* the Gibbs sampler's one chain loop, posterior-mean prediction and RMSE
  evaluation (:mod:`repro.core.gibbs`, :mod:`repro.core.predict`,
  :mod:`repro.core.metrics`);
* versioned posterior snapshots, the checkpoint policy and exact resume
  (:mod:`repro.core.checkpoint`).

Multicore sampling is the same sampler with ``SamplerOptions(n_threads=)``
and the distributed sampler (:mod:`repro.distributed`) runs the same loop
on every rank of a world, which is what guarantees the paper's "all
versions reach the same level of prediction accuracy" property.

Names are exported lazily (PEP 562): each resolves on first access by
importing its own submodule, so a training process loads neither scipy
(only the per-item reference kernels and the side-information sampler
call it) nor any layer above ``core``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BPMFConfig",
    "NormalWishartPrior",
    "GaussianPrior",
    "sample_wishart",
    "sample_normal_wishart",
    "normal_wishart_posterior",
    "normal_wishart_posterior_from_stats",
    "sample_hyperparameters",
    "UpdateMethod",
    "HybridUpdatePolicy",
    "conditional_distribution",
    "sample_item_rank_one",
    "sample_item_serial_cholesky",
    "sample_item_parallel_cholesky",
    "sample_item",
    "cholesky_rank_one_update",
    "BPMFState",
    "initialize_state",
    "UpdateEngine",
    "ReferenceUpdateEngine",
    "BatchedUpdateEngine",
    "available_engines",
    "make_update_engine",
    "SharedMemoryUpdateEngine",
    "WorkerPoolError",
    "GibbsSampler",
    "SamplerOptions",
    "BPMFResult",
    "PosteriorPredictor",
    "FactorMeanAccumulator",
    "predict_ratings",
    "rmse",
    "mae",
    "coverage_interval",
    "ChainDiagnostics",
    "effective_sample_size",
    "potential_scale_reduction",
    "run_chains",
    "Recommendation",
    "recommend_for_user",
    "recommend_batch",
    "ranking_metrics",
    "MacauGibbsSampler",
    "SideInfo",
    "sample_link_matrix",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.core.priors": ("BPMFConfig", "NormalWishartPrior",
                          "GaussianPrior"),
    "repro.core.wishart": ("sample_wishart", "sample_normal_wishart",
                           "normal_wishart_posterior",
                           "normal_wishart_posterior_from_stats",
                           "sample_hyperparameters"),
    "repro.core.updates": ("UpdateMethod", "HybridUpdatePolicy",
                           "conditional_distribution", "sample_item_rank_one",
                           "sample_item_serial_cholesky",
                           "sample_item_parallel_cholesky", "sample_item",
                           "cholesky_rank_one_update"),
    "repro.core.state": ("BPMFState", "initialize_state"),
    "repro.core.batch_engine": ("UpdateEngine", "ReferenceUpdateEngine",
                                "BatchedUpdateEngine", "available_engines",
                                "make_update_engine"),
    "repro.core.shared_engine": ("SharedMemoryUpdateEngine",
                                 "WorkerPoolError"),
    "repro.core.gibbs": ("GibbsSampler", "SamplerOptions", "BPMFResult"),
    "repro.core.predict": ("FactorMeanAccumulator", "PosteriorPredictor",
                           "predict_ratings"),
    "repro.core.metrics": ("rmse", "mae", "coverage_interval"),
    "repro.core.diagnostics": ("ChainDiagnostics", "effective_sample_size",
                               "potential_scale_reduction", "run_chains"),
    "repro.core.recommend": ("Recommendation", "recommend_for_user",
                             "recommend_batch", "ranking_metrics"),
    "repro.core.sideinfo": ("MacauGibbsSampler", "SideInfo",
                            "sample_link_matrix"),
})
