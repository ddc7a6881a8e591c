"""``train_movielens`` and ``train_chembl``: the sequential Gibbs sampler.

Untraced, a round is one call to ``GibbsSampler.run``; per-iteration
timestamps come through the public ``SamplerOptions.callback``.  The
burn-in sweeps are the warm-up (they build the bucket plans and fault the
factor matrices in), so every timed op is a sampling iteration of the real
``run`` loop: sweep + predict + RMSE + accumulate.

Traced, the benchmark drives the same chain itself through the public
calls ``GibbsSampler.sweep`` and ``run`` make, with a span around each,
and checks the factors against ``sampler.sweep`` bit for bit.
"""

from __future__ import annotations

import copy
import gc
import math
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core import BPMFConfig, GibbsSampler, SamplerOptions
from repro.core.metrics import rmse
from repro.core.predict import FactorMeanAccumulator, PosteriorPredictor
from repro.core.state import initialize_state
from repro.core.wishart import sample_hyperparameters
from repro.datasets import chembl, movielens
from repro.sparse.buckets import build_bucket_plan
from repro.utils.rng import as_generator

from perfbench.spans import SpanRecorder, seconds, self_ms_by_op
from perfbench.spec import TIMED_OPS

#: Burn-in sweeps, used as the discarded warm-up ops.
WARMUP_SWEEPS = 3

#: workload -> (generator module, generator name, scale, K, RMSE ceiling).
#: The ceilings hold for the shipped chain length (3 + 30 sweeps), where
#: seeds 1-12 end at 0.62-0.63 (movielens) and 0.77-0.84 (chembl, still
#: converging); a chain that stopped learning stays above 1.5.  A shorter
#: smoke chain (small ``--seconds``) is not held to them.
TRAINING = {
    "train_movielens": (movielens, "make_movielens_like", 40.0, 32, 0.8),
    "train_chembl": (chembl, "make_chembl_like", 25.0, 16, 1.2),
}


def generate(workload: str, seed: int,
             recorder: Optional[SpanRecorder] = None):
    """The workload's dataset; traced, the generator and the
    ``train_test_split`` it calls each get a span."""
    module, name, scale, _, _ = TRAINING[workload]
    make = getattr(module, name)
    if recorder is None:
        return make(scale=scale, seed=seed)
    split = module.train_test_split

    def traced_split(*args, **kwargs):
        with recorder.span("sparse.split"):
            return split(*args, **kwargs)

    module.train_test_split = traced_split
    try:
        with recorder.span("datasets.generate"):
            return make(scale=scale, seed=seed)
    finally:
        module.train_test_split = split


def _flops_per_sweep(train, k: int) -> Dict[str, float]:
    """Computed (not measured) flops of one sweep, from degrees and K:
    Gram = X^T X and X^T r per item; factor = one K x K Cholesky plus the
    two LU-backed ``np.linalg.solve`` calls per item."""
    degrees = float(train.nnz) * 2.0  # every rating counts on both axes
    items = train.n_users + train.n_movies
    return {
        "core.gram_flops": degrees * (2.0 * k * k + 2.0 * k),
        "core.factor_flops": items * (k ** 3 / 3.0
                                      + 2.0 * (2.0 * k ** 3 / 3.0
                                               + 2.0 * k * k)),
    }


def _untraced(train, split, config: BPMFConfig, seed: int, t0: float):
    stamps: List[float] = []

    def on_sweep(state, iteration: int) -> None:
        if iteration == config.burn_in - 1:
            gc.collect()
        stamps.append(time.perf_counter())

    sampler = GibbsSampler(config, SamplerOptions(callback=on_sweep))
    result = sampler.run(train, split, seed=seed)
    timed = np.asarray(stamps[config.burn_in - 1:])
    return {
        "setup_s": float(timed[0] - t0),
        "op_ms": (np.diff(timed) * 1e3).tolist(),
        "wall_s": float(timed[-1] - timed[0]),
        "final_rmse": result.final_rmse,
        "items_updated": result.items_updated,
    }


def _traced(train, split, config: BPMFConfig, seed: int, t0: float,
            recorder: SpanRecorder):
    """The ``run`` loop, driven from here with a span per layer call."""
    k = config.num_latent
    sampler = GibbsSampler(config)
    engine = sampler.engine
    rng = as_generator(seed)
    state = initialize_state(train, config, rng)
    test_users, test_movies, test_values = split.test_triplets()
    predictor = PosteriorPredictor(test_users, test_movies)
    factor_means = FactorMeanAccumulator.for_state(state)
    mean_rmse = math.nan
    sweeps_match = True
    stamps: List[float] = []
    for iteration in range(config.total_iterations):
        warm = iteration < config.burn_in
        if warm:
            # The same sweep through sampler.sweep, from a copy of the
            # state and of the generator, must land on the same bits.
            shadow, shadow_rng = state.copy(), copy.deepcopy(rng)
        with recorder.span("op", op_id=iteration):
            with recorder.span("core.hyper"):
                state.movie_prior = sample_hyperparameters(
                    state.movie_factors, config.movie_hyperprior, rng)
            with recorder.span("core.noise"):
                noise = rng.standard_normal((train.n_movies, k))
            with recorder.span("core.update_movies"):
                engine.update_items(
                    state.movie_factors, state.user_factors, train.by_movie,
                    state.movie_prior, config.alpha, noise)
            with recorder.span("core.hyper"):
                state.user_prior = sample_hyperparameters(
                    state.user_factors, config.user_hyperprior, rng)
            with recorder.span("core.noise"):
                noise = rng.standard_normal((train.n_users, k))
            with recorder.span("core.update_users"):
                engine.update_items(
                    state.user_factors, state.movie_factors, train.by_user,
                    state.user_prior, config.alpha, noise)
            state.iteration += 1
            with recorder.span("core.eval"):
                sample_pred = state.predict(test_users, test_movies)
                if not warm:
                    predictor.accumulate(state)
                    mean_rmse = rmse(predictor.mean_prediction(),
                                     test_values)
                    factor_means.accumulate(state)
                rmse(sample_pred, test_values)
        if warm:
            sampler.sweep(shadow, train, shadow_rng)
            sweeps_match = (
                sweeps_match
                and np.array_equal(shadow.user_factors, state.user_factors)
                and np.array_equal(shadow.movie_factors,
                                   state.movie_factors))
            if iteration == config.burn_in - 1:
                gc.collect()
        stamps.append(time.perf_counter())
    timed = np.asarray(stamps[config.burn_in - 1:])
    return {
        "setup_s": float(timed[0] - t0),
        "op_ms": (np.diff(timed) * 1e3).tolist(),
        "wall_s": float(timed[-1] - timed[0]),
        "final_rmse": float(mean_rmse),
        "items_updated": (train.n_users + train.n_movies)
        * config.total_iterations,
        "sweeps_match": sweeps_match,
    }


def _layers(train, config: BPMFConfig, recorder: SpanRecorder,
            op_ms: List[float]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    by_op = self_ms_by_op(recorder.spans)
    timed_ops = [names for op, names in by_op.items()
                 if op >= config.burn_in]
    core = ("core.hyper", "core.noise", "core.update_movies",
            "core.update_users", "core.eval")
    for name in core:
        layers[name + "_ms"] = float(np.median(
            [names.get(name, 0.0) for names in timed_ops]))
    layers["trace.layers_over_op"] = (
        sum(layers[name + "_ms"] for name in core) / float(np.median(op_ms)))
    layers["core.items_updated"] = float(train.n_users + train.n_movies)
    layers.update(_flops_per_sweep(train, config.num_latent))

    setup = {span["name"]: span for span in recorder.spans
             if span["op_id"] is None}
    split_s = seconds(setup["sparse.split"])
    layers["sparse.split_s"] = split_s
    layers["datasets.generate_s"] = (seconds(setup["datasets.generate"])
                                     - split_s)  # self time
    # Cold plan builds, both axes (the cached plans the sweeps used are
    # not touched: build_bucket_plan never consults the cache).
    with recorder.span("sparse.plan_build") as build:
        plans = [build_bucket_plan(train.by_movie),
                 build_bucket_plan(train.by_user)]
    layers["sparse.plan_build_ms"] = seconds(build) * 1e3
    layers["sparse.n_buckets"] = float(sum(plan.n_buckets for plan in plans))
    return layers


def run(workload: str, seed: int, n_ops: int, traced: bool, t0: float,
        workdir: str) -> Dict[str, object]:
    _, _, _, k, ceiling = TRAINING[workload]
    recorder = SpanRecorder() if traced else None
    data = generate(workload, seed, recorder)
    train, split = data.split.train, data.split
    config = BPMFConfig(num_latent=k, burn_in=WARMUP_SWEEPS, n_samples=n_ops)
    if traced:
        measured = _traced(train, split, config, seed, t0, recorder)
    else:
        measured = _untraced(train, split, config, seed, t0)

    final_rmse = measured["final_rmse"]
    if n_ops < TIMED_OPS[workload]:
        ceiling = math.inf
    expected_items = (train.n_users + train.n_movies) * config.total_iterations
    checks = [
        {"name": "final_rmse_finite_and_below_ceiling",
         "ok": bool(math.isfinite(final_rmse) and final_rmse < ceiling),
         "detail": f"final_rmse={final_rmse!r} ceiling={ceiling}"},
        {"name": "every_item_updated_every_sweep",
         "ok": measured["items_updated"] == expected_items,
         "detail": f"{measured['items_updated']} of {expected_items}"},
    ]
    report: Dict[str, object] = {
        "setup_s": measured["setup_s"],
        "op_ms": measured["op_ms"],
        "wall_s": measured["wall_s"],
        "work": n_ops * (train.n_users + train.n_movies),
        "ops_attempted": n_ops,
        "ops_failed": 0,
        "checks": checks,
        "fingerprint": {"final_rmse": float(final_rmse).hex()},
    }
    if traced:
        checks.append({
            "name": "traced_sweep_bit_identical_to_sampler_sweep",
            "ok": bool(measured["sweeps_match"]), "detail": ""})
        report["layers"] = _layers(train, config, recorder,
                                   measured["op_ms"])
        report["spans"] = recorder.spans
    return report
