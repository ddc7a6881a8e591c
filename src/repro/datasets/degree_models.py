"""Degree (ratings-per-item) distribution models.

Real recommendation datasets have heavy-tailed degree distributions: a few
compounds in ChEMBL have tens of thousands of measured activities while
most have a handful, and likewise for MovieLens users.  That skew is what
creates the load imbalance the paper addresses, so the synthetic generators
sample per-item degrees from explicit heavy-tailed models rather than
uniformly at random.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["power_law_degrees", "lognormal_degrees", "scale_degrees_to_nnz"]


def power_law_degrees(
    n: int,
    exponent: float = 1.8,
    min_degree: int = 1,
    max_degree: int | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample ``n`` degrees from a discrete power law ``P(d) ∝ d^-exponent``.

    Uses inverse-CDF sampling of the continuous Pareto and rounds down,
    which is accurate enough for workload modelling.
    """
    check_positive("n", n)
    check_positive("exponent", exponent)
    check_positive("min_degree", min_degree)
    rng = as_generator(seed)
    if max_degree is None:
        max_degree = max(min_degree * 1000, 10)
    if max_degree < min_degree:
        raise ValueError("max_degree must be >= min_degree")
    u = rng.random(n)
    # Truncated Pareto inverse CDF on [min_degree, max_degree].
    a = exponent - 1.0
    if abs(a) < 1e-12:
        # exponent == 1: log-uniform.
        degrees = min_degree * np.exp(u * np.log(max_degree / min_degree))
    else:
        lo = min_degree ** (-a)
        hi = max_degree ** (-a)
        degrees = (lo + u * (hi - lo)) ** (-1.0 / a)
    return np.clip(np.floor(degrees), min_degree, max_degree).astype(np.int64)


def lognormal_degrees(
    n: int,
    mean_log: float = 2.0,
    sigma_log: float = 1.0,
    min_degree: int = 1,
    max_degree: int | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample degrees from a log-normal distribution (MovieLens-user-like)."""
    check_positive("n", n)
    check_positive("sigma_log", sigma_log)
    rng = as_generator(seed)
    degrees = np.exp(rng.normal(mean_log, sigma_log, size=n))
    degrees = np.maximum(np.floor(degrees), min_degree)
    if max_degree is not None:
        degrees = np.minimum(degrees, max_degree)
    return degrees.astype(np.int64)


def scale_degrees_to_nnz(degrees: np.ndarray, target_nnz: int,
                         min_degree: int = 1,
                         max_degree: int | None = None) -> np.ndarray:
    """Rescale a degree vector so it sums (approximately) to ``target_nnz``.

    The shape of the distribution is preserved; only the scale changes.
    Rounding error is corrected in passes over the elements, largest
    first: each pass moves every element that can still move by one unit,
    so the result sums exactly to ``target_nnz`` whenever that is
    feasible under the min/max constraints, and is the clamped vector
    otherwise.
    """
    check_positive("target_nnz", target_nnz)
    degrees = np.asarray(degrees, dtype=np.float64)
    if degrees.size == 0:
        return degrees.astype(np.int64)
    scale = target_nnz / degrees.sum()
    scaled = np.maximum(np.floor(degrees * scale), min_degree)
    if max_degree is not None:
        scaled = np.minimum(scaled, max_degree)
    scaled = scaled.astype(np.int64)
    deficit = int(target_nnz - scaled.sum())
    order = np.argsort(-degrees, kind="stable")
    step = 1 if deficit > 0 else -1
    remaining = abs(deficit)
    while remaining > 0:
        # An element's movability changes only when it moves, so one pass
        # in ``order`` moves exactly the elements movable at its start.
        candidate = scaled[order] + step
        movable = candidate >= min_degree
        if max_degree is not None:
            movable &= candidate <= max_degree
        moving = order[movable][:remaining]
        if moving.size == 0:
            break
        scaled[moving] += step
        remaining -= moving.size
    return scaled
