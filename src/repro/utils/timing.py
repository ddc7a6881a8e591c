"""The wall-clock timing helper used by the Figure 2 code."""

from __future__ import annotations

import time
from typing import Callable, Tuple

__all__ = ["time_call"]


def time_call(func: Callable, *args, repeats: int = 1, **kwargs) -> Tuple[float, object]:
    """Call ``func`` ``repeats`` times and return ``(best_seconds, last_result)``.

    The *minimum* over repeats is returned because it is the least noisy
    estimator of the cost of a deterministic kernel (the same convention
    ``timeit`` uses); Figure 2's measured curves rely on this.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result
