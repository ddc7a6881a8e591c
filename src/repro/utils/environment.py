"""The process environment: multiprocessing start method and the machine
metadata stamped into recorded benchmark/smoke JSON documents.

Recorded timings are only interpretable next to the machine that produced
them; perfbench's result files and the smoke drills' reports embed
:func:`machine_environment`.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
from typing import Dict

import numpy as np

__all__ = ["default_start_method", "machine_environment"]


def default_start_method() -> str:
    """The start method the worker pools use on this platform.

    A start method the application already fixed (e.g. an explicit
    ``set_start_method("spawn")`` because it runs CUDA or many threads) is
    always respected.  Otherwise: fork on Linux (sub-second pool spawns,
    no pickling), and the platform default everywhere else — macOS
    deliberately defaults to spawn because forking after the parent has
    initialised Accelerate/BLAS can deadlock or abort the children.
    """
    current = multiprocessing.get_start_method(allow_none=True)
    if current is not None:
        return current
    if sys.platform == "linux" \
            and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


def machine_environment() -> Dict[str, object]:
    """CPU count, platform, Python/numpy versions, mp start method."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mp_start_method": default_start_method(),
    }
