"""Machine metadata stamped into recorded benchmark/smoke JSON documents.

Recorded timings are only interpretable next to the machine that produced
them; perfbench's result files and the smoke drills' reports embed this
one dictionary.
"""

from __future__ import annotations

import os
import platform
from typing import Dict

import numpy as np

__all__ = ["machine_environment"]


def machine_environment() -> Dict[str, object]:
    """CPU count, platform, Python/numpy versions, mp start method."""
    # Imported lazily: utils must not depend on core at import time.
    from repro.core.shared_engine import default_start_method

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mp_start_method": default_start_method(),
    }
