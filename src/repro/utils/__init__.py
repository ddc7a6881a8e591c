"""Shared utilities for the BPMF reproduction.

This package collects small, dependency-free helpers used across the
library: deterministic random-number handling, wall-clock timing,
lightweight logging, plain-text table rendering and argument validation.
"""

from repro.utils.rng import RngRegistry, as_generator, spawn_generators
from repro.utils.timing import time_call
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.tables import Table, format_float, render_table
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_shape,
    check_in,
    ValidationError,
)

__all__ = [
    "RngRegistry",
    "as_generator",
    "spawn_generators",
    "time_call",
    "get_logger",
    "set_verbosity",
    "Table",
    "format_float",
    "render_table",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_shape",
    "check_in",
    "ValidationError",
]
