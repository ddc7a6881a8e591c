"""Uniform experiment runner.

Gives every figure/claim driver a common entry point so examples, the
command line (``python -m repro.bench``) and the pytest benchmark targets
can run any experiment by name and print its table.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.utils.tables import Table
from repro.utils.validation import check_in

__all__ = ["ExperimentResult", "available_experiments", "run_experiment"]


@dataclass
class ExperimentResult:
    """A named experiment's raw result object, its table and its runtime."""

    name: str
    result: object
    table: Table
    seconds: float

    def render(self) -> str:
        return (f"== {self.name} (completed in {self.seconds:.1f}s) ==\n"
                f"{self.table.render()}")


def _experiments() -> Dict[str, Tuple[Callable[[], object], Callable[[object], Table], str]]:
    # Imported lazily to keep `import repro.bench.runner` cheap.
    from repro.bench.accuracy import run_accuracy_parity
    from repro.bench.fig2_update_methods import run_fig2
    from repro.bench.fig3_multicore import run_fig3
    from repro.bench.fig4_strong_scaling import FIG5_NODE_COUNTS, run_fig4
    from repro.bench.speedup_summary import run_speedup_summary

    return {
        "fig2": (run_fig2, lambda r: r.to_table("modelled"),
                 "Figure 2: per-item update time vs rating count"),
        "fig3": (run_fig3, lambda r: r.to_table(),
                 "Figure 3: multicore throughput vs threads"),
        "fig4": (run_fig4, lambda r: r.to_table(),
                 "Figure 4: distributed strong scaling"),
        # Figure 5 is Figure 4's study over the paper's 1-128 nodes,
        # tabulated as its compute / both / communicate breakdown.
        "fig5": (functools.partial(run_fig4, node_counts=FIG5_NODE_COUNTS),
                 lambda r: r.breakdown_table(),
                 "Figure 5: compute / both / communicate breakdown"),
        "accuracy": (run_accuracy_parity, lambda r: r.to_table(),
                     "RMSE parity across implementations"),
        "speedup": (run_speedup_summary, lambda r: r.to_table(),
                    "End-to-end 15-days-to-30-minutes speed-up ladder"),
    }


def _quick_overrides() -> Dict[str, Dict[str, object]]:
    """Reduced-size kwargs so every experiment finishes in seconds.

    Used by ``python -m repro.bench --quick`` — the CI smoke target.  The
    overrides shrink sweep ranges and workload sizes; they never change the
    code paths exercised.
    """
    from repro.core.priors import BPMFConfig

    return {
        "fig2": dict(degrees=(1, 8, 64, 512), repeats=1,
                     max_rank_one_degree=64),
        "fig3": dict(chembl_scale=10.0, thread_counts=(1, 2)),
        "fig4": dict(n_ratings=100_000, node_counts=(1, 4)),
        "fig5": dict(n_ratings=100_000, node_counts=(1, 4)),
        "accuracy": dict(config=BPMFConfig(num_latent=4, burn_in=2,
                                           n_samples=3, alpha=4.0)),
        "speedup": dict(chembl_scale=10.0, n_iterations=5),
    }


def available_experiments() -> Dict[str, str]:
    """Mapping of experiment name to a one-line description."""
    return {name: description for name, (_, _, description) in _experiments().items()}


def run_experiment(name: str, quick: bool = False, **kwargs) -> ExperimentResult:
    """Run one experiment by name (``fig2`` .. ``fig5``, ``accuracy``, ``speedup``).

    ``quick=True`` applies the reduced-size kwargs used by the CI smoke run
    (explicit ``kwargs`` still win over the quick defaults).
    """
    registry = _experiments()
    check_in("name", name, registry.keys())
    runner, tabulate, _ = registry[name]
    if quick:
        kwargs = {**_quick_overrides().get(name, {}), **kwargs}
    start = time.perf_counter()
    result = runner(**kwargs)
    seconds = time.perf_counter() - start
    return ExperimentResult(name=name, result=result, table=tabulate(result),
                            seconds=seconds)
