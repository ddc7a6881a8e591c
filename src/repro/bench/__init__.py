"""Benchmark harness: one driver module per figure/claim of the paper.

Every experiment in the paper's evaluation section has a driver here that
builds the workload, runs the relevant part of the library and returns the
figure's data series as a :class:`repro.utils.tables.Table` plus structured
results the ``benchmarks/`` pytest targets assert shape properties on.
They are shape checks, not a timing harness: speed claims are judged by
``python3 -m perfbench`` alone.

============================  =========================================
Experiment                    Driver
============================  =========================================
Figure 2 (update kernels)     :func:`repro.bench.fig2_update_methods.run_fig2`
Figure 3 (multicore)          :func:`repro.bench.fig3_multicore.run_fig3`
Figure 4 (strong scaling)     :func:`repro.bench.fig4_strong_scaling.run_fig4`
Figure 5 (overlap breakdown)  :func:`~repro.bench.fig4_strong_scaling.run_fig4`
                              at ``FIG5_NODE_COUNTS``, its ``breakdown_table()``
RMSE parity claim             :func:`repro.bench.accuracy.run_accuracy_parity`
15 days -> 30 minutes claim   :func:`repro.bench.speedup_summary.run_speedup_summary`
============================  =========================================
"""

from repro._lazy import lazy_exports

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "available_experiments",
    "Fig2Result",
    "run_fig2",
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "AccuracyParityResult",
    "run_accuracy_parity",
    "SpeedupSummaryResult",
    "run_speedup_summary",
]

# Lazy (PEP 562): importing one figure's module, or
# ``repro.bench.serving``, loads only the layers that module uses.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.bench.runner": ("ExperimentResult", "run_experiment",
                           "available_experiments"),
    "repro.bench.fig2_update_methods": ("Fig2Result", "run_fig2"),
    "repro.bench.fig3_multicore": ("Fig3Result", "run_fig3"),
    "repro.bench.fig4_strong_scaling": ("Fig4Result", "run_fig4"),
    "repro.bench.accuracy": ("AccuracyParityResult", "run_accuracy_parity"),
    "repro.bench.speedup_summary": ("SpeedupSummaryResult",
                                    "run_speedup_summary"),
})
