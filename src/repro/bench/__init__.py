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
Figure 5 (overlap breakdown)  :func:`repro.bench.fig5_overlap.run_fig5`
RMSE parity claim             :func:`repro.bench.accuracy.run_accuracy_parity`
15 days -> 30 minutes claim   :func:`repro.bench.speedup_summary.run_speedup_summary`
============================  =========================================
"""

from repro.bench.runner import ExperimentResult, run_experiment, available_experiments
from repro.bench.fig2_update_methods import Fig2Result, run_fig2
from repro.bench.fig3_multicore import Fig3Result, run_fig3
from repro.bench.fig4_strong_scaling import Fig4Result, run_fig4
from repro.bench.fig5_overlap import Fig5Result, run_fig5
from repro.bench.accuracy import AccuracyParityResult, run_accuracy_parity
from repro.bench.speedup_summary import SpeedupSummaryResult, run_speedup_summary

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
    "Fig5Result",
    "run_fig5",
    "AccuracyParityResult",
    "run_accuracy_parity",
    "SpeedupSummaryResult",
    "run_speedup_summary",
]
