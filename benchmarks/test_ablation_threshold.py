"""Ablation: the hybrid update-policy threshold (DESIGN.md §5).

The paper fixes the "use the parallel Cholesky" threshold at 1000 ratings
based on Figure 2.  This ablation sweeps the threshold on a ChEMBL-like
workload and confirms (a) that using the hybrid policy beats forcing a
single kernel for every item, and (b) that the chosen threshold sits in the
flat optimum region — i.e. the paper's 1000 is a sensible default, and
extreme thresholds in either direction cost throughput.
"""

from __future__ import annotations

from repro.core.updates import HybridUpdatePolicy
from repro.parallel.sweep import multicore_thread_sweep
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.utils.tables import Table

THREADS = 16
THRESHOLDS = (64, 256, 1000, 4000, 10**9)


def _throughput_for_threshold(ratings, threshold: int) -> float:
    policy = HybridUpdatePolicy(parallel_threshold=threshold,
                                rank_one_threshold=min(32, threshold),
                                block_grain=512)
    sweep = multicore_thread_sweep(ratings, num_latent=32, thread_counts=(THREADS,),
                                   schedulers={"TBB": WorkStealingScheduler()},
                                   policy=policy)
    return sweep.throughput["TBB"][0]


def test_hybrid_threshold_ablation(benchmark, chembl_workload):
    def run_sweep():
        return {threshold: _throughput_for_threshold(chembl_workload, threshold)
                for threshold in THRESHOLDS}

    throughputs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(["parallel threshold (ratings)", "throughput (items/s)"],
                  title=f"Hybrid-threshold ablation ({THREADS} simulated threads)")
    for threshold, value in throughputs.items():
        label = "never split (serial only)" if threshold >= 10**9 else threshold
        table.add_row(label, value)
    print()
    print(table.render())

    paper_threshold = throughputs[1000]
    never_split = throughputs[10**9]
    # Splitting heavy items at the paper's threshold beats never splitting.
    assert paper_threshold >= never_split
    # The paper's choice is within 10% of the best threshold in the sweep.
    assert paper_threshold > 0.9 * max(throughputs.values())
