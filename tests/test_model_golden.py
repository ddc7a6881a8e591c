"""The performance model's numbers, pinned.

Figures 3-5 and the speed-up ladder come from a cost model, not from a
measurement, so a refactor of the model must reproduce them exactly.
``data/model_golden.json`` holds, for small inputs:

* strong-scaling studies on two structural workloads: one with fewer
  items than the study's scheduler limit (each node's compute is placed
  by the work-stealing scheduler) and one with more (the makespan bound),
  each under overlap on / off, cache model on / off, buffer capacities 8
  and 256 and rack sizes 2 and 32, one node included;
* the Figure 3 thread sweep for the three schedulers at 1, 4 and 16
  threads;
* the speed-up ladder's modelled times;
* every rendered table of the above.

Integers compare exactly and floats within ``rel=1e-12`` (Python 3.12's
``sum()`` compensates where 3.10's does not); tables are byte-identical.

Record a new file by running this module as a script:
``PYTHONPATH=src python tests/test_model_golden.py``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.bench.fig3_multicore import run_fig3
from repro.bench.speedup_summary import run_speedup_summary
from repro.datasets import make_chembl_like, make_scaling_workload
from repro.distributed.scaling import (
    ClusterSpec,
    NetworkModel,
    ScalingConfig,
    strong_scaling_study,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "model_golden.json"

#: name -> workload; 3 800 items takes the scheduler path, 51 000 the bound.
WORKLOADS = {
    "scheduler": dict(n_users=3_000, n_movies=800, n_ratings=60_000, seed=3),
    "bound": dict(n_users=46_000, n_movies=5_000, n_ratings=120_000, seed=4),
}

BASE = ScalingConfig(
    num_latent=32,
    buffer_capacity=256,
    cluster=ClusterSpec(cores_per_node=16, rack_size=2,
                        cache_bytes=256 * 1024, cache_speedup=1.35),
    network=NetworkModel(intra_bandwidth=1.8e9, inter_bandwidth=0.7e9,
                         inter_latency=1.2e-5, uplink_bandwidth=4.0e9),
)

#: name -> (config, node counts).
STUDIES = {
    "base": (BASE, (1, 2, 4, 8)),
    "sync": (dataclasses.replace(BASE, overlap_communication=False), (2, 8)),
    "no_cache": (dataclasses.replace(
        BASE, cluster=dataclasses.replace(BASE.cluster, cache_speedup=1.0)),
        (2, 8)),
    "buffer8": (dataclasses.replace(BASE, buffer_capacity=8), (2, 8)),
    "rack32": (dataclasses.replace(
        BASE, cluster=dataclasses.replace(BASE.cluster, rack_size=32)),
        (2, 8)),
}


def _point(point) -> dict:
    return {
        "n_nodes": point.n_nodes,
        "n_cores": point.n_cores,
        "iteration_time": point.iteration_time,
        "throughput": point.throughput,
        "parallel_efficiency": point.parallel_efficiency,
        "compute": point.breakdown.compute,
        "both": point.breakdown.both,
        "communicate": point.breakdown.communicate,
        "messages_per_iteration": point.messages_per_iteration,
        "bytes_per_iteration": point.bytes_per_iteration,
        "cache_factor_mean": point.cache_factor_mean,
    }


def compute() -> dict:
    """Every pinned number and table, from the model as it stands."""
    out: dict = {"studies": {}, "tables": {}}
    for workload_name, spec in WORKLOADS.items():
        ratings = make_scaling_workload(**spec)
        for study_name, (config, nodes) in STUDIES.items():
            key = f"{workload_name}/{study_name}"
            study = strong_scaling_study(ratings, node_counts=nodes,
                                         config=config)
            out["studies"][key] = [_point(p) for p in study.points]
            out["tables"][key + "/fig4"] = study.to_table().render()
            out["tables"][key + "/fig5"] = study.breakdown_table().render()

    chembl = make_chembl_like(scale=200, seed=11).ratings
    fig3 = run_fig3(ratings=chembl, num_latent=32, thread_counts=(1, 4, 16))
    out["fig3"] = fig3.throughput
    out["tables"]["fig3"] = fig3.to_table().render()

    ladder = run_speedup_summary(ratings=chembl, n_iterations=10,
                                 distributed_nodes=8)
    out["speedup"] = ladder.times_seconds
    out["tables"]["speedup"] = ladder.to_table().render()
    return out


def _same(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _same(actual[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _same(a, e, f"{where}[{index}]")
    elif isinstance(expected, (int, str)):
        assert actual == expected, where
    else:
        assert actual == pytest.approx(expected, rel=1e-12), where


@pytest.fixture(scope="module")
def numbers():
    return compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_scaling_points_match_the_recorded_model(numbers, golden):
    _same(numbers["studies"], golden["studies"], "studies")


def test_thread_sweep_and_speedup_ladder_match(numbers, golden):
    _same(numbers["fig3"], golden["fig3"], "fig3")
    _same(numbers["speedup"], golden["speedup"], "speedup")


def test_rendered_tables_are_byte_identical(numbers, golden):
    assert sorted(numbers["tables"]) == sorted(golden["tables"])
    for key, text in golden["tables"].items():
        assert numbers["tables"][key] == text, key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
