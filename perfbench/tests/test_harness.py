"""Unit tests of the benchmark harness itself (no workload runs, no
wall-clock assertions)."""

import json

import pytest

from perfbench import compare, harness, schedule, spans, spec


def _round(op_ms, setup_s=1.0, rss=100.0, rmse="0x1p-1", failed=0):
    return {"work": 1000, "wall_s": sum(op_ms) / 1e3, "op_ms": op_ms,
            "setup_s": setup_s, "peak_rss_mb": rss,
            "ops_attempted": len(op_ms), "ops_failed": failed,
            "checks": [{"name": "c", "ok": True, "detail": ""}],
            "fingerprint": {"final_rmse": rmse},
            "env": {"load_start": [0.1, 0, 0], "load_end": [0.2, 0, 0]}}


def test_median_of_rounds_and_round_spread():
    reduced = harness.median_and_spread([10.0, 50.0, 11.0, 12.0, 9.0])
    assert reduced["value"] == 11.0  # one noisy round does not move it
    assert reduced["spread"] == pytest.approx((50.0 - 9.0) / 11.0)
    assert reduced["rounds"] == [10.0, 50.0, 11.0, 12.0, 9.0]


def test_reduce_takes_medians_over_rounds_and_sums_op_counts():
    rounds = [_round([10.0, 10.0, 10.0], setup_s=1.0),
              _round([20.0, 20.0, 20.0], setup_s=3.0),
              _round([30.0, 30.0, 90.0], setup_s=2.0, failed=1)]
    entry = harness.reduce_rounds(rounds, None)
    assert entry["metrics"]["op_p50_ms"]["value"] == 20.0
    assert entry["metrics"]["setup_s"]["value"] == 2.0
    assert entry["metrics"]["throughput"]["value"] == pytest.approx(
        1000 / 0.06)
    assert entry["metrics"]["throughput"]["unit"] == "1/s"
    assert (entry["ops_attempted"], entry["ops_failed"]) == (9, 1)
    assert entry["correct"]
    assert "layers" not in entry


def test_reduce_fails_when_rounds_disagree_on_the_output_bits():
    rounds = [_round([1.0]), _round([1.0], rmse="0x1.8p-1")]
    entry = harness.reduce_rounds(rounds, None)
    assert not entry["correct"]
    failed = [check for check in entry["checks"] if not check["ok"]]
    assert [check["name"] for check in failed] == [
        "final_rmse_identical_across_rounds"]


def test_layers_report_every_per_layer_metric_and_zero_for_unused_ones():
    rounds = [_round([10.0, 12.0]), _round([11.0, 13.0])]
    traced = dict(_round([22.0, 24.0]), layers={"core.hyper_ms": 2.5})
    entry = harness.reduce_rounds(rounds, traced)
    layers = entry["layers"]
    assert list(layers) == [name for name, _, _ in spec.PER_LAYER]
    assert layers["core.hyper_ms"] == {"value": 2.5, "unit": "ms"}
    assert layers["serving.wal.fsyncs"]["value"] == 0.0
    assert layers["tail.samples"]["value"] == 4.0
    assert layers["trace.overhead_ratio"]["value"] == pytest.approx(
        23.0 / 11.5)


def test_warnings_flag_loaded_rounds_and_wide_spreads():
    rounds = [_round([10.0]), _round([20.0])]
    rounds[1]["env"]["load_end"][0] = 64.0
    result = {"environment": {"nproc": 2},
              "workloads": {"w": harness.reduce_rounds(rounds, None)}}
    notes = harness.warnings_for(result)
    assert any("load average" in note for note in notes)
    assert any("op_p50_ms" in note and "spread" in note for note in notes)


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        {"id": 0, "name": "op", "start": 0.0, "end": 10.0, "parent": None,
         "op_id": 7},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0,
         "op_id": 7},
        # overlaps `a` by one second: covered time counts once
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0,
         "op_id": 7},
        {"id": 3, "name": "a.inner", "start": 1.5, "end": 2.0, "parent": 1,
         "op_id": 7},
        {"id": 4, "name": "setup", "start": 20.0, "end": 21.0,
         "parent": None, "op_id": None},
    ]
    own = spans.self_times(tree)
    assert own == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5, 4: 1.0}
    by_op = spans.self_ms_by_op(tree)
    assert set(by_op) == {7}  # spans outside any op are left out
    assert by_op[7] == {"op": 5000.0, "a": 2500.0, "b": 3000.0,
                        "a.inner": 500.0}
    assert sum(by_op[7].values()) == 11000.0 - 1000.0 + 1000.0


def test_recorder_nests_per_thread_and_children_inherit_the_op():
    recorder = spans.SpanRecorder()
    with recorder.span("op", op_id=3) as op:
        with recorder.span("layer") as layer:
            pass
    with recorder.span("loose") as loose:
        pass
    assert layer["parent"] == op["id"] and layer["op_id"] == 3
    assert op["parent"] is None and loose["op_id"] is None
    assert [span["name"] for span in recorder.spans] == [
        "layer", "op", "loose"]
    assert all(span["end"] >= span["start"] for span in recorder.spans)


def test_schedule_is_a_pure_function_of_the_seed():
    first = schedule.make_schedule(5, 4, 200, 2000, 4000)
    again = schedule.make_schedule(5, 4, 200, 2000, 4000)
    other = schedule.make_schedule(6, 4, 200, 2000, 4000)
    assert first == again
    assert first != other
    assert len(first) == 4 and all(len(ops) == 200 for ops in first)
    for ops in first:  # the write share is exact, not binomial
        assert sum(op[0] == "rate" for op in ops) == 40
        assert all(0 <= op[1] < 2000 for op in ops if op[0] == "top_n")
        assert all(0 <= op[1] < 4000 and 0.5 <= op[2] <= 5.0
                   for op in ops if op[0] == "rate")


def test_schedule_reads_are_skewed_so_a_small_cache_sees_hits():
    ops = schedule.make_schedule(1, 1, 4000, 2000, 4000,
                                 write_share=0.0)[0]
    users = [op[1] for op in ops]
    hottest = max(set(users), key=users.count)
    assert users.count(hottest) > 40 * (len(users) / 2000)
    assert len(set(users)) > 2000 // 16  # and the cache cannot hold them all


def test_compare_is_direction_aware():
    assert compare.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert compare.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    bounds = {"throughput": {"better": "higher", "bound": 0.1, "unit": "1/s"},
              "op_p50_ms": {"better": "lower", "bound": 0.1, "unit": "ms"}}

    def result(throughput, p50):
        return {"workloads": {"w": {"metrics": {
            "throughput": {"value": throughput},
            "op_p50_ms": {"value": p50}}}}}

    rows = compare.compare(result(100.0, 10.0), result(85.0, 9.0), bounds)
    verdicts = {row["metric"]: row["ok"] for row in rows}
    assert verdicts == {"throughput": False, "op_p50_ms": True}
    rows = compare.compare(result(100.0, 10.0), result(200.0, 10.9), bounds)
    assert all(row["ok"] for row in rows)  # a gain never trips the bound


def test_benchmark_json_matches_the_spec():
    document = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == [
        "train_movielens", "train_chembl", "dist_socket_2rank",
        "serve_mixed"] == list(spec.WORKLOADS)
    assert all(w["why"] and len(w["why"]) <= 200
               for w in document["workloads"])
    end_to_end = {m["name"]: m for m in document["end_to_end"]}
    assert list(end_to_end) == ["throughput", "op_p50_ms", "setup_s",
                                "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"])
            for m in document["end_to_end"]] == list(spec.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values())
    assert [(m["name"], m["unit"], m["better"])
            for m in document["per_layer"]] == list(spec.PER_LAYER)
    assert document["run_seconds"] == spec.RUN_SECONDS
    assert document["paths"] == ["perfbench"]


def test_op_counts_at_run_seconds_keep_the_floors_and_scale_down():
    at_run_seconds = {w: spec.timed_ops(w, spec.RUN_SECONDS)
                      for w in spec.WORKLOADS}
    assert at_run_seconds["train_movielens"] >= 30
    assert at_run_seconds["train_chembl"] >= 30
    assert at_run_seconds["dist_socket_2rank"] >= 10
    assert at_run_seconds["serve_mixed"] * spec.SERVE_CLIENTS >= 4000
    assert spec.ROUNDS == 5
    for workload in spec.WORKLOADS:
        assert spec.timed_ops(workload, 1) == max(
            spec.MIN_OPS[workload],
            round(spec.TIMED_OPS[workload] / spec.RUN_SECONDS))
