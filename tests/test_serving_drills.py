"""The serving drills, run in-process in their CI configuration.

``net-smoke`` and ``wal-smoke`` are the storm-and-kill acceptance tests
of replica failover and of the durable mutation log; ``obs-smoke`` is
the tracing contract.  Each forced-failure test breaks one condition a
drill checks (through a monkeypatched client or fleet) and requires the
drill to fail on it.  ``chaos-smoke`` stays a CI step: its fleet
timeline runs on the wall clock.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.serving import drills
from repro.serving.__main__ import main
from repro.serving.net import NetError, ReplicaSet, ServingClient


def test_net_drill_kills_a_replica_mid_storm_and_reads_keep_succeeding(
        tmp_path, capsys):
    latency = tmp_path / "net.json"
    report = drills.net_drill(latency_out=str(latency))
    assert "NET SMOKE OK" in capsys.readouterr().out
    assert report["failovers"] >= 1
    payload = json.loads(latency.read_text())
    assert payload["benchmark"] == "net-serving-smoke"
    assert set(payload["latency_ms"]) == {"p50", "p95", "mean"}
    assert payload["parity_queries"] == report["parity_queries"] > 0


def test_net_drill_fails_when_no_client_fails_over(monkeypatch, capsys):
    # A kill that never lands: every read succeeds, but nothing failed
    # over, so the failover claim is unproven and the drill must say so.
    monkeypatch.setattr(ReplicaSet, "kill", lambda self, index: None)
    assert main(["net-smoke"]) == 1
    assert "no client failed over" in capsys.readouterr().err


def test_wal_drill_leader_kill_loses_no_acked_write(tmp_path, capsys):
    latency = tmp_path / "wal.json"
    report = drills.wal_drill(latency_out=str(latency))
    assert "WAL SMOKE OK" in capsys.readouterr().out
    assert report["acked_writes"] == drills.WAL_WRITES
    # The leader stayed down until the outage refused a write.
    assert report["write_retries"] >= 1
    assert report["final_seqno"] > report["acked_writes"]
    assert json.loads(latency.read_text())["acked_writes"] \
        == drills.WAL_WRITES


def test_wal_drill_fails_when_a_writer_gives_up(monkeypatch):
    # Every rating after the 30th is refused and writers give up on the
    # first refusal: the drill must not report the storm as done.
    real_rate = ServingClient.rate
    calls = itertools.count()

    def refusing_rate(self, *args, **kwargs):
        if next(calls) >= 30:
            raise NetError("refused", retryable=True)
        return real_rate(self, *args, **kwargs)

    monkeypatch.setattr(ServingClient, "rate", refusing_rate)
    monkeypatch.setattr(drills, "WRITE_GIVE_UP_S", 0.0)
    with pytest.raises(drills.DrillFailure, match="never finished") as info:
        drills.wal_drill()
    assert any(failure.endswith(f"of {drills.WAL_WRITES} writes acked")
               for failure in info.value.failures)


def test_obs_drill_traces_a_write_end_to_end(tmp_path, capsys):
    trace, metrics = tmp_path / "spans.jsonl", tmp_path / "metrics.json"
    drills.obs_drill(trace_out=str(trace), metrics_out=str(metrics))
    assert "OBS SMOKE OK" in capsys.readouterr().out
    names = {json.loads(line)["name"]
             for line in trace.read_text().splitlines()}
    assert {"client.rate", "wal.follower_apply", "fusion.window"} <= names
    assert json.loads(metrics.read_text())["benchmark"] == "obs-smoke"
