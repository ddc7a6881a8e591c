"""End-to-end tests of the ``python -m repro.serving`` command line."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.serving.__main__ import main
from repro.core.checkpoint import load_snapshot


@pytest.fixture(scope="module")
def trained_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    code = main(["train", "--snapshot", str(path),
                 "--users", "60", "--movies", "40", "--num-latent", "4",
                 "--burn-in", "2", "--n-samples", "3",
                 "--checkpoint-every", "2"])
    assert code == 0
    return path


def test_train_writes_a_valid_snapshot(trained_snapshot, capsys):
    snapshot = load_snapshot(trained_snapshot)
    assert snapshot.state.iteration == 5
    assert snapshot.mean_count == 3
    assert snapshot.rng_state is not None


def test_train_resume_continues_the_chain(trained_snapshot, tmp_path, capsys):
    out = tmp_path / "longer.npz"
    code = main(["train", "--snapshot", str(out),
                 "--resume", str(trained_snapshot),
                 "--users", "60", "--movies", "40", "--num-latent", "4",
                 "--burn-in", "2", "--n-samples", "5"])
    assert code == 0
    assert load_snapshot(out).state.iteration == 7
    assert "final posterior-mean RMSE" in capsys.readouterr().out


def test_train_multicore_backend(tmp_path, capsys):
    out = tmp_path / "mc.npz"
    code = main(["train", "--snapshot", str(out), "--backend", "multicore",
                 "--threads", "2", "--users", "40", "--movies", "30",
                 "--num-latent", "3", "--burn-in", "1", "--n-samples", "2"])
    assert code == 0
    assert load_snapshot(out).state.iteration == 3


def test_info_reports_the_snapshot(trained_snapshot, capsys):
    assert main(["info", "--snapshot", str(trained_snapshot)]) == 0
    out = capsys.readouterr().out
    assert "60 users x 40 movies" in out
    assert "resumable: True" in out


def test_query_pairs_and_top(trained_snapshot, capsys):
    code = main(["query", "--snapshot", str(trained_snapshot),
                 "--user", "0", "--top", "3", "--pairs", "0:1", "2:7"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("predict") == 2
    assert out.count("top 0 #") == 3
    # Every printed score parses as a finite float.
    scores = [float(line.rsplit(" ", 1)[-1]) for line in out.splitlines()]
    assert np.isfinite(scores).all()


def test_query_without_arguments_errors(trained_snapshot, capsys):
    assert main(["query", "--snapshot", str(trained_snapshot)]) == 2


@pytest.mark.parametrize("bad", [["--pairs", "0"], ["--pairs", "0:x"],
                                 ["--user", "9999"], ["--pairs", "0:9999"]])
def test_query_rejects_bad_input_without_a_traceback(trained_snapshot,
                                                     capsys, bad):
    assert main(["query", "--snapshot", str(trained_snapshot)] + bad) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad", [["--n-samples", "0"],
                                 ["--backend", "multicore", "--threads", "0"],
                                 ["--checkpoint-every", "0"],
                                 ["--checkpoint-every", "-3"],
                                 ["--users", "0"]])
def test_train_rejects_bad_input_without_a_traceback(tmp_path, capsys, bad):
    """A usage error is one ``error:`` line on stderr and exit 2."""
    assert main(["train", "--snapshot", str(tmp_path / "model.npz"),
                 "--users", "20", "--movies", "15", "--num-latent", "2",
                 "--burn-in", "1", "--n-samples", "1"] + bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "model.npz").exists()


def test_serve_line_protocol(trained_snapshot, capsys, monkeypatch):
    commands = "predict 0 1\ntop 0 3\nfoldin 0:4.5 1:3.0\npredict 60 2\nbogus\nquit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(commands))
    assert main(["serve", "--snapshot", str(trained_snapshot)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("serving 60 users x 40 items")
    assert np.isfinite(float(lines[1]))          # predict 0 1
    assert len(lines[2].split()) == 3            # top 0 3
    assert lines[3] == "user 60"                 # fold-in id
    assert np.isfinite(float(lines[4]))          # predict for folded user
    assert lines[5].startswith("error:")         # unknown command reported


def test_train_with_shared_engine(tmp_path, capsys):
    out = tmp_path / "shared.npz"
    code = main(["train", "--snapshot", str(out), "--engine", "shared",
                 "--workers", "2", "--users", "40", "--movies", "30",
                 "--num-latent", "3", "--burn-in", "1", "--n-samples", "2"])
    assert code == 0
    assert load_snapshot(out).state.iteration == 3


def test_train_engines_sample_the_same_chain(tmp_path, capsys):
    """--engine shared must write a bit-identical snapshot to --engine batched."""
    batched, shared = tmp_path / "b.npz", tmp_path / "s.npz"
    common = ["--users", "40", "--movies", "30", "--num-latent", "3",
              "--burn-in", "1", "--n-samples", "2"]
    assert main(["train", "--snapshot", str(batched),
                 "--engine", "batched"] + common) == 0
    assert main(["train", "--snapshot", str(shared),
                 "--engine", "shared", "--workers", "2"] + common) == 0
    left, right = load_snapshot(batched), load_snapshot(shared)
    np.testing.assert_array_equal(left.state.user_factors,
                                  right.state.user_factors)
    np.testing.assert_array_equal(left.state.movie_factors,
                                  right.state.movie_factors)


def test_serve_sharded_gateway(trained_snapshot, capsys, monkeypatch):
    commands = ("predict 0 1\ntop 0 3\nfoldin 0:4.5 1:3.0\nrate 60 2:4.0\n"
                "stats\nquit\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(commands))
    assert main(["serve", "--snapshot", str(trained_snapshot),
                 "--shards", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "2-shard gateway" in lines[0]
    assert np.isfinite(float(lines[1]))          # predict 0 1
    assert len(lines[2].split()) == 3            # top 0 3
    assert lines[3] == "user 60"                 # fold-in id
    assert lines[4] == "user 60 updated"         # incremental update
    assert '"n_shards": 2' in lines[5]           # stats JSON


def test_serve_watch_requires_shards(trained_snapshot, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    assert main(["serve", "--snapshot", str(trained_snapshot),
                 "--watch"]) == 2
    assert capsys.readouterr().err == "error: --watch requires --shards N\n"


def test_serve_tcp_rejects_malformed_hostport(trained_snapshot, capsys):
    for bad in ("localhost", "::1", "127.0.0.1:http"):
        assert main(["serve", "--snapshot", str(trained_snapshot),
                     "--tcp", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "HOST:PORT" in err
    assert main(["serve", "--snapshot", str(trained_snapshot),
                 "--tcp", "127.0.0.1:99999"]) == 2
    assert "0-65535" in capsys.readouterr().err
    assert main(["serve", "--snapshot", str(trained_snapshot),
                 "--tcp", "127.0.0.1:7031", "--replicas", "0"]) == 2
    assert ">= 1" in capsys.readouterr().err
    assert main(["serve", "--snapshot", str(trained_snapshot),
                 "--tcp", "127.0.0.1:65535", "--replicas", "2"]) == 2
    assert "65535" in capsys.readouterr().err


def test_smoke_command(capsys):
    assert main(["smoke"]) == 0
    assert "SMOKE OK" in capsys.readouterr().out


def test_cluster_smoke_command(tmp_path, capsys):
    latency = tmp_path / "latency.json"
    assert main(["cluster-smoke", "--latency-out", str(latency)]) == 0
    assert "CLUSTER SMOKE OK" in capsys.readouterr().out
    import json
    payload = json.loads(latency.read_text())
    assert payload["benchmark"] == "serving-cluster-smoke"
    assert payload["swaps"] == 1 and payload["parity_queries"] > 0
