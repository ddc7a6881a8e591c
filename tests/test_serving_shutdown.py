"""Graceful shutdown of the serving paths: pools closed, segments unlinked.

Extends the PR 3 kill-mid-sweep discipline to serving: SIGTERM (or
Ctrl-C) on ``serve --shards N`` — stdin or TCP — must stop the worker
pool and unlink every shared-memory segment.  The in-process tests
assert the unlink directly by segment name (the PR 3 pattern); the
subprocess tests assert a clean exit code and, critically, that the
resource tracker reports **no leaked shared_memory objects** on exit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.__main__ import _serve_repl
from repro.core.checkpoint import save_snapshot
from repro.serving.cluster import ShardedScorer, SnapshotWatcher

REPO_ROOT = Path(__file__).resolve().parent.parent
N_USERS, N_ITEMS, K = 40, 29, 4


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("shutdown") / "model.npz"
    save_snapshot(make_bench_snapshot(N_USERS, N_ITEMS, K, seed=9), path)
    return path


def _segment_names(scorer: ShardedScorer) -> list:
    return [block.name for block in scorer._active.item_blocks]


def _assert_unlinked(segment_names) -> None:
    for name in segment_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class _InterruptedStdin:
    """A stdin that serves one command, then delivers the interrupt.

    ``close`` is required: the gateway's forked workers run
    ``multiprocessing``'s child bootstrap, which closes ``sys.stdin``.
    """

    def __init__(self, lines):
        self._lines = list(lines)

    def __iter__(self):
        yield from self._lines
        raise KeyboardInterrupt

    def close(self):
        pass


def test_keyboard_interrupt_closes_pool_and_unlinks_segments(
        snapshot_path, monkeypatch, capsys):
    scorer = ShardedScorer(snapshot_path, n_shards=2)
    watcher = SnapshotWatcher(scorer, snapshot_path, interval=0.1).start()
    names = _segment_names(scorer)
    monkeypatch.setattr("sys.stdin", _InterruptedStdin(["top 0 3\n"]))
    code = _serve_repl(scorer, watcher, "2-shard gateway",
                       owns_service=True)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # banner + the answered query
    assert not watcher.running
    assert not scorer.pool_running
    _assert_unlinked(names)


def _spawn_serve(snapshot_path, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serving", "serve",
         "--snapshot", str(snapshot_path), *extra_args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=str(REPO_ROOT))


def _read_banner(process, timeout: float = 60.0) -> bytes:
    deadline = time.monotonic() + timeout
    line = process.stdout.readline()
    assert line, f"no banner before exit (rc={process.poll()})"
    assert time.monotonic() < deadline
    return line


@pytest.mark.parametrize("extra", [
    ("--shards", "2"),
    ("--shards", "2", "--watch"),
])
def test_sigterm_on_stdin_serve_exits_cleanly_without_leaks(
        snapshot_path, extra):
    process = _spawn_serve(snapshot_path, *extra)
    try:
        banner = _read_banner(process)
        assert b"2-shard gateway" in banner
        # One served query proves the pool is up before the signal.
        process.stdin.write(b"top 0 3\n")
        process.stdin.flush()
        assert process.stdout.readline().strip()
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60.0)
    finally:
        if process.poll() is None:  # pragma: no cover - wedged child
            process.kill()
            process.communicate(timeout=30.0)
    assert process.returncode == 0, stderr.decode()
    assert b"leaked" not in stderr, stderr.decode()
    assert b"Traceback" not in stderr, stderr.decode()


def test_sigterm_on_tcp_serve_drains_and_exits_cleanly(snapshot_path):
    process = _spawn_serve(snapshot_path, "--tcp", "127.0.0.1:0",
                           "--replicas", "2", "--shards", "2")
    try:
        banner = _read_banner(process)
        assert b"over tcp" in banner and b"2 replicas" in banner
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60.0)
    finally:
        if process.poll() is None:  # pragma: no cover - wedged child
            process.kill()
            process.communicate(timeout=30.0)
    assert process.returncode == 0, stderr.decode()
    assert b"draining" in stdout
    assert b"leaked" not in stderr, stderr.decode()
    assert b"Traceback" not in stderr, stderr.decode()


def test_quit_still_tears_down_the_gateway(snapshot_path):
    """The non-signal path keeps the same teardown guarantees."""
    process = _spawn_serve(snapshot_path, "--shards", "2")
    try:
        _read_banner(process)
        stdout, stderr = process.communicate(b"top 0 3\nquit\n",
                                             timeout=60.0)
    finally:
        if process.poll() is None:  # pragma: no cover - wedged child
            process.kill()
            process.communicate(timeout=30.0)
    assert process.returncode == 0, stderr.decode()
    assert stdout.strip()
    assert b"leaked" not in stderr, stderr.decode()
