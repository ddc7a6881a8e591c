"""Socket-backed MPI world: verbs, training parity, chaos, obs.

The acceptance bar for ``repro.mpi.net`` is *bit-parity*: a socket-world
run of the distributed sampler's rank program must reproduce the
``SimCommWorld`` chain exactly — factors, RMSE trajectory, predictions,
ties included.  Everything here runs over real localhost TCP links; the
final test crosses real process boundaries via the launcher.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.priors import BPMFConfig
from repro.distributed.sampler import (
    DistributedGibbsSampler,
    DistributedOptions,
    Tag,
)
from repro.distributed.spmd import run_local_socket_world
from repro.mpi.net import (
    MpiTransportError,
    SocketCommWorld,
    free_port,
    start_local_world,
)
from repro.mpi.simmpi import SimCommWorld
from repro.mpi.world import Comm
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serving.chaos.plan import FaultEvent, FaultInjector, FaultPlan
from repro.serving.net.protocol import (
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.utils.validation import ValidationError

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_on_ranks(worlds, body):
    """Run ``body(rank, comm)`` on one thread per rank; re-raise failures."""
    n_ranks = len(worlds)
    results = [None] * n_ranks
    errors = [None] * n_ranks

    def drive(rank):
        try:
            results[rank] = body(rank, worlds[rank].comm())
        except BaseException as error:
            errors[rank] = error
            worlds[rank].abort(f"rank {rank} failed: {error}")

    threads = [threading.Thread(target=drive, args=(rank,), daemon=True)
               for rank in range(n_ranks)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    failures = [error for error in errors if error is not None]
    if failures:
        raise failures[0]
    return results


@pytest.fixture
def world_pair():
    worlds = start_local_world(2, op_timeout=30.0)
    yield worlds
    for world in worlds:
        world.close()


@pytest.fixture
def world_quad():
    worlds = start_local_world(4, op_timeout=60.0)
    yield worlds
    for world in worlds:
        world.close()


# ---------------------------------------------------------------------------
# verb surface
# ---------------------------------------------------------------------------

class TestVerbs:
    def test_tagged_send_recv_roundtrip(self, world_pair):
        def body(rank, comm):
            if rank == 0:
                comm.isend({"x": np.arange(5, dtype=np.float64)}, 1, tag=3)
                return None
            message = comm.recv(source=0, tag=3)
            return message["x"]

        results = run_on_ranks(world_pair, body)
        np.testing.assert_array_equal(results[1], np.arange(5.0))

    def test_binary_arrays_cross_bit_exact(self, world_pair):
        payload = np.array([0.1, 1 / 3, np.pi, 1e-300, -0.0])

        def body(rank, comm):
            if rank == 0:
                comm.isend((np.array([4, 0, 2], dtype=np.int64), payload),
                           1, tag=9)
                return None
            ids, rows = comm.recv(source=0, tag=9)
            return ids, rows

        results = run_on_ranks(world_pair, body)
        ids, rows = results[1]
        assert np.asarray(ids).tolist() == [4, 0, 2]
        # Bitwise, not approximate: the codec ships raw float64 blocks.
        assert np.asarray(rows).tobytes() == payload.tobytes()

    def test_receives_name_their_source_in_any_order(self, world_quad):
        """No barrier and no arrival order to rely on: each receive names
        its source, so rank 3 takes the frames highest source first."""
        def body(rank, comm):
            if rank != 3:
                comm.isend(f"from-{rank}", 3, tag=10 + rank)
                return None
            return [comm.recv(source=source, tag=10 + source)
                    for source in (2, 1, 0)]

        results = run_on_ranks(world_quad, body)
        assert results[3] == ["from-2", "from-1", "from-0"]

    def test_recv_by_tag_overtakes_other_tags(self, world_pair):
        """Each (source, tag) is its own FIFO: a later frame of another
        tag is received first, and one tag's frames keep their order."""
        def body(rank, comm):
            if rank == 0:
                comm.isend("a", 1, tag=1)
                comm.isend("b", 1, tag=2)
                comm.isend("c", 1, tag=1)
                return None
            return [comm.recv(source=0, tag=tag) for tag in (2, 1, 1)]

        results = run_on_ranks(world_pair, body)
        assert results[1] == ["b", "a", "c"]

    def test_allreduce_matches_simcomm_association(self, world_quad):
        # Same contributions through the rank-order sum.
        contributions = [np.array([0.1, 1 / 3]) * (rank + 1)
                        for rank in range(4)]
        expected = sum(contributions[1:], start=contributions[0].copy())

        def body(rank, comm):
            return comm.allreduce(contributions[rank].copy(), key="par")

        results = run_on_ranks(world_quad, body)
        for reduced in results:
            assert np.asarray(reduced).tobytes() == expected.tobytes()

    def test_bcast_from_nonzero_root(self, world_quad):
        def body(rank, comm):
            value = {"w": [1, 2, 3]} if rank == 2 else None
            return comm.bcast(value, root=2)

        results = run_on_ranks(world_quad, body)
        assert all(value == {"w": [1, 2, 3]} for value in results)

    def test_self_send(self, world_pair):
        def body(rank, comm):
            comm.isend(f"self-{rank}", rank, tag=1)
            return comm.recv(source=rank, tag=1)

        results = run_on_ranks(world_pair, body)
        assert results == ["self-0", "self-1"]

    def test_dead_peer_fails_fast_not_hangs(self):
        worlds = start_local_world(2, op_timeout=30.0)
        try:
            worlds[1].abort("simulated crash")  # dies without a goodbye

            def blocked():
                return worlds[0].comm().recv(source=1, tag=1)

            with pytest.raises(MpiTransportError):
                blocked()
        finally:
            for world in worlds:
                world.close()

    def test_undecodable_frame_fails_the_rank_fast(self, wrapped_array_frame):
        """A frame the decoder refuses kills the link through the
        receiver thread's failure path: the rank's next blocking verb
        raises MpiTransportError at once instead of waiting out its
        timeout."""
        worlds = start_local_world(2, op_timeout=30.0)
        try:
            worlds[1]._peers[0].sock.sendall(wrapped_array_frame)
            with pytest.raises(MpiTransportError,
                               match="truncates an array"):
                worlds[0].comm().recv(source=1, tag=1)
        finally:
            for world in worlds:
                world.close()

    def test_malformed_envelope_fails_the_rank_fast(self):
        """A well-framed ``mpi_msg`` without a ``tag`` fails the link:
        the receiver thread records the failure before it exits, so the
        blocked recv raises MpiTransportError at once — not the
        MpiTimeoutError of waiting out the 30 s op_timeout."""
        worlds = start_local_world(2, op_timeout=30.0)
        try:
            worlds[1]._peers[0].sock.sendall(encode_frame(
                Frame("mpi_msg", {"data": None}), binary=True))
            with pytest.raises(MpiTransportError, match="'tag'"):
                worlds[0].comm().recv(source=1, tag=1)
            receiver = worlds[0]._threads[0]
            receiver.join(timeout=5.0)
            assert not receiver.is_alive()
        finally:
            for world in worlds:
                world.close()

    def test_the_source_is_the_link(self):
        """A frame is filed under the rank at the other end of the link it
        arrived on: an envelope arriving on rank 1's link that claims
        ``"src": 2`` is still rank 1's message."""
        worlds = start_local_world(3, op_timeout=30.0)
        try:
            worlds[1]._peers[0].sock.sendall(encode_frame(
                Frame("mpi_msg", {"src": 2, "dst": 0, "tag": 7, "seq": 0,
                                  "epoch": 0, "data": "via-link-1"}),
                binary=True))
            assert worlds[0].comm().recv(source=1, tag=7) == "via-link-1"
            assert worlds[0].pending_messages() == 0
        finally:
            for world in worlds:
                world.close()

    def test_late_rank_zero_costs_no_dial_retry(self, monkeypatch):
        """The rendezvous listener is bound before any rank starts: ranks
        dialling ahead of a slow rank 0 queue in its backlog instead of
        being refused and sleeping out a retry."""
        import repro.mpi.net.world as world_module

        rendezvous = SocketCommWorld._rendezvous

        def late_rank_zero(rank, *args, **kwargs):
            if rank == 0:
                time.sleep(0.3)
            return rendezvous(rank, *args, **kwargs)

        retry_sleeps = []

        def recording_sleep(seconds):
            retry_sleeps.append(seconds)
            time.sleep(seconds)

        monkeypatch.setattr(SocketCommWorld, "_rendezvous",
                            staticmethod(late_rank_zero))
        monkeypatch.setattr(world_module, "time", SimpleNamespace(
            monotonic=time.monotonic, sleep=recording_sleep))
        worlds = start_local_world(3, op_timeout=30.0)
        try:
            assert [world.rank for world in worlds] == [0, 1, 2]
            results = run_on_ranks(worlds, lambda rank, comm: comm.allreduce(
                np.ones(1), key="up"))
            assert [float(result[0]) for result in results] == [3.0] * 3
        finally:
            for world in worlds:
                world.close()
        assert retry_sleeps == []

    def test_pending_messages_counts_undelivered(self, world_pair):
        def body(rank, comm):
            if rank == 0:
                comm.isend("orphan", 1, tag=9)
            comm.barrier()
            return comm.world.pending_messages()

        results = run_on_ranks(world_pair, body)
        assert results == [0, 1]


# ---------------------------------------------------------------------------
# handshake: hellos come from outside the program
# ---------------------------------------------------------------------------

def _join_rank_zero(n_ranks):
    """Rank 0's join on a side thread: ``(rendezvous address, outcome,
    thread)``; ``outcome`` gets the world or the error."""
    server = socket.create_server(("127.0.0.1", 0))
    address = server.getsockname()[:2]
    outcome = {}

    def join():
        try:
            outcome["world"] = SocketCommWorld._join(
                0, n_ranks, address, 5.0, None, 5.0, server=server)
        except BaseException as error:  # asserted by the test
            outcome["error"] = error

    thread = threading.Thread(target=join, daemon=True)
    thread.start()
    return address, outcome, thread


def _say_hello(address, payload):
    sock = socket.create_connection(address, timeout=10.0)
    sock.sendall(encode_frame(Frame("mpi_hello", payload)))
    return sock


def _closed_by_peer(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    finally:
        sock.close()


class TestHandshake:
    """Rank 0 refuses a malformed, out-of-range or duplicate hello with
    :class:`ProtocolError` at once, and closes every socket it accepted."""

    @pytest.mark.parametrize("hellos", [
        [{"rank": 1, "port": 9}],
        [{"rank": 1, "host": "127.0.0.1", "port": "9"}],
        [{"rank": 0, "host": "127.0.0.1", "port": 9}],
        [{"rank": 3, "host": "127.0.0.1", "port": 9}],
        [{"rank": 1, "host": "127.0.0.1", "port": 9},
         {"rank": 1, "host": "127.0.0.1", "port": 9}],
    ], ids=["no-host", "str-port", "own-rank", "out-of-range", "duplicate"])
    def test_rendezvous_refuses_a_bad_hello(self, hellos):
        address, outcome, thread = _join_rank_zero(3)
        socks = [_say_hello(address, hello) for hello in hellos]
        thread.join(timeout=4.0)
        assert isinstance(outcome.get("error"), ProtocolError), outcome
        assert all(_closed_by_peer(sock) for sock in socks)

    @pytest.mark.parametrize("n_ranks, mesh_ranks", [
        (2, [7]), (2, [0]), (3, [1, 1]),
    ], ids=["out-of-range", "lower-rank", "duplicate"])
    def test_mesh_refuses_a_bad_hello(self, n_ranks, mesh_ranks):
        address, outcome, thread = _join_rank_zero(n_ranks)
        rendezvous = [_say_hello(address, {"rank": rank, "host": "127.0.0.1",
                                           "port": 9})
                      for rank in range(1, n_ranks)]
        decoder, frames = FrameDecoder(), []
        while not frames:
            frames = decoder.feed(rendezvous[0].recv(1 << 16))
        for sock in rendezvous:
            sock.close()
        rank_zero = tuple(frames[0].payload["peers"]["0"])
        socks = [_say_hello(rank_zero, {"rank": rank}) for rank in mesh_ranks]
        thread.join(timeout=4.0)
        assert isinstance(outcome.get("error"), ProtocolError), outcome
        assert all(_closed_by_peer(sock) for sock in socks)


def _fake_rank_zero(peers):
    """A rendezvous point that answers one hello with ``{"peers":
    peers}``: ``(address, thread)``."""
    server = socket.create_server(("127.0.0.1", 0))
    address = server.getsockname()[:2]

    def answer():
        with server:
            sock, _ = server.accept()
            with sock:
                decoder = FrameDecoder()
                while not decoder.feed(sock.recv(1 << 16)):
                    pass
                sock.sendall(encode_frame(Frame("mpi_hello",
                                                {"peers": peers})))
                sock.recv(1)  # until the rank hangs up

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return address, thread


_BAD_ADDRESS_MAPS = {
    "short-entry": {"0": ["127.0.0.1"], "1": ["127.0.0.1", 9]},
    "str-port": {"0": ["127.0.0.1", "9"], "1": ["127.0.0.1", 9]},
    "int-host": {"0": [7, 9], "1": ["127.0.0.1", 9]},
    "bad-rank-key": {"x": ["127.0.0.1", 9], "1": ["127.0.0.1", 9]},
    "missing-rank-0": {"1": ["127.0.0.1", 9], "2": ["127.0.0.1", 9]},
}


class TestAddressMap:
    """A rank other than 0 refuses a malformed address map from the
    rendezvous with :class:`ProtocolError`, and the launcher turns that
    into its failure report (exit 3), not a traceback."""

    @pytest.mark.parametrize("peers", list(_BAD_ADDRESS_MAPS.values()),
                             ids=list(_BAD_ADDRESS_MAPS))
    def test_malformed_address_map_is_a_protocol_error(self, peers):
        address, thread = _fake_rank_zero(peers)
        with pytest.raises(ProtocolError, match="rendezvous"):
            SocketCommWorld.connect(1, 2, address, timeout=5.0)
        thread.join(timeout=5.0)

    def test_launcher_reports_a_malformed_address_map(self, tmp_path):
        from repro.mpi.net.__main__ import main

        address, thread = _fake_rank_zero(_BAD_ADDRESS_MAPS["short-entry"])
        report = tmp_path / "rank1.json"
        assert main(["--rank", "1", "--world", "2", "--rendezvous",
                     "%s:%d" % address, "--connect-timeout", "5",
                     "--report", str(report)]) == 3
        thread.join(timeout=5.0)
        written = json.loads(report.read_text())
        assert written["ok"] is False
        assert written["error"].startswith("ProtocolError: ")


@pytest.mark.parametrize("argv", [
    ["--spawn", "--world", "0"],
    ["--smoke", "--world", "-1"],
    ["--rank", "0", "--world", "2"],
    ["--rank", "2", "--world", "2", "--rendezvous", "127.0.0.1:1"],
    ["--spawn", "--world", "2", "--n-samples", "0"],
    ["--spawn", "--world", "2", "--users", "0"],
], ids=["spawn-world-0", "smoke-world-negative", "rank-without-rendezvous",
        "rank-outside-world", "no-samples", "no-users"])
def test_launcher_usage_errors_exit_2_before_any_rank_runs(
        argv, tmp_path, capsys, monkeypatch):
    """A usage or validation error is one ``error:`` line and exit 2;
    nothing is spawned or connected first."""
    from repro.mpi.net import __main__ as launcher

    def refuse(*args, **kwargs):
        raise AssertionError("a rank ran despite a usage error")

    monkeypatch.setattr(launcher.subprocess, "Popen", refuse)
    monkeypatch.setattr(launcher.SocketCommWorld, "connect", refuse)
    assert launcher.main(argv + ["--workdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# training parity (the acceptance criterion)
# ---------------------------------------------------------------------------

def _config():
    return BPMFConfig(num_latent=3, burn_in=2, n_samples=3, alpha=4.0)


def _run_pair(tiny_dataset, n_ranks, hyper_mode, injectors=None):
    """(simulated-world result, info, socket-world outcomes) for one setup."""
    opts = dict(n_ranks=n_ranks, hyper_mode=hyper_mode)
    reference, ref_info = DistributedGibbsSampler(
        _config(), DistributedOptions(**opts)).run(
        tiny_dataset.split.train, tiny_dataset.split, seed=11)
    outcomes = run_local_socket_world(
        lambda: DistributedGibbsSampler(_config(),
                                        DistributedOptions(**opts)),
        n_ranks, tiny_dataset.split.train, tiny_dataset.split, seed=11,
        injectors=injectors)
    return reference, ref_info, outcomes


class TestTrainingParity:
    @pytest.mark.parametrize("hyper_mode", ["stats", "gather"])
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_socket_chain_bit_identical(self, tiny_dataset, n_ranks,
                                        hyper_mode):
        reference, _, outcomes = _run_pair(tiny_dataset, n_ranks, hyper_mode)
        result, info = outcomes[0]
        assert result is not None
        # Bitwise equality — exact ties included, not allclose.
        assert np.array_equal(result.state.user_factors,
                              reference.state.user_factors)
        assert np.array_equal(result.state.movie_factors,
                              reference.state.movie_factors)
        assert result.rmse_burn_in == reference.rmse_burn_in
        assert result.rmse_per_sample == reference.rmse_per_sample
        assert result.rmse_running_mean == reference.rmse_running_mean
        assert np.array_equal(result.predictions, reference.predictions)
        # Rank 0 reports the whole world's work on either transport.
        train = tiny_dataset.split.train
        assert result.items_updated == reference.items_updated == (
            (train.n_users + train.n_movies) * _config().total_iterations)
        assert result.factor_means.n_samples == _config().n_samples
        assert np.array_equal(result.factor_means.user_sum,
                              reference.factor_means.user_sum)
        assert np.array_equal(result.factor_means.movie_sum,
                              reference.factor_means.movie_sum)
        # Non-root ranks hold only their blocks.
        assert all(outcomes[rank][0] is None for rank in range(1, n_ranks))
        # Traffic flowed over real sockets.
        assert info.n_messages > 0 and info.bytes_sent > 0

    def test_both_links_log_the_same_messages(self, tiny_dataset):
        """One program, one traffic log: every socket rank sends the
        ``(destination, tag, n_bytes)`` sequence the in-memory link logs
        for that source, collectives included, and the chains agree."""
        sim = SimCommWorld(2)
        reference, _ = DistributedGibbsSampler(
            _config(), DistributedOptions(n_ranks=2)).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=11,
            comm_world=sim)
        worlds = start_local_world(2, op_timeout=30.0)
        try:
            outcomes = run_on_ranks(worlds, lambda rank, comm: (
                DistributedGibbsSampler(
                    _config(), DistributedOptions(n_ranks=2)).run(
                    tiny_dataset.split.train, tiny_dataset.split, seed=11,
                    comm_world=worlds[rank])))
        finally:
            for world in worlds:
                world.close()
        assert np.array_equal(outcomes[0][0].state.user_factors,
                              reference.state.user_factors)
        for rank, world in enumerate(worlds):
            sent = [(record.destination, record.tag, record.n_bytes)
                    for record in world.message_log]
            assert sent == [(record.destination, record.tag, record.n_bytes)
                            for record in sim.message_log
                            if record.source == rank]
            assert {record.source for record in world.message_log} == {rank}
            assert outcomes[rank][1].n_messages == len(sent)

    def test_socket_traffic_is_pinned(self, tiny_dataset, monkeypatch,
                                      rank_messages):
        """Per-rank messages and wire bytes of a fixed 2-rank socket run.

        The message counts are the one traffic formula of both links
        (``rank_messages``).  A change to the wire traffic must be
        deliberate: it re-records the byte constants."""
        ids = []
        isend = Comm.isend

        def recorded(comm, payload, dest, tag=0):
            if tag in (Tag.MOVIES, Tag.USERS):
                ids.append(payload[0].dtype)
            return isend(comm, payload, dest, tag)

        monkeypatch.setattr(Comm, "isend", recorded)
        outcomes = run_local_socket_world(
            lambda: DistributedGibbsSampler(
                _config(), DistributedOptions(n_ranks=2)),
            2, tiny_dataset.split.train, tiny_dataset.split, seed=11)
        plan, sweeps = outcomes[0][1].plan, _config().total_iterations
        exchange = sum(np.count_nonzero(plan.items_between(phase), axis=1)
                       for phase in ("movies", "users"))
        assert [info.n_messages for _, info in outcomes] == [
            rank_messages(rank, 2, sweeps, exchange[rank]) for rank in (0, 1)]
        assert [info.n_messages for _, info in outcomes] == [21, 26]
        assert [info.bytes_sent for _, info in outcomes] == [7496, 9792]
        assert len(ids) == sweeps * exchange.sum()
        assert set(ids) == {np.dtype("<i4")}

    def test_generator_seed_is_copied_per_rank_thread(self, tiny_dataset):
        """The rank threads of a local socket world must not share one
        Generator object: each draws from its own copy."""
        reference, _, _ = _run_pair(tiny_dataset, 2, "gather")
        outcomes = run_local_socket_world(
            lambda: DistributedGibbsSampler(
                _config(), DistributedOptions(n_ranks=2, hyper_mode="gather")),
            2, tiny_dataset.split.train, tiny_dataset.split,
            seed=np.random.default_rng(11))
        assert np.array_equal(outcomes[0][0].state.user_factors,
                              reference.state.user_factors)
        assert np.array_equal(outcomes[0][0].state.movie_factors,
                              reference.state.movie_factors)

    def test_four_rank_subprocess_chain_bit_identical(self, tmp_path):
        """The full acceptance criterion: 4 real OS processes, one rank
        each, rendezvous + mesh over TCP — bit-identical to SimCommWorld."""
        sizes = dict(users=40, movies=30, num_latent=3, burn_in=2,
                     n_samples=2, seed=11, data_seed=321)
        port = free_port()
        chain = tmp_path / "chain.npz"
        processes = []
        for rank in range(4):
            command = [sys.executable, "-m", "repro.mpi.net",
                       "--rank", str(rank), "--world", "4",
                       "--rendezvous", f"127.0.0.1:{port}",
                       "--hyper-mode", "gather",
                       "--users", str(sizes["users"]),
                       "--movies", str(sizes["movies"]),
                       "--num-latent", str(sizes["num_latent"]),
                       "--burn-in", str(sizes["burn_in"]),
                       "--n-samples", str(sizes["n_samples"]),
                       "--seed", str(sizes["seed"])]
            if rank == 0:
                command += ["--out", str(chain)]
            processes.append(subprocess.Popen(
                command, cwd=REPO_ROOT,
                env={**__import__("os").environ,
                     "PYTHONPATH": str(REPO_ROOT / "src")}))
        codes = [process.wait(timeout=240) for process in processes]
        assert codes == [0, 0, 0, 0]

        from repro.datasets.synthetic import (
            SyntheticConfig,
            make_low_rank_dataset,
        )
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=sizes["users"], n_movies=sizes["movies"], rank=4,
            density=0.25, noise_std=0.3, test_fraction=0.2,
            seed=sizes["data_seed"]))
        config = BPMFConfig(num_latent=sizes["num_latent"],
                            burn_in=sizes["burn_in"],
                            n_samples=sizes["n_samples"], alpha=4.0)
        reference, _ = DistributedGibbsSampler(
            config, DistributedOptions(n_ranks=4, hyper_mode="gather")).run(
            data.split.train, data.split, seed=sizes["seed"])
        with np.load(chain) as saved:
            assert np.array_equal(saved["user_factors"],
                                  reference.state.user_factors)
            assert np.array_equal(saved["movie_factors"],
                                  reference.state.movie_factors)
            assert np.array_equal(saved["rmse_running_mean"],
                                  np.asarray(reference.rmse_running_mean))
            assert np.array_equal(saved["predictions"],
                                  reference.predictions)

    def test_socket_checkpoint_then_resume_is_bit_identical(
            self, tiny_dataset, tmp_path):
        """Half the chain with rank 0 checkpointing, then fresh worlds
        resume from the file: the finished chain is the uninterrupted one."""
        from repro.core.checkpoint import CheckpointConfig

        path = tmp_path / "socket.npz"
        train, split = tiny_dataset.split.train, tiny_dataset.split
        half = BPMFConfig(num_latent=3, burn_in=2, n_samples=1, alpha=4.0)

        def on_sockets(config, **run_kwargs):
            options = dict(n_ranks=2)
            if "resume" not in run_kwargs:
                options["checkpoint"] = CheckpointConfig(path=path)
            worlds = start_local_world(2, op_timeout=30.0)
            try:
                return run_on_ranks(worlds, lambda rank, comm: (
                    DistributedGibbsSampler(
                        config, DistributedOptions(**options)).run(
                        train, split, comm_world=worlds[rank],
                        **run_kwargs)))
            finally:
                for world in worlds:
                    world.close()

        full, _ = DistributedGibbsSampler(
            _config(), DistributedOptions(n_ranks=2)).run(
            train, split, seed=11)
        on_sockets(half, seed=11)
        outcomes = on_sockets(_config(), resume=path)
        resumed, _ = outcomes[0]
        assert outcomes[1][0] is None
        assert np.array_equal(resumed.state.user_factors,
                              full.state.user_factors)
        assert np.array_equal(resumed.state.movie_factors,
                              full.state.movie_factors)
        assert resumed.rmse_burn_in == full.rmse_burn_in
        assert resumed.rmse_running_mean == full.rmse_running_mean
        assert np.array_equal(resumed.predictions, full.predictions)
        assert resumed.items_updated == full.items_updated

    def test_world_rank_count_must_match_options(self, tiny_dataset):
        worlds = start_local_world(2)
        try:
            sampler = DistributedGibbsSampler(
                _config(), DistributedOptions(n_ranks=4))
            with pytest.raises(ValidationError):
                sampler.run(tiny_dataset.split.train, tiny_dataset.split,
                            comm_world=worlds[0])
        finally:
            for world in worlds:
                world.close()

    def test_orchestrated_run_accepts_external_simworld(self, tiny_dataset):
        """A caller-supplied ``SimCommWorld`` runs the same chain and
        keeps the run's traffic in its message log."""
        from repro.mpi.simmpi import SimCommWorld

        opts = DistributedOptions(n_ranks=2, hyper_mode="gather")
        world = SimCommWorld(2)
        result, _ = DistributedGibbsSampler(_config(), opts).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=11,
            comm_world=world)
        reference, _ = DistributedGibbsSampler(_config(), opts).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=11)
        assert np.array_equal(result.state.user_factors,
                              reference.state.user_factors)
        assert len(world.message_log) > 0


# ---------------------------------------------------------------------------
# chaos integration
# ---------------------------------------------------------------------------

class TestChaos:
    def test_benign_faults_keep_the_chain_bit_identical(self, tiny_dataset):
        """Seeded delays/slow-reads perturb timing, never bits."""
        events = []
        for step in range(2, 40, 3):
            events.append(FaultEvent(site="net.recv", step=step,
                                     action="slow", arg=0.0))
            events.append(FaultEvent(site="net.send", step=step,
                                     action="delay", arg=0.002))
        injectors = [FaultInjector(FaultPlan(seed=1, events=list(events)))
                     for _ in range(2)]
        reference, _, outcomes = _run_pair(tiny_dataset, 2, "gather",
                                           injectors=injectors)
        result, _ = outcomes[0]
        assert np.array_equal(result.state.user_factors,
                              reference.state.user_factors)
        assert result.rmse_running_mean == reference.rmse_running_mean
        assert any(injector.log for injector in injectors)

    def test_injected_reset_fails_fast(self, tiny_dataset):
        """A reset mid-run kills the world with MpiTransportError —
        bounded time, no hang."""
        lethal = FaultPlan(seed=2, events=[
            FaultEvent(site="net.recv", step=8, action="reset")])
        injectors = [None, FaultInjector(lethal)]
        opts = dict(n_ranks=2, hyper_mode="gather")
        with pytest.raises(MpiTransportError):
            run_local_socket_world(
                lambda: DistributedGibbsSampler(
                    _config(), DistributedOptions(**opts)),
                2, tiny_dataset.split.train, tiny_dataset.split, seed=11,
                injectors=injectors, op_timeout=30.0)

    def test_connect_fault_site_is_checked(self):
        plan = FaultPlan(seed=3, events=[
            FaultEvent(site="net.connect", step=1, action="fail")])
        injectors = [None, FaultInjector(plan)]
        with pytest.raises(ConnectionError):
            start_local_world(2, injectors=injectors)


# ---------------------------------------------------------------------------
# obs: metrics provider + spans
# ---------------------------------------------------------------------------

class TestObs:
    def test_transport_counters_registered_under_mpi(self, world_pair):
        registry = MetricsRegistry()
        for world in world_pair:
            world.register_metrics(registry)

        def body(rank, comm):
            comm.isend(np.zeros(16), 1 - rank, tag=1)
            comm.barrier()
            comm.recv(source=1 - rank, tag=1)
            comm.allreduce(np.ones(2), key="m")
            return None

        run_on_ranks(world_pair, body)
        snapshot = registry.snapshot()
        assert snapshot["mpi.allreduce{rank=0}"] == 1
        assert snapshot["mpi.barrier{rank=1}"] == 1
        assert snapshot["mpi.sent.1.messages{rank=0}"] > 0
        assert snapshot["mpi.received.0.bytes{rank=1}"] > 0
        assert snapshot["mpi.pending{rank=0}"] == 0

    def test_sweep_and_exchange_spans_emitted(self, tiny_dataset, tmp_path):
        opts = dict(n_ranks=1, hyper_mode="stats")
        worlds = start_local_world(1)
        try:
            sampler = DistributedGibbsSampler(_config(),
                                              DistributedOptions(**opts))
            with Tracer(sink_dir=str(tmp_path),
                        sink_name="mpi.jsonl") as tracer, \
                    tracer.start("mpi.rank", attrs={"rank": 0}):
                sampler.run(tiny_dataset.split.train, tiny_dataset.split,
                            seed=11, comm_world=worlds[0])
        finally:
            for world in worlds:
                world.close()
        spans = [json.loads(line)
                 for line in (tmp_path / "mpi.jsonl").read_text().splitlines()]
        names = {span["name"] for span in spans}
        assert "mpi.sweep" in names and "mpi.exchange" in names
        sweeps = [span for span in spans if span["name"] == "mpi.sweep"]
        total = _config().total_iterations
        assert len(sweeps) == total
        # Exchanges are children of their sweep.
        sweep_ids = {span["span_id"] for span in sweeps}
        exchanges = [span for span in spans if span["name"] == "mpi.exchange"]
        assert exchanges and all(span["parent_id"] in sweep_ids
                                 for span in exchanges)
