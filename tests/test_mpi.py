"""Unit tests for the simulated MPI substrate (world, send schedules) and
the cluster / network / breakdown model the scaling study prices it with."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.distributed.comm_plan import send_schedule
from repro.distributed.scaling import ClusterSpec, NetworkModel, PhaseBreakdown
from repro.mpi.simmpi import SimCommWorld
from repro.utils.validation import ValidationError


# ---------------------------------------------------------------------------
# SimCommWorld
# ---------------------------------------------------------------------------

class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        world = SimCommWorld(2)
        sender, receiver = world.comms()
        payload = np.arange(5.0)
        sender.isend(payload, dest=1, tag=7)
        received = receiver.recv(source=0, tag=7)
        np.testing.assert_array_equal(received, payload)

    def test_recv_matches_tag_and_source(self):
        """Each (source, tag) is its own queue: a receive takes the oldest
        message of the queue it names, whatever was posted before."""
        world = SimCommWorld(3)
        comms = world.comms()
        comms[0].isend("from0-tagA", dest=2, tag=1)
        comms[1].isend("from1-tagB", dest=2, tag=2)
        comms[1].isend("from1-tagA", dest=2, tag=1)
        assert comms[2].recv(source=1, tag=1) == "from1-tagA"
        assert comms[2].recv(source=1, tag=2) == "from1-tagB"
        with pytest.raises(ValidationError, match="would deadlock"):
            comms[2].recv(source=0, tag=2)
        assert comms[2].recv(source=0, tag=1) == "from0-tagA"

    def test_recv_without_message_raises(self):
        world = SimCommWorld(2)
        with pytest.raises(ValidationError):
            world.comm(1).recv(source=0, tag=0)

    def test_invalid_destination(self):
        world = SimCommWorld(2)
        with pytest.raises(ValidationError):
            world.comm(0).isend(1, dest=5)
        with pytest.raises(ValidationError):
            world.comm(9)

    def test_message_ordering_preserved_per_pair(self):
        world = SimCommWorld(2)
        for value in range(5):
            world.comm(0).isend(value, dest=1, tag=1)
        received = [world.comm(1).recv(source=0, tag=1) for _ in range(5)]
        assert received == list(range(5))


class TestAudit:
    def test_message_log_and_traffic_matrix(self):
        """The log holds every post; the bytes between each rank pair
        add up from it."""
        world = SimCommWorld(3)
        world.comm(0).isend(np.zeros(10), dest=1)
        world.comm(0).isend(np.zeros(20), dest=2)
        world.comm(2).isend(np.zeros(5), dest=1)
        matrix = np.zeros((3, 3))
        for record in world.message_log:
            matrix[record.source, record.destination] += record.n_bytes
        assert matrix[0, 1] == 80
        assert matrix[0, 2] == 160
        assert matrix[2, 1] == 40
        assert len(world.message_log) == 3

    def test_pending_messages_counter(self):
        world = SimCommWorld(2)
        world.comm(0).isend("x", dest=1)
        assert world.pending_messages() == 1
        world.comm(1).recv(source=0, tag=0)
        assert world.pending_messages() == 0

    def test_payload_size_estimates(self):
        world = SimCommWorld(2)
        world.comm(0).isend((np.zeros(4), np.zeros((2, 3))), dest=1)
        world.comm(0).isend({"a": np.zeros(2)}, dest=1)
        world.comm(0).isend(3.14, dest=1)
        sizes = [record.n_bytes for record in world.message_log]
        assert sizes[0] == 32 + 48
        assert sizes[1] == 16
        assert sizes[2] == 8


class TestCollectives:
    def test_allreduce_sum(self):
        results = SimCommWorld(3).run(lambda comm: comm.allreduce(
            np.full(4, float(comm.rank + 1)), key="stats"))
        for result in results:
            np.testing.assert_allclose(result, np.full(4, 6.0))
        # Every rank gets its own copy of the reduced array.
        assert results[0] is not results[1]

    def test_allreduce_single_rank(self):
        world = SimCommWorld(1)
        result = world.comm(0).allreduce(np.array([2.0, 3.0]), key="solo")
        np.testing.assert_allclose(result, [2.0, 3.0])

    def test_mismatched_collective_keys_raise(self):
        with pytest.raises(ValidationError, match="collective mismatch"):
            SimCommWorld(2).run(lambda comm: comm.allreduce(
                np.zeros(2), key=f"key-{comm.rank}"))

    def test_mismatched_collective_shapes_raise(self):
        with pytest.raises(ValidationError, match="collective mismatch"):
            SimCommWorld(2).run(lambda comm: comm.allreduce(
                np.zeros(2 + comm.rank), key="k"))

    def test_program_tags_must_not_be_negative(self):
        """Negative tags carry the collectives; the program cannot post
        or receive on them."""
        comm = SimCommWorld(2).comm(0)
        with pytest.raises(ValidationError, match="reserved"):
            comm.isend("x", dest=1, tag=-1)
        with pytest.raises(ValidationError, match="reserved"):
            comm.recv(source=1, tag=-3)
        assert comm.world.message_log == []

    def test_collectives_are_logged_messages(self):
        """An allreduce is one contribution to rank 0 and one result back
        per other rank, a bcast one message per other rank, a barrier one
        marker per ordered rank pair."""
        world = SimCommWorld(3)

        def program(comm):
            comm.allreduce(np.ones(2), key="k")
            comm.bcast("b" if comm.rank == 1 else None, root=1)
            comm.barrier()

        world.run(program)
        tags = [record.tag for record in world.message_log]
        assert tags.count(-1) == 2 * 2
        assert tags.count(-2) == 2
        assert tags.count(-3) == 3 * 2
        assert world.pending_messages() == 0

    def test_bcast(self):
        results = SimCommWorld(3).run(lambda comm: comm.bcast(
            "hello" if comm.rank == 0 else None, root=0))
        assert results == ["hello", "hello", "hello"]

    def test_barrier_outside_run_is_the_same_collective(self):
        SimCommWorld(1).comm(0).barrier()  # a 1-rank world: nobody to wait for
        world = SimCommWorld(2)
        # One thread of control, two ranks: rank 1 can never send its
        # marker.  A second call fails the same way ...
        for _ in range(2):
            with pytest.raises(ValidationError, match="would deadlock"):
                world.comm(0).barrier()
        # ... and the world is still usable.
        assert world.run(lambda comm: comm.barrier()) == [None, None]


# ---------------------------------------------------------------------------
# SimCommWorld.run: the turn-taking scheduler
# ---------------------------------------------------------------------------

def _run_bounded(world, program, seconds=30.0):
    """``world.run(program)`` on a side thread with a bounded join, so a
    scheduler bug fails the test instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["results"] = world.run(program)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "SimCommWorld.run hung"
    return outcome


class TestRun:
    def test_rank_keeps_the_turn_until_it_blocks(self):
        trace = []

        def program(comm):
            trace.append(f"{comm.rank}:start")
            if comm.rank == 0:
                trace.append(("0:got", comm.recv(source=2, tag=1)))
            elif comm.rank == 2:
                comm.isend("x", dest=0, tag=1)
            trace.append(f"{comm.rank}:end")
            return comm.rank * 10

        outcome = _run_bounded(SimCommWorld(3), program)
        assert outcome["results"] == [0, 10, 20]
        assert trace == ["0:start", "1:start", "1:end", "2:start", "2:end",
                         ("0:got", "x"), "0:end"]

    def test_unmatched_recv_raises_in_every_rank(self):
        raised = {}

        def program(comm):
            try:
                comm.recv(source=(comm.rank + 1) % comm.size, tag=7)
            except ValidationError as error:
                raised[comm.rank] = str(error)
                raise

        outcome = _run_bounded(SimCommWorld(3), program)
        assert isinstance(outcome["error"], ValidationError)
        assert sorted(raised) == [0, 1, 2]
        assert all("would deadlock" in text for text in raised.values())

    def test_rank_exception_surfaces_as_itself(self):
        def program(comm):
            if comm.rank == 1:
                raise KeyError("boom")
            return comm.recv(source=1, tag=3)  # never sent: rank 1 is dead

        outcome = _run_bounded(SimCommWorld(3), program)
        assert isinstance(outcome["error"], KeyError)

    def test_message_log_is_a_pure_function_of_the_program(self):
        def program(comm):
            for dest in range(comm.size):
                comm.isend(np.arange(comm.rank + 1.0), dest, tag=comm.rank)
            total = comm.allreduce(np.array([float(comm.rank)]), key="sum")
            got = [comm.recv(source=source, tag=source).size
                   for source in range(comm.size)]
            comm.barrier()
            if comm.rank == 0:
                comm.bcast(float(total[0]), root=0)
                return got
            return got + [comm.bcast(None, root=0)]

        logs, results = [], []
        for _ in range(2):
            world = SimCommWorld(4)
            results.append(_run_bounded(world, program)["results"])
            logs.append(world.message_log)
        # 16 sends, 3 contributions and 3 results, 12 barrier markers and
        # 3 bcast messages.
        assert logs[0] == logs[1] and len(logs[0]) == 16 + 6 + 12 + 3
        assert results[0] == results[1]
        assert world.pending_messages() == 0

    def test_world_is_reusable_after_a_failed_run(self):
        world = SimCommWorld(2)
        with pytest.raises(ValidationError):
            world.run(lambda comm: comm.recv(source=1 - comm.rank, tag=1))
        assert world.run(lambda comm: comm.rank) == [0, 1]

    def test_failed_run_leaves_no_collective_or_mailbox_state(self):
        """Rank 1 dies after rank 0 contributed to a collective and both
        posted messages; the next run on the world starts clean."""
        world = SimCommWorld(2)

        def failing(comm):
            comm.isend(np.ones(2), dest=1 - comm.rank, tag=9)
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            return comm.allreduce(np.ones(1), key="k")

        error = _run_bounded(world, failing)["error"]
        assert isinstance(error, RuntimeError) and "rank 1 died" in str(error)
        assert world.pending_messages() == 0

        def clean(comm):
            comm.barrier()
            return float(comm.allreduce(np.ones(1), key="k")[0])

        assert _run_bounded(world, clean)["results"] == [2.0, 2.0]


# ---------------------------------------------------------------------------
# send buffers
# ---------------------------------------------------------------------------

class TestSendBuffer:
    """The paper's per-destination send buffers, one message per
    destination and phase, as a precomputed schedule."""

    def test_one_message_per_destination_ascending(self):
        messages = send_schedule([0, 0, 1, 2, 2, 3], [2, 1, 1, 2, 1, 1])
        assert [(dest, ids.tolist()) for dest, ids in messages] == [
            (1, [0, 1, 2, 3]), (2, [0, 2])]
        assert all(ids.dtype == np.dtype("<i4") for _, ids in messages)

    def test_flush_empty_is_noop(self):
        assert send_schedule([], []) == []

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(ValidationError):
            send_schedule([0, 1], [1])


# ---------------------------------------------------------------------------
# network / cluster model (repro.distributed.scaling)
# ---------------------------------------------------------------------------

class TestClusterSpec:
    def test_rack_assignment(self):
        cluster = ClusterSpec(rack_size=4)
        assert cluster.n_racks(1) == 1
        assert cluster.n_racks(4) == 1
        assert cluster.n_racks(5) == 2
        assert cluster.n_racks(9) == 3

    def test_cache_factor_limits(self):
        cluster = ClusterSpec(cache_bytes=1000, cache_speedup=1.5)
        assert cluster.cache_factor(100) == pytest.approx(1.5)
        assert cluster.cache_factor(1000) == pytest.approx(1.5)
        assert cluster.cache_factor(8001) == pytest.approx(1.0)
        middle = cluster.cache_factor(3000)
        assert 1.0 < middle < 1.5

    def test_cache_factor_monotone(self):
        cluster = ClusterSpec(cache_bytes=1000, cache_speedup=1.4)
        sizes = [10, 500, 1500, 3000, 6000, 10_000]
        factors = [cluster.cache_factor(size) for size in sizes]
        assert factors == sorted(factors, reverse=True)

    def test_cache_disabled(self):
        cluster = ClusterSpec(cache_speedup=1.0)
        assert cluster.cache_factor(1) == 1.0

    def test_validation(self):
        with pytest.raises(Exception):
            ClusterSpec(cores_per_node=0)
        with pytest.raises(Exception):
            ClusterSpec(cache_speedup=0.5)
        with pytest.raises(Exception):
            ClusterSpec(node_compute_efficiency=0.0)


class TestNetworkModel:
    def test_intra_rack_cheaper_than_inter_rack(self):
        network = NetworkModel()
        one_rack = network.allreduce_time(ClusterSpec(rack_size=8), 8, 1_000_000)
        two_racks = network.allreduce_time(ClusterSpec(rack_size=4), 8, 1_000_000)
        assert one_rack < two_racks

    def test_transfer_time_components(self):
        """One round: message overhead + latency + bytes / bandwidth."""
        cluster = ClusterSpec(rack_size=32)
        network = NetworkModel(per_message_overhead=4e-6, intra_latency=1e-6,
                               intra_bandwidth=1e9)
        assert network.allreduce_time(cluster, 2, 1e6) == pytest.approx(
            4e-6 + 1e-6 + 1e6 / 1e9)

    def test_allreduce_time_grows_logarithmically(self):
        cluster = ClusterSpec(rack_size=32)
        network = NetworkModel()
        t1 = network.allreduce_time(cluster, 1, 1024)
        t8 = network.allreduce_time(cluster, 8, 1024)
        t64 = network.allreduce_time(cluster, 64, 1024)
        assert t1 == 0.0
        # 64 nodes need twice the rounds of 8 nodes and cross racks, so the
        # cost grows — but far more slowly than the 8x node-count increase.
        assert t8 < t64 < 8 * t8

    def test_validation(self):
        with pytest.raises(Exception):
            NetworkModel(intra_bandwidth=0.0)
        with pytest.raises(Exception):
            NetworkModel(per_message_overhead=-1.0)


# ---------------------------------------------------------------------------
# compute / both / communicate breakdown (Figure 5)
# ---------------------------------------------------------------------------

class TestTrace:
    def test_rank_timeline_fractions(self):
        """The breakdown holds the ranks' timelines summed."""
        breakdown = PhaseBreakdown(compute=6.0, both=2.0, communicate=2.0)
        assert breakdown.total == pytest.approx(10.0)
        fractions = breakdown.fractions()
        assert fractions["compute"] == pytest.approx(0.6)
        assert fractions["both"] == pytest.approx(0.2)
        assert fractions["communicate"] == pytest.approx(0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            PhaseBreakdown(compute=-1.0, both=2.0, communicate=2.0)

    def test_breakdown_requires_positive_total(self):
        with pytest.raises(ValidationError):
            PhaseBreakdown(compute=0.0, both=0.0, communicate=0.0)
