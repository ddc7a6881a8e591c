"""Hypothesis verb parity: the in-memory and socket links match.

Random round-structured programs — tagged sends, a barrier, then
per-rank ``(source, tag)`` receive descriptors drawn from the round's
traffic, optionally an allreduce — run as ONE rank program on both
worlds (``SimCommWorld.run`` and a thread per rank over sockets).  The
property: both worlds deliver each ``(source, tag)`` queue in posting
order, so every rank receives the *identical payload sequence* on both.
Every descriptor names a message that was posted, and none can take
another queue's message, so no drawn program deadlocks.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi.net import start_local_world
from repro.mpi.simmpi import SimCommWorld
from repro.mpi.world import ALLREDUCE, BARRIER, BCAST, BYE
from repro.utils.validation import ValidationError

# Socket worlds spin up real listeners per example; keep the count modest
# and the deadline off (connect latency is environment noise).
COMMON_SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def round_programs(draw):
    """(n_ranks, rounds) — see module docstring for the round shape."""
    n_ranks = draw(st.integers(min_value=2, max_value=3))
    n_rounds = draw(st.integers(min_value=1, max_value=3))
    rounds = []
    serial = 0
    for _ in range(n_rounds):
        sends = []  # (src, dst, tag, payload) in rank-major posting order
        for src in range(n_ranks):
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                dst = draw(st.integers(min_value=0, max_value=n_ranks - 1))
                tag = draw(st.integers(min_value=0, max_value=2))
                sends.append((src, dst, tag, {"serial": serial,
                                              "src": src, "tag": tag}))
                serial += 1
        recvs = {rank: [] for rank in range(n_ranks)}
        for rank in range(n_ranks):
            incoming = [(src, tag) for src, dst, tag, _ in sends
                        if dst == rank]
            if not incoming:
                continue
            n_recv = draw(st.integers(min_value=0,
                                      max_value=len(incoming)))
            order = draw(st.permutations(incoming))
            recvs[rank].extend(order[:n_recv])
        do_allreduce = draw(st.booleans())
        contributions = None
        if do_allreduce:
            contributions = [
                np.array(draw(st.lists(
                    st.floats(min_value=-8.0, max_value=8.0,
                              allow_nan=False, width=32),
                    min_size=2, max_size=2)), dtype=np.float64)
                for _ in range(n_ranks)]
        rounds.append((sends, recvs, contributions))
    return n_ranks, rounds


def _on_sim(n_ranks, body):
    """``body(rank, comm)`` on every rank of a simulated world."""
    return SimCommWorld(n_ranks).run(lambda comm: body(comm.rank, comm))


def _on_sockets(n_ranks, body):
    """The same body, one thread per rank over localhost sockets."""
    worlds = start_local_world(n_ranks, op_timeout=20.0)
    results = [None] * n_ranks
    errors = [None] * n_ranks

    def drive(rank):
        try:
            results[rank] = body(rank, worlds[rank].comm())
        except BaseException as error:  # surfaced to hypothesis below
            errors[rank] = error
            worlds[rank].abort(f"rank {rank} failed: {error}")

    threads = [threading.Thread(target=drive, args=(rank,), daemon=True)
               for rank in range(n_ranks)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        for world in worlds:
            world.close()
    failures = [error for error in errors if error is not None]
    if failures:
        raise failures[0]
    return results


def _round_program(rounds):
    """The rank program of one drawn ``rounds`` list (either world)."""
    def body(rank, comm):
        received = []
        for sends, recvs, contributions in rounds:
            for src, dst, tag, payload in sends:
                if src == rank:
                    comm.isend(payload, dst, tag=tag)
            # The barriers interleave collectives with the traffic; what
            # a named receive returns must not depend on them.
            comm.barrier()
            for source, tag in recvs[rank]:
                received.append(comm.recv(source=source, tag=tag))
            if contributions is not None:
                value = comm.allreduce(contributions[rank])
                received.append(("allreduce", value.tobytes()))
            comm.barrier()
        return received

    return body


def _canonical(sequence):
    """Wire round-trips turn tuples into lists; compare structure-blind."""
    out = []
    for item in sequence:
        if isinstance(item, tuple):
            out.append(tuple(item))
        else:
            out.append(item)
    return out


@given(round_programs())
@COMMON_SETTINGS
def test_socket_and_sim_deliver_identical_sequences(program):
    n_ranks, rounds = program
    sim = _on_sim(n_ranks, _round_program(rounds))
    socket = _on_sockets(n_ranks, _round_program(rounds))
    for rank in range(n_ranks):
        assert _canonical(socket[rank]) == _canonical(sim[rank]), (
            f"rank {rank}: socket={socket[rank]} sim={sim[rank]}")
        # Each (source, tag) queue is delivered in posting order.
        serials = {}
        for item in sim[rank]:
            if isinstance(item, dict):
                serials.setdefault((item["src"], item["tag"]), []).append(
                    item["serial"])
        assert all(queue == sorted(queue) for queue in serials.values())


@given(st.integers(min_value=2, max_value=4),
       st.lists(st.floats(min_value=-16.0, max_value=16.0,
                          allow_nan=False, width=32),
                min_size=1, max_size=6))
@COMMON_SETTINGS
def test_allreduce_bitwise_matches_sim(n_ranks, values):
    """Socket allreduce reproduces SimComm's rank-order float association
    bit for bit, on every rank."""
    base = np.array(values, dtype=np.float64)
    contributions = [base * (rank + 1) + rank / 3.0
                     for rank in range(n_ranks)]

    def body(rank, comm):
        return comm.allreduce(contributions[rank].copy(), key="p")

    expected = _on_sim(n_ranks, body)[0]
    for result in _on_sockets(n_ranks, body):
        assert np.asarray(result).tobytes() == expected.tobytes()


# Envelope values: the right types, the wrong ones, and missing keys.
_ENVELOPE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.lists(st.floats(-4.0, 4.0, width=32), max_size=3).map(np.array))
#: What a reserved tag may carry: anything, or an allreduce-shaped pair
#: whose key may or may not be the receiving rank's.
_RESERVED_DATA = st.one_of(
    _ENVELOPE_VALUES,
    st.tuples(st.sampled_from(["k", "x"]), _ENVELOPE_VALUES))
_SENTINEL_TAG = 2 ** 40


@st.composite
def envelopes(draw):
    """``(kind, payload)`` of a frame on a data link: an ``mpi_msg`` with
    any envelope, half the time on a reserved tag (in use or not) with
    any data, or a handshake ``mpi_hello`` out of place."""
    kind = draw(st.sampled_from(["mpi_msg", "mpi_msg", "mpi_hello"]))
    keys = draw(st.sets(st.sampled_from(["src", "tag", "data"])))
    payload = {key: draw(_ENVELOPE_VALUES) for key in keys}
    if draw(st.booleans()):
        payload["tag"] = draw(st.integers(BYE - 2, ALLREDUCE))
        payload["data"] = draw(_RESERVED_DATA)
    return kind, payload


@given(envelopes())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_any_envelope_dispatches_or_fails_the_link(envelope):
    """Any dict envelope is filed or fails the link; the receiver thread
    never dies with the world's failure unset (a blocked verb would then
    wait out its timeout).  A well-formed sentinel sent behind it tells
    "filed" from "failed".  A filed collective message completes its
    collective on the receiving rank or is refused as a mismatch."""
    import socket

    from repro.mpi.net import MpiTransportError, SocketCommWorld
    from repro.mpi.net.world import _Peer
    from repro.serving.net.protocol import Frame, encode_frame

    kind, payload = envelope
    ours, theirs = socket.socketpair()
    world = SocketCommWorld(0, 2, {1: _Peer(1, ours)}, op_timeout=10.0)
    try:
        theirs.sendall(encode_frame(Frame(kind, payload))
                       + encode_frame(Frame("mpi_msg", {
                           "tag": _SENTINEL_TAG, "data": "sentinel"})))
        comm = world.comm()
        try:
            comm.recv(source=1, tag=_SENTINEL_TAG)
        except MpiTransportError:
            world._threads[0].join(timeout=5.0)
            assert not world._threads[0].is_alive()
            assert world._failure is not None
            return
        tag = payload.get("tag")
        collective = {ALLREDUCE: lambda: comm.allreduce(np.zeros(2), key="k"),
                      BCAST: lambda: comm.bcast(None, root=1),
                      BARRIER: comm.barrier}
        if kind == "mpi_msg" and type(tag) is int and tag in collective:
            try:
                collective[tag]()
            except ValidationError as error:
                assert tag == ALLREDUCE and "collective mismatch" in str(error)
        assert world._threads[0].is_alive()
    finally:
        world.close()
        theirs.close()
