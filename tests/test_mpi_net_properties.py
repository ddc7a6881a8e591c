"""Hypothesis verb parity: SimComm and SocketComm match identically.

Random round-structured programs — tagged sends, a barrier, then
per-rank receive descriptors (some weakened to ``ANY_SOURCE`` /
``ANY_TAG``), optionally an allreduce — run as ONE rank program on both
worlds (``SimCommWorld.run`` and a thread per rank over sockets).  The
property: every rank receives the *identical payload sequence*, i.e. the
socket world's deterministic ``(epoch, source, seq)`` matching order
equals the simulated world's posting order, weakened wildcards included.

Programs whose weakened descriptors steal a message an exact descriptor
needed later make the simulated run raise would-deadlock; those are
skipped via ``assume`` — the socket world would block on exactly the
same missing message, which a parity test cannot observe in bounded
time.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.mpi.net import ANY_SOURCE, ANY_TAG, start_local_world
from repro.mpi.simmpi import SimCommWorld
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
            for source, tag in order[:n_recv]:
                if draw(st.booleans()):
                    source = ANY_SOURCE
                if draw(st.booleans()):
                    tag = ANY_TAG
                recvs[rank].append((source, tag))
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
            # Flush barrier: every send above is now in a mailbox, in
            # rank-major order, below any later round's traffic.
            comm.barrier()
            for source, tag in recvs[rank]:
                received.append(comm.recv(source=source, tag=tag))
            if contributions is not None:
                value = comm.allreduce(contributions[rank])
                received.append(("allreduce", value.tobytes()))
            # Round boundary: receives of this round happen before any
            # rank posts the next round's sends.
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
    try:
        sim = _on_sim(n_ranks, _round_program(rounds))
    except ValidationError:
        # A weakened wildcard consumed a message an exact descriptor
        # needed: the program deadlocks on any transport.  Skip.
        assume(False)
        return
    socket = _on_sockets(n_ranks, _round_program(rounds))
    for rank in range(n_ranks):
        assert _canonical(socket[rank]) == _canonical(sim[rank]), (
            f"rank {rank}: socket={socket[rank]} sim={sim[rank]}")


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
    st.lists(st.integers(0, 3), max_size=2))
_SENTINEL_TAG = 2 ** 40


@st.composite
def envelopes(draw):
    """``(kind, payload)`` of an ``mpi_msg`` / ``mpi_ctl`` frame."""
    kind = draw(st.sampled_from(["mpi_msg", "mpi_ctl"]))
    keys = draw(st.sets(st.sampled_from(
        ["epoch", "src", "dst", "seq", "tag", "cseq", "key", "op", "data"])))
    payload = {key: draw(_ENVELOPE_VALUES) for key in keys}
    if draw(st.booleans()):
        payload["ctl"] = draw(st.one_of(
            st.sampled_from(["flush", "coll", "bye"]), _ENVELOPE_VALUES))
    return kind, payload


@given(envelopes())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_any_envelope_dispatches_or_fails_the_link(envelope):
    """Any dict envelope of either kind is filed or fails the link; the
    receiver thread never dies with the world's failure unset (a blocked
    verb would then wait out its timeout).  A well-formed sentinel sent
    behind it tells "filed" from "failed"."""
    import socket

    from repro.mpi.net import MpiTransportError, SocketCommWorld
    from repro.mpi.net.world import _Peer
    from repro.serving.net.protocol import Frame, encode_frame

    kind, payload = envelope
    ours, theirs = socket.socketpair()
    world = SocketCommWorld(0, 2, {1: _Peer(1, ours)}, op_timeout=10.0)
    try:
        theirs.sendall(encode_frame(Frame(kind, payload), binary=True)
                       + encode_frame(Frame("mpi_msg", {
                           "src": 1, "dst": 0, "tag": _SENTINEL_TAG,
                           "seq": 0, "epoch": 0, "data": "sentinel"}),
                           binary=True))
        try:
            world.comm().recv(source=1, tag=_SENTINEL_TAG)
        except MpiTransportError:
            world._threads[0].join(timeout=5.0)
            assert not world._threads[0].is_alive()
        assert world._threads[0].is_alive() or world._failure is not None
    finally:
        world.close()
        theirs.close()
