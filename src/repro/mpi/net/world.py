"""Socket-backed MPI world: real processes, real wire, same verbs.

:class:`SocketCommWorld` is the multi-process counterpart of
:class:`repro.mpi.simmpi.SimCommWorld`.  Each OS process owns exactly one
rank; :meth:`SocketCommWorld.connect` rendezvouses the ranks (everyone
reports its data listener to rank 0, rank 0 replies with the address
map) and builds a full TCP mesh — one framed, bidirectional link per
rank pair.  :meth:`SocketCommWorld.comm` then hands back a
:class:`SocketComm` with the verb surface the distributed sampler's
rank program speaks against :class:`~repro.mpi.simmpi.SimComm`: a tagged
non-blocking ``isend``, a blocking ``recv(source, tag)``, ``allreduce``,
``bcast`` and ``barrier``.

Wire format is the serving frontend's frame codec
(:mod:`repro.serving.net.protocol`): every envelope ships as an
``mpi_msg`` frame with the binary array payload form, so factor rows and
their ids cross the wire as raw little-endian blocks — bit-exact by
construction, which is what lets a socket-world training chain match the
simulated world bit for bit.  JSON-only payload values round-trip
exactly too; the one wire artefact is that tuples come back as lists.

**Receive by (source, tag).**  A real network delivers messages from
*different* senders in racy order, so every receive names its source
and its tag, and the mailbox is one FIFO per ``(source, tag)``.  A data
frame carries only its tag and its payload; the receiver files it under
the rank at the other end of the link it arrived on, so the source is
the link and no frame can misstate it.  TCP keeps each link in order,
so each queue holds its source's messages in posting order, and what a
rank receives is a pure function of the program, independent of byte
timing — the payloads ``SimCommWorld`` delivers.  The barrier is a
*flush* barrier: every rank exchanges a flush marker with every peer on
the data link itself, so completing it proves all pre-barrier traffic
has been filed, which is what lets a run audit its pending messages
after its final barrier.

**Collectives** are rooted at rank 0 (gather, sum in rank order with the
*same* :func:`~repro.mpi.simmpi.rank_order_sum` as the simulated world,
scatter) and matched by a per-world collective sequence
number — every rank must issue its collectives in the same program
order, the usual SPMD contract.  Like ``SimComm``'s, the verbs block and
return the result directly on every rank.

**Failure model.**  A dead or misbehaving link (peer exit, injected
reset, stream corruption, a malformed envelope) marks the world failed
and wakes every blocked verb with :class:`MpiTransportError` — training
over sockets fails fast instead of hanging.  Blocking receives also
carry a default timeout (:class:`MpiTimeoutError`) so a lost message
can never wedge a CI job.  Chaos-layer fault injection rides the existing
``net.connect``/``net.send``/``net.recv`` sites: pass a
:class:`~repro.serving.chaos.plan.FaultInjector` and every mesh socket
is wrapped in :class:`~repro.serving.chaos.shims.ChaosSocket`.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.simmpi import rank_order_sum
from repro.serving.chaos.plan import FaultInjector
from repro.serving.chaos.shims import ChaosSocket, InjectedConnectError
from repro.serving.net.protocol import (
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "MpiNetError", "MpiTransportError", "MpiTimeoutError", "SocketComm",
    "SocketCommWorld", "start_local_world", "free_port",
]

#: How long `connect` waits for the rendezvous and mesh to come up.
CONNECT_TIMEOUT = 30.0
#: Default ceiling on every blocking verb (recv/allreduce/barrier/...).
DEFAULT_OP_TIMEOUT = 120.0

_RECV_CHUNK = 1 << 16


class MpiNetError(ConnectionError):
    """Base class of socket-world failures."""


class MpiTransportError(MpiNetError):
    """A rank link died (peer exit, reset, or a corrupted stream)."""


class MpiTimeoutError(MpiNetError):
    """A blocking verb exceeded its timeout (lost message / hung peer)."""


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bound briefly, then released)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return int(probe.getsockname()[1])


# ---------------------------------------------------------------------------
# framed link plumbing
# ---------------------------------------------------------------------------

def _send_frame(sock, frame: Frame, binary: bool = True) -> int:
    """Encode and ship one frame; returns the wire byte count."""
    data = encode_frame(frame, binary=binary)
    sock.sendall(data)
    return len(data)


class _FrameStream:
    """Blocking single-threaded frame reader over one socket."""

    def __init__(self, sock):
        self.sock = sock
        self.decoder = FrameDecoder()
        self._ready: List[Frame] = []

    def read_frame(self, deadline: float) -> Frame:
        while not self._ready:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise MpiTimeoutError("timed out waiting for a frame")
            self.sock.settimeout(remaining)
            try:
                data = self.sock.recv(_RECV_CHUNK)
            except socket.timeout as error:
                raise MpiTimeoutError(
                    "timed out waiting for a frame") from error
            if not data:
                raise MpiTransportError("peer closed during handshake")
            self._ready.extend(self.decoder.feed(data))
        return self._ready.pop(0)


def _int_fields(payload: Dict[str, Any], keys: Sequence[str],
                what: str) -> List[int]:
    """The int values of ``keys`` in an envelope, or :class:`ProtocolError`."""
    values = [payload.get(key) for key in keys]
    for key, value in zip(keys, values):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ProtocolError(f"{what} envelope field {key!r} is {value!r}, "
                                "not an int")
    return [int(value) for value in values]


class _Peer:
    """One mesh link: the socket plus its framing and traffic counters."""

    def __init__(self, rank: int, sock):
        self.rank = rank
        self.sock = sock
        self.send_lock = threading.Lock()
        self.departed = False  # peer sent a goodbye before closing
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------

class SocketCommWorld:
    """One process's endpoint of a full-mesh socket world.

    Construct through :meth:`connect` (real rendezvous) or
    :func:`start_local_world` (N in-process ranks on localhost sockets,
    for tests and single-host examples).  The world owns one receiver
    thread per peer link; :meth:`close` tears everything down.
    """

    def __init__(self, rank: int, n_ranks: int, peers: Dict[int, _Peer],
                 op_timeout: float = DEFAULT_OP_TIMEOUT):
        check_positive("n_ranks", n_ranks)
        if not 0 <= rank < n_ranks:
            raise ValidationError(f"rank {rank} out of range [0, {n_ranks})")
        if set(peers) != {r for r in range(n_ranks) if r != rank}:
            raise ValidationError("peer links must cover every other rank")
        self.rank = rank
        self.n_ranks = n_ranks
        self.op_timeout = float(op_timeout)
        self._peers = peers
        self._cond = threading.Condition()
        # One FIFO per (source, tag).
        self._mailbox: Dict[Tuple[int, int], Deque[Any]] = {}
        self._coll: List[Dict[str, Any]] = []
        self._flushes: Dict[int, set] = {}
        self._collective_seq = 0
        self._failure: Optional[str] = None
        self._closing = False
        self.n_allreduce = 0
        self.n_bcast = 0
        self.n_barrier = 0
        self._threads = [
            threading.Thread(target=self._recv_loop, args=(peer,),
                             daemon=True,
                             name=f"repro-mpi-net-{rank}<-{peer.rank}")
            for peer in peers.values()
        ]
        for thread in self._threads:
            thread.start()

    # -- construction ------------------------------------------------------

    @classmethod
    def connect(cls, rank: int, n_ranks: int,
                rendezvous: Tuple[str, int],
                timeout: float = CONNECT_TIMEOUT,
                injector: Optional[FaultInjector] = None,
                op_timeout: float = DEFAULT_OP_TIMEOUT) -> "SocketCommWorld":
        """Join the world: rendezvous at ``rendezvous``, then full-mesh.

        Every rank binds an ephemeral data listener and reports it to the
        rendezvous point (hosted by rank 0); rank 0 answers with the full
        address map, after which rank ``r`` dials every lower rank and
        accepts every higher one.  With ``injector`` set, connects check
        the chaos ``net.connect`` site and every mesh socket is wrapped
        in :class:`ChaosSocket` (``net.send``/``net.recv`` sites).
        """
        return cls._join(rank, n_ranks, rendezvous, timeout, injector,
                         op_timeout, server=None)

    @classmethod
    def _join(cls, rank: int, n_ranks: int, rendezvous: Tuple[str, int],
              timeout: float, injector: Optional[FaultInjector],
              op_timeout: float,
              server: Optional[socket.socket]) -> "SocketCommWorld":
        """:meth:`connect`; rank 0 takes the rendezvous on ``server`` when
        handed one already listening, instead of binding it itself."""
        check_positive("n_ranks", n_ranks)
        if not 0 <= rank < n_ranks:
            raise ValidationError(f"rank {rank} out of range [0, {n_ranks})")
        host, port = str(rendezvous[0]), int(rendezvous[1])
        deadline = time.monotonic() + float(timeout)
        listener = socket.create_server((host, 0), backlog=max(n_ranks, 1))
        try:
            my_port = int(listener.getsockname()[1])
            addresses = cls._rendezvous(rank, n_ranks, (host, port),
                                        (host, my_port), deadline, server)
            peers: Dict[int, _Peer] = {}
            try:
                # Dial the lower ranks; their listeners are up (bound
                # before rendezvous), so connects at worst queue in the
                # accept backlog.
                for peer_rank in range(rank):
                    peer_host, peer_port = addresses[peer_rank]
                    sock = cls._dial((peer_host, peer_port), deadline,
                                     injector)
                    _send_frame(sock, Frame("mpi_hello", {"rank": rank}),
                                binary=False)
                    peers[peer_rank] = _Peer(peer_rank, sock)
                # Accept the higher ranks; the opening mpi_hello names the
                # dialling rank.
                while len(peers) < n_ranks - 1:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise MpiTimeoutError(
                            f"rank {rank}: mesh accept timed out with "
                            f"{n_ranks - 1 - len(peers)} peers missing")
                    listener.settimeout(remaining)
                    try:
                        sock, _ = listener.accept()
                    except socket.timeout as error:
                        raise MpiTimeoutError(
                            f"rank {rank}: mesh accept timed out") from error
                    if injector is not None:
                        sock = ChaosSocket(sock, injector)
                    stream = _FrameStream(sock)
                    hello = stream.read_frame(deadline)
                    if hello.kind != "mpi_hello" or "rank" not in hello.payload:
                        raise ProtocolError(
                            f"expected an mpi_hello on the mesh link, got "
                            f"{hello.kind!r}")
                    peer_rank = int(hello.payload["rank"])
                    # Back to a blocking socket for the receiver loop (the
                    # handshake read set a finite timeout).
                    sock.settimeout(None)
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                    peer = _Peer(peer_rank, sock)
                    # Frames that rode in behind the hello belong to the
                    # link's receiver loop.
                    peer_decoder_backlog = stream._ready
                    peers[peer_rank] = peer
                    peer._backlog = (peer_decoder_backlog,
                                     stream.decoder)  # type: ignore[attr-defined]
            except BaseException:
                for peer in peers.values():
                    peer.sock.close()
                raise
        finally:
            listener.close()
        world = cls(rank, n_ranks, peers, op_timeout=op_timeout)
        return world

    @staticmethod
    def _dial(address: Tuple[str, int], deadline: float,
              injector: Optional[FaultInjector]):
        """Connect to ``address``, retrying until ``deadline``."""
        if injector is not None:
            event = injector.check("net.connect")
            if event is not None:
                if event.action == "delay":
                    time.sleep(event.arg)
                elif event.action == "fail":
                    raise InjectedConnectError(
                        f"injected connect failure to {address}")
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(
                    address, timeout=max(deadline - time.monotonic(), 0.1))
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if injector is not None:
                    return ChaosSocket(sock, injector)
                return sock
            except OSError as error:
                last_error = error
                time.sleep(0.05)
        raise MpiTimeoutError(
            f"could not connect to {address} before the deadline"
        ) from last_error

    @classmethod
    def _rendezvous(cls, rank: int, n_ranks: int,
                    rendezvous: Tuple[str, int], my_address: Tuple[str, int],
                    deadline: float, server: Optional[socket.socket] = None
                    ) -> Dict[int, Tuple[str, int]]:
        """Exchange data-listener addresses through rank 0 (listening on
        ``server`` when given, else binding ``rendezvous`` itself)."""
        if n_ranks == 1:
            return {0: my_address}
        if rank == 0:
            if server is None:
                server = socket.create_server(rendezvous,
                                              backlog=max(n_ranks, 1))
            conns: List[Tuple[socket.socket, int]] = []
            addresses = {0: my_address}
            try:
                while len(addresses) < n_ranks:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise MpiTimeoutError(
                            f"rendezvous timed out with "
                            f"{n_ranks - len(addresses)} ranks missing")
                    server.settimeout(remaining)
                    try:
                        conn, _ = server.accept()
                    except socket.timeout as error:
                        raise MpiTimeoutError(
                            "rendezvous accept timed out") from error
                    stream = _FrameStream(conn)
                    hello = stream.read_frame(deadline)
                    peer_rank = int(hello.payload["rank"])
                    addresses[peer_rank] = (str(hello.payload["host"]),
                                            int(hello.payload["port"]))
                    conns.append((conn, peer_rank))
                reply = {"peers": {str(r): list(addr)
                                   for r, addr in addresses.items()}}
                for conn, _peer in conns:
                    _send_frame(conn, Frame("mpi_hello", reply),
                                binary=False)
            finally:
                for conn, _peer in conns:
                    conn.close()
                server.close()
            return addresses
        # Non-zero ranks dial the rendezvous point (rank 0 may be slower
        # to bind it, hence the retry loop) and wait for the map.
        sock = cls._dial(rendezvous, deadline, injector=None)
        try:
            _send_frame(sock, Frame("mpi_hello", {
                "rank": rank, "host": my_address[0], "port": my_address[1],
            }), binary=False)
            reply = _FrameStream(sock).read_frame(deadline)
        finally:
            sock.close()
        peers = reply.payload.get("peers")
        if not isinstance(peers, dict) or len(peers) != n_ranks:
            raise ProtocolError(f"malformed rendezvous reply: {reply.payload}")
        return {int(r): (str(addr[0]), int(addr[1]))
                for r, addr in peers.items()}

    # -- rank handle -------------------------------------------------------

    def comm(self) -> "SocketComm":
        """This process's communicator endpoint."""
        return SocketComm(self, self.rank)

    @property
    def size(self) -> int:
        return self.n_ranks

    # -- receiver threads --------------------------------------------------

    def _recv_loop(self, peer: _Peer) -> None:
        backlog = getattr(peer, "_backlog", None)
        decoder = FrameDecoder()
        try:
            if backlog is not None:
                frames, decoder = backlog
                for frame in frames:
                    self._dispatch(frame, peer)
            while True:
                data = peer.sock.recv(_RECV_CHUNK)
                if not data:
                    # EOF after a goodbye is a clean peer exit; the bye
                    # rode the same FIFO stream, so everything the peer
                    # ever sent has already been dispatched.
                    if peer.departed or self._closing:
                        return
                    raise MpiTransportError(
                        f"rank {peer.rank} closed the link")
                with self._cond:
                    peer.received_bytes += len(data)
                for frame in decoder.feed(data):
                    self._dispatch(frame, peer)
        except (OSError, ProtocolError, MpiNetError) as error:
            with self._cond:
                if not self._closing and self._failure is None:
                    self._failure = (f"link to rank {peer.rank} failed: "
                                     f"{error}")
                self._cond.notify_all()

    def _dispatch(self, frame: Frame, peer: _Peer) -> None:
        """File one frame; a malformed envelope raises
        :class:`ProtocolError`, which fails the link (see ``_recv_loop``)."""
        payload = frame.payload
        if not isinstance(payload, dict):
            raise ProtocolError(f"{frame.kind!r} frame from rank {peer.rank} "
                                "carries no envelope")
        if frame.kind == "mpi_msg":
            tag, = _int_fields(payload, ("tag",), frame.kind)
            with self._cond:
                peer.received_messages += 1
                self._file(peer.rank, tag, payload.get("data"))
            return
        if frame.kind != "mpi_ctl":
            raise ProtocolError(f"unexpected {frame.kind!r} frame from rank "
                                f"{peer.rank}")
        kind = payload.get("ctl")
        if kind not in ("flush", "coll", "bye"):
            raise ProtocolError(f"unknown mpi_ctl {kind!r} from rank "
                                f"{peer.rank}")
        if kind != "bye":
            cseq, source = _int_fields(payload, ("cseq", "src"), kind)
        with self._cond:
            peer.received_messages += 1
            if kind == "flush":
                self._flushes.setdefault(cseq, set()).add(source)
            elif kind == "coll":
                self._coll.append(payload)
            else:
                peer.departed = True
            self._cond.notify_all()

    def _file(self, source: int, tag: int, data: Any) -> None:
        """Queue one message under ``(source, tag)`` (callers hold the lock)."""
        self._mailbox.setdefault((source, tag), deque()).append(data)
        self._cond.notify_all()

    # -- blocking machinery ------------------------------------------------

    def _check_alive(self) -> None:
        if self._closing:
            raise MpiTransportError(f"rank {self.rank}: world is closed")
        if self._failure is not None:
            raise MpiTransportError(f"rank {self.rank}: {self._failure}")

    def _await(self, try_pop: Callable[[], Tuple[bool, Any]],
               timeout: Optional[float], what: str) -> Any:
        """Wait under the condition until ``try_pop`` yields, fail fast
        on link death, raise :class:`MpiTimeoutError` past ``timeout``."""
        deadline = time.monotonic() + (self.op_timeout if timeout is None
                                       else float(timeout))
        with self._cond:
            while True:
                # Match before checking health: anything already delivered
                # is still valid even if a link died a microsecond later
                # (peers racing through clean shutdown must not poison a
                # verb whose data is sitting in the mailbox).
                done, value = try_pop()
                if done:
                    return value
                self._check_alive()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MpiTimeoutError(
                        f"rank {self.rank}: {what} timed out")
                self._cond.wait(min(remaining, 0.5))

    # -- point to point (world side) ---------------------------------------

    def _post(self, dest: int, tag: int, payload: Any) -> None:
        if not 0 <= dest < self.n_ranks:
            raise ValidationError(f"destination rank {dest} out of range")
        if dest == self.rank:
            with self._cond:
                self._check_alive()
                self._file(self.rank, int(tag), payload)
            return
        self._send(dest, Frame("mpi_msg", {"tag": int(tag), "data": payload}))

    def _send(self, dest: int, frame: Frame) -> None:
        peer = self._peers[dest]
        with self._cond:
            self._check_alive()
        try:
            with peer.send_lock:
                n_bytes = _send_frame(peer.sock, frame)
        except (OSError, ProtocolError) as error:
            with self._cond:
                if self._failure is None:
                    self._failure = f"send to rank {dest} failed: {error}"
                self._cond.notify_all()
            raise MpiTransportError(
                f"rank {self.rank}: send to rank {dest} failed: "
                f"{error}") from error
        with self._cond:
            peer.sent_messages += 1
            peer.sent_bytes += n_bytes

    def _try_match(self, source: int, tag: int) -> Tuple[bool, Any]:
        """Pop the oldest message of one queue (callers hold the lock)."""
        queue = self._mailbox.get((source, tag))
        if queue:
            return True, queue.popleft()
        return False, None

    # -- collectives (world side) ------------------------------------------

    def _next_collective(self) -> int:
        cseq = self._collective_seq
        self._collective_seq = cseq + 1
        return cseq

    def _pop_coll(self, cseq: int, source: Optional[int]) -> Tuple[bool, Any]:
        for index, payload in enumerate(self._coll):
            if int(payload.get("cseq", -1)) != cseq:
                continue
            if source is not None and int(payload.get("src", -1)) != source:
                continue
            del self._coll[index]
            return True, payload
        return False, None

    def _barrier(self, timeout: Optional[float]) -> None:
        cseq = self._next_collective()
        self.n_barrier += 1
        if self.n_ranks == 1:
            return
        marker = Frame("mpi_ctl", {"ctl": "flush", "cseq": cseq,
                                   "src": self.rank})
        for dest in self._peers:
            self._send(dest, marker)
        expected = set(self._peers)

        def everyone_flushed() -> Tuple[bool, Any]:
            arrived = self._flushes.get(cseq, set())
            if expected <= arrived:
                del self._flushes[cseq]
                return True, None
            return False, None

        # All pre-barrier traffic on every link has been filed once this
        # returns: each marker travelled behind it.
        self._await(everyone_flushed, timeout, f"barrier #{cseq}")

    def _allreduce(self, array: np.ndarray, key: str,
                   timeout: Optional[float]) -> np.ndarray:
        cseq = self._next_collective()
        self.n_allreduce += 1
        contribution = np.array(array, dtype=np.float64)
        if self.n_ranks == 1:
            return contribution
        if self.rank == 0:
            parts: Dict[int, np.ndarray] = {0: contribution}
            for _ in range(self.n_ranks - 1):
                payload = self._await(
                    lambda: self._pop_coll(cseq, source=None), timeout,
                    f"allreduce #{cseq} gather")
                if payload.get("key") != key:
                    raise ValidationError(
                        f"collective mismatch at #{cseq}: rank 0 runs "
                        f"{key!r}, rank {payload.get('src')} sent "
                        f"{payload.get('key')!r}")
                parts[int(payload["src"])] = np.asarray(payload["data"],
                                                        dtype=np.float64)
            # The simulated world's rank-order sum, so the result is
            # bit-identical to SimComm.allreduce.
            result = rank_order_sum([parts[rank]
                                     for rank in range(self.n_ranks)])
            reply = Frame("mpi_ctl", {"ctl": "coll", "cseq": cseq,
                                      "src": 0, "key": key, "data": result})
            for dest in self._peers:
                self._send(dest, reply)
            return result
        self._send(0, Frame("mpi_ctl", {"ctl": "coll", "cseq": cseq,
                                        "src": self.rank, "key": key,
                                        "data": contribution}))
        payload = self._await(lambda: self._pop_coll(cseq, source=0),
                              timeout, f"allreduce #{cseq} result")
        if payload.get("key") != key:
            raise ValidationError(
                f"collective mismatch at #{cseq}: rank {self.rank} runs "
                f"{key!r}, rank 0 answered {payload.get('key')!r}")
        return np.array(payload["data"], dtype=np.float64)

    def _bcast(self, payload: Any, root: int, timeout: Optional[float]) -> Any:
        if not 0 <= root < self.n_ranks:
            raise ValidationError(f"bcast root {root} out of range")
        cseq = self._next_collective()
        self.n_bcast += 1
        if self.n_ranks == 1:
            return payload
        if self.rank == root:
            frame = Frame("mpi_ctl", {"ctl": "coll", "cseq": cseq,
                                      "src": root, "key": "bcast",
                                      "data": payload})
            for dest in self._peers:
                self._send(dest, frame)
            return payload
        reply = self._await(lambda: self._pop_coll(cseq, source=root),
                            timeout, f"bcast #{cseq}")
        return reply.get("data")

    # -- audit / metrics ---------------------------------------------------

    def pending_messages(self) -> int:
        """Messages delivered but not yet received by a verb."""
        with self._cond:
            return self._pending()

    def _pending(self) -> int:
        return sum(len(queue) for queue in self._mailbox.values())

    def stats(self) -> Dict[str, object]:
        """Per-peer transport counters (an obs ``mpi.*`` provider)."""
        with self._cond:
            sent = {str(peer.rank): {"messages": peer.sent_messages,
                                     "bytes": peer.sent_bytes}
                    for peer in self._peers.values()}
            received = {str(peer.rank): {"messages": peer.received_messages,
                                         "bytes": peer.received_bytes}
                        for peer in self._peers.values()}
            return {
                "rank": self.rank,
                "world": self.n_ranks,
                "pending": self._pending(),
                "sent": sent,
                "received": received,
                "allreduce": self.n_allreduce,
                "bcast": self.n_bcast,
                "barrier": self.n_barrier,
            }

    def register_metrics(self, registry) -> None:
        """Expose :meth:`stats` as an obs provider under ``mpi.{rank=R}``."""
        registry.register_provider("mpi", self.stats, rank=self.rank)

    def total_bytes_sent(self) -> int:
        with self._cond:
            return sum(peer.sent_bytes for peer in self._peers.values())

    def total_messages_sent(self) -> int:
        with self._cond:
            return sum(peer.sent_messages for peer in self._peers.values())

    # -- teardown ----------------------------------------------------------

    def abort(self, reason: str = "aborted") -> None:
        """Tear the world down *as a failure*: no goodbye is sent, so
        peers blocked on this rank fail fast with
        :class:`MpiTransportError` instead of waiting out a timeout.
        Error paths should call this; clean exits call :meth:`close`."""
        with self._cond:
            if self._failure is None:
                self._failure = str(reason)
            self._cond.notify_all()
        self.close()

    def close(self) -> None:
        """Close every link and stop the receiver threads (idempotent).

        A healthy world says goodbye first (an ``mpi_ctl`` ``bye`` frame
        per link) so peers treat the following EOF as a clean exit — a
        rank finishing a hair earlier must not read as a crash to a peer
        still draining its final barrier.  A failed world skips the bye.
        """
        with self._cond:
            if self._closing:
                return
            graceful = self._failure is None
            self._closing = True
            self._cond.notify_all()
        if graceful:
            bye = Frame("mpi_ctl", {"ctl": "bye", "src": self.rank})
            for peer in self._peers.values():
                try:
                    with peer.send_lock:
                        _send_frame(peer.sock, bye)
                except OSError:
                    pass
        for peer in self._peers.values():
            # shutdown() (not just close()) — the receiver thread blocked in
            # recv() holds the kernel file description open, so a bare close
            # would neither wake it nor send FIN to the peer.
            try:
                peer.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                peer.sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "SocketCommWorld":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the communicator endpoint
# ---------------------------------------------------------------------------

@dataclass
class SocketComm:
    """One rank's verb surface over a :class:`SocketCommWorld`.

    Mirrors :class:`repro.mpi.simmpi.SimComm` verb for verb, so one rank
    program runs on either.  Blocking verbs *wait* for the peer process
    (bounded by the world's ``op_timeout``) where the simulated world
    yields its rank's turn.
    """

    world: SocketCommWorld
    rank: int

    @property
    def size(self) -> int:
        return self.world.n_ranks

    # -- point to point ----------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Non-blocking send (the bytes are handed to the kernel here)."""
        self.world._post(dest, tag, payload)

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """``isend`` under its blocking name, which perfbench's timing
        proxy wraps; the rank program never calls it."""
        self.isend(payload, dest, tag)

    def recv(self, source: int, tag: int,
             timeout: Optional[float] = None) -> Any:
        """Blocking receive of the oldest message ``source`` sent this rank
        with ``tag``."""
        return self.world._await(
            lambda: self.world._try_match(source, tag), timeout,
            f"recv(source={source}, tag={tag})")

    # -- collectives -------------------------------------------------------

    def allreduce(self, array: np.ndarray, key: str = "allreduce",
                  timeout: Optional[float] = None) -> np.ndarray:
        """All-ranks sum; blocks and returns the result everywhere.

        Rank 0 sums in rank order with the simulated world's
        :func:`~repro.mpi.simmpi.rank_order_sum` — bit-identical to
        ``SimComm.allreduce`` over the same contributions.  ``key``
        mismatches between ranks raise instead of deadlocking.
        """
        return self.world._allreduce(array, key, timeout)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root``; blocks on the other ranks."""
        return self.world._bcast(payload, root, timeout=None)

    def barrier(self, timeout: Optional[float] = None) -> None:
        """Flush barrier: completes only after every peer entered it *and*
        all pre-barrier point-to-point traffic has been delivered."""
        self.world._barrier(timeout)


# ---------------------------------------------------------------------------
# in-process convenience: N ranks on localhost sockets
# ---------------------------------------------------------------------------

def start_local_world(
        n_ranks: int,
        injectors: Optional[Sequence[Optional[FaultInjector]]] = None,
        op_timeout: float = DEFAULT_OP_TIMEOUT,
        host: str = "127.0.0.1") -> List[SocketCommWorld]:
    """Stand up ``n_ranks`` socket worlds inside this process.

    Every rank gets its own :class:`SocketCommWorld` over real localhost
    TCP links — the full wire path (framing, binary payloads, receiver
    threads, flush barriers) without spawning OS processes.  Tests, the
    quickstart example and perfbench use this; the launcher
    (``python -m repro.mpi.net``) builds the same mesh across real
    processes.  Caller ranks must run on separate threads (the verbs
    block); each should close its world when done.  Fails fast: the first
    rank error is raised as soon as it is recorded, without waiting for
    the other ranks' connects to time out.
    """
    check_positive("n_ranks", n_ranks)
    if injectors is not None and len(injectors) != n_ranks:
        raise ValidationError("need one injector slot per rank")
    # The rendezvous listener is bound before any rank starts, so no rank
    # can dial it before rank 0 listens (and nobody can take the port).
    server = socket.create_server((host, 0), backlog=max(n_ranks, 1))
    rendezvous = (host, int(server.getsockname()[1]))
    worlds: List[Optional[SocketCommWorld]] = [None] * n_ranks
    errors: List[Optional[BaseException]] = [None] * n_ranks
    abandoned = threading.Event()

    def connect(rank: int) -> None:
        try:
            world = SocketCommWorld._join(
                rank, n_ranks, rendezvous, CONNECT_TIMEOUT,
                injectors[rank] if injectors else None, op_timeout,
                server=server if rank == 0 else None)
        except BaseException as error:  # re-raised by the parent below
            errors[rank] = error
            return
        worlds[rank] = world
        if abandoned.is_set():  # the parent already failed; nobody owns it
            world.close()

    threads = [threading.Thread(target=connect, args=(rank,), daemon=True,
                                name=f"repro-mpi-connect-{rank}")
               for rank in range(n_ranks)]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + CONNECT_TIMEOUT + 5.0
        for thread in threads:
            while thread.is_alive() and time.monotonic() < deadline \
                    and all(error is None for error in errors):
                thread.join(timeout=0.05)
    finally:
        server.close()  # rank 0 is done with it, or the world is abandoned
    failures = [error for error in errors if error is not None]
    if failures or any(world is None for world in worlds):
        abandoned.set()
        for world in worlds:
            if world is not None:
                world.close()
        if failures:
            raise failures[0]
        raise MpiTimeoutError("local world failed to connect")
    return [world for world in worlds if world is not None]
