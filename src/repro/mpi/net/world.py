"""The framed TCP link: one rank per process, real wire, same verbs.

:class:`SocketCommWorld` is one process's rank of a world whose verbs,
matching, collectives and audit log are :mod:`repro.mpi.world`'s, as
for the in-memory :class:`~repro.mpi.simmpi.SimCommWorld`; only the link
is its own.  :meth:`SocketCommWorld.connect` rendezvouses the ranks
(everyone reports its data listener to rank 0, which replies with the
address map; the hellos are checked) and builds a full TCP mesh.

Every byte on a link is a frame of the serving codec
(:mod:`repro.serving.net.protocol`) in its one payload form, the binary
array payload: the ``mpi_hello`` frames of the handshake, and every
message, a collective's included, as one ``mpi_msg`` frame ``{tag,
data}``.  Factor rows cross the wire as raw little-endian blocks —
bit-exact by construction; the one wire artefact is that tuples come
back as lists.  A receiver thread per link files each frame under the
rank at the other end of that link, so no frame can misstate its
source, and TCP keeps each link in order.

**Failure model.**  A dead or misbehaving link (peer exit, injected
reset, stream corruption, a malformed envelope) marks the world failed
and wakes every blocked receive with :class:`MpiTransportError`: training
fails fast instead of hanging.  A receive also gives up after the
world's ``op_timeout`` (:class:`MpiTimeoutError`).  A clean
:meth:`~SocketCommWorld.close` says goodbye on the reserved ``BYE`` tag,
so peers read the EOF that follows as an exit, not a crash.  Pass a
:class:`~repro.serving.chaos.plan.FaultInjector` and every mesh socket
is a :class:`~repro.serving.chaos.shims.ChaosSocket` (the chaos
``net.connect``/``net.send``/``net.recv`` sites).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.world import BYE, Comm, CommWorld
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
    "MpiNetError", "MpiTransportError", "MpiTimeoutError",
    "SocketCommWorld", "start_local_world", "free_port",
]

#: How long `connect` waits for the rendezvous and mesh to come up.
CONNECT_TIMEOUT = 30.0
#: Default ceiling on every blocking receive (collectives included).
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

def _send_frame(sock, frame: Frame) -> int:
    """Encode and ship one frame; returns the wire byte count."""
    data = encode_frame(frame)
    sock.sendall(data)
    return len(data)


def _int_fields(payload: Dict[str, Any], keys: Sequence[str],
                what: str) -> List[int]:
    """The int values of ``keys`` in an envelope, or :class:`ProtocolError`."""
    values = [payload.get(key) for key in keys]
    for key, value in zip(keys, values):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ProtocolError(f"{what} envelope field {key!r} is {value!r}, "
                                "not an int")
    return [int(value) for value in values]


def _hello_rank(hello: Frame, n_ranks: int, above: int,
                seen: Iterable[int]) -> int:
    """The rank a handshake hello names: an int in ``(above, n_ranks)``
    not ``seen`` before, or :class:`ProtocolError`."""
    if hello.kind != "mpi_hello" or not isinstance(hello.payload, dict):
        raise ProtocolError(f"expected an mpi_hello, got {hello.kind!r}")
    rank, = _int_fields(hello.payload, ("rank",), "mpi_hello")
    if not above < rank < n_ranks or rank in seen:
        raise ProtocolError(f"mpi_hello names rank {rank}, not a new rank "
                            f"in ({above}, {n_ranks})")
    return rank


def _address_map(reply: Frame, n_ranks: int) -> Dict[int, Tuple[str, int]]:
    """Rank 0's rendezvous reply as ``{rank: (host, port)}``: exactly the
    ranks ``0..n_ranks-1``, each an ``[str host, int port]`` pair, or
    :class:`ProtocolError`."""
    peers = reply.payload.get("peers") if reply.kind == "mpi_hello" else None
    if not isinstance(peers, dict) \
            or set(peers) != {str(rank) for rank in range(n_ranks)}:
        raise ProtocolError(f"malformed rendezvous reply: {reply.payload}")
    addresses = {}
    for key, entry in peers.items():
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)):
            raise ProtocolError(f"rendezvous reply names rank {key} at "
                                f"{entry!r}, not [host, port]")
        port, = _int_fields({"port": entry[1]}, ("port",), "rendezvous")
        if not 0 < port < 65536:
            raise ProtocolError(f"rendezvous reply names rank {key} at "
                                f"port {port}")
        addresses[int(key)] = (entry[0], port)
    return addresses


class _Peer:
    """One framed link: the socket, its decoder, the frames decoded but
    not yet handled, and its traffic counters."""

    def __init__(self, rank: int, sock):
        self.rank = rank
        self.sock = sock
        self.decoder = FrameDecoder()
        self.backlog: List[Frame] = []
        self.send_lock = threading.Lock()
        self.departed = False  # peer sent a goodbye before closing
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0

    def read_frame(self, deadline: float) -> Frame:
        """The next frame, read in this thread (the handshake's reader;
        frames that ride in behind it stay in the backlog)."""
        while not self.backlog:
            self.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            try:
                data = self.sock.recv(_RECV_CHUNK)
            except socket.timeout as error:
                raise MpiTimeoutError(
                    "timed out waiting for a frame") from error
            if not data:
                raise MpiTransportError("peer closed during handshake")
            self.backlog.extend(self.decoder.feed(data))
        return self.backlog.pop(0)


def _accept(listener: socket.socket, deadline: float,
            injector: Optional[FaultInjector], what: str) -> _Peer:
    """The next link dialled in on ``listener``; its rank is what its
    opening hello says."""
    listener.settimeout(max(deadline - time.monotonic(), 1e-3))
    try:
        sock, _ = listener.accept()
    except socket.timeout as error:
        raise MpiTimeoutError(f"{what} at the deadline") from error
    return _Peer(-1, sock if injector is None else ChaosSocket(sock, injector))


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------

class SocketCommWorld(CommWorld):
    """One process's rank of a full-mesh socket world.

    Construct through :meth:`connect` (real rendezvous) or
    :func:`start_local_world` (N in-process ranks on localhost sockets,
    for tests and single-host examples).  The world owns one receiver
    thread per peer link; :meth:`close` tears everything down.
    """

    def __init__(self, rank: int, n_ranks: int, peers: Dict[int, _Peer],
                 op_timeout: float = DEFAULT_OP_TIMEOUT):
        super().__init__(n_ranks)
        if not 0 <= rank < n_ranks:
            raise ValidationError(f"rank {rank} out of range [0, {n_ranks})")
        if set(peers) != {r for r in range(n_ranks) if r != rank}:
            raise ValidationError("peer links must cover every other rank")
        self.rank = rank
        self.op_timeout = float(op_timeout)
        self._peers = peers
        self._cond = threading.Condition()
        self._failure: Optional[str] = None
        self._closing = False
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
                injector: Optional[FaultInjector] = None) -> "SocketCommWorld":
        """Join the world: rendezvous at ``rendezvous``, then full-mesh.

        Every rank binds an ephemeral data listener and reports it to the
        rendezvous point (hosted by rank 0); rank 0 answers with the full
        address map, after which rank ``r`` dials every lower rank and
        accepts every higher one.  With ``injector`` set, connects check
        the chaos ``net.connect`` site and every mesh socket is wrapped
        in :class:`ChaosSocket` (``net.send``/``net.recv`` sites).  Every
        verb waits at most :data:`DEFAULT_OP_TIMEOUT`.
        """
        return cls._join(rank, n_ranks, rendezvous, timeout, injector,
                         DEFAULT_OP_TIMEOUT, server=None)

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
        peers: Dict[int, _Peer] = {}
        try:
            my_port = int(listener.getsockname()[1])
            addresses = cls._rendezvous(rank, n_ranks, (host, port),
                                        (host, my_port), deadline, server)
            # Dial the lower ranks; their listeners are up (bound before
            # rendezvous), so connects at worst queue in the backlog.
            for peer_rank in range(rank):
                sock = cls._dial(addresses[peer_rank], deadline, injector)
                peers[peer_rank] = _Peer(peer_rank, sock)
                _send_frame(sock, Frame("mpi_hello", {"rank": rank}))
            # Accept the higher ranks; the opening mpi_hello names the
            # dialling rank.
            while len(peers) < n_ranks - 1:
                peer = _accept(listener, deadline, injector, f"rank {rank}: "
                               f"mesh: {n_ranks - 1 - len(peers)} peers "
                               "missing")
                try:
                    peer.rank = _hello_rank(peer.read_frame(deadline),
                                            n_ranks, rank, peers)
                except BaseException:
                    peer.sock.close()
                    raise
                # Back to a blocking socket for the receiver loop (the
                # handshake read set a finite timeout).
                peer.sock.settimeout(None)
                peer.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                peers[peer.rank] = peer
        except BaseException:
            for peer in peers.values():
                peer.sock.close()
            raise
        finally:
            listener.close()
        return cls(rank, n_ranks, peers, op_timeout=op_timeout)

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
                return sock if injector is None else ChaosSocket(sock, injector)
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
            conns: List[socket.socket] = []
            addresses = {0: my_address}
            try:
                while len(addresses) < n_ranks:
                    link = _accept(server, deadline, None, f"rendezvous: "
                                   f"{n_ranks - len(addresses)} ranks missing")
                    conns.append(link.sock)
                    hello = link.read_frame(deadline)
                    peer_rank = _hello_rank(hello, n_ranks, 0, addresses)
                    host = hello.payload.get("host")
                    if not isinstance(host, str):
                        raise ProtocolError(
                            f"rendezvous hello host is {host!r}, not a str")
                    port, = _int_fields(hello.payload, ("port",),
                                        "mpi_hello")
                    addresses[peer_rank] = (host, port)
                reply = {"peers": {str(r): list(addr)
                                   for r, addr in addresses.items()}}
                for conn in conns:
                    _send_frame(conn, Frame("mpi_hello", reply))
            finally:
                for conn in conns:
                    conn.close()
                server.close()
            return addresses
        # Non-zero ranks dial the rendezvous point (rank 0 may be slower
        # to bind it, hence the retry loop) and wait for the map.
        sock = cls._dial(rendezvous, deadline, injector=None)
        try:
            _send_frame(sock, Frame("mpi_hello", {
                "rank": rank, "host": my_address[0], "port": my_address[1],
            }))
            reply = _Peer(0, sock).read_frame(deadline)
        finally:
            sock.close()
        return _address_map(reply, n_ranks)

    # -- rank handle -------------------------------------------------------

    def comm(self) -> Comm:
        """This process's communicator endpoint."""
        return Comm(self, self.rank)

    # -- receiver threads --------------------------------------------------

    def _recv_loop(self, peer: _Peer) -> None:
        try:
            for frame in peer.backlog:
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
                for frame in peer.decoder.feed(data):
                    self._dispatch(frame, peer)
        except (OSError, ProtocolError, MpiNetError) as error:
            if not self._closing:
                self._fail(f"link to rank {peer.rank} failed: {error}")

    def _fail(self, reason: str) -> None:
        """Mark the world failed (the first reason sticks) and wake every
        blocked receive."""
        with self._cond:
            if self._failure is None:
                self._failure = reason
            self._cond.notify_all()

    def _dispatch(self, frame: Frame, peer: _Peer) -> None:
        """File one frame under its link's peer; a malformed envelope
        raises :class:`ProtocolError`, which fails the link."""
        payload = frame.payload
        if frame.kind != "mpi_msg" or not isinstance(payload, dict):
            raise ProtocolError(f"unexpected {frame.kind!r} frame from rank "
                                f"{peer.rank}")
        tag, = _int_fields(payload, ("tag",), frame.kind)
        if tag < BYE:
            raise ProtocolError(f"reserved tag {tag} from rank {peer.rank} "
                                "is not in use")
        with self._cond:
            peer.received_messages += 1
            if tag == BYE:
                peer.departed = True
            else:
                self._file(self.rank, peer.rank, tag, payload.get("data"))
            self._cond.notify_all()

    # -- the link ----------------------------------------------------------

    def _check_alive(self) -> None:
        if self._closing:
            raise MpiTransportError(f"rank {self.rank}: world is closed")
        if self._failure is not None:
            raise MpiTransportError(f"rank {self.rank}: {self._failure}")

    def _receive(self, rank: int, source: int, tag: int) -> Any:
        """Wait until the queue has a message; fail fast on link death,
        raise :class:`MpiTimeoutError` past ``op_timeout``."""
        deadline = time.monotonic() + self.op_timeout
        with self._cond:
            while True:
                # Match before checking health: anything already delivered
                # is still valid even if a link died a microsecond later
                # (peers racing through clean shutdown must not poison a
                # receive whose data is sitting in the mailbox).
                message = self._pop(rank, source, tag)
                if message is not None:
                    return message[0]
                self._check_alive()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MpiTimeoutError(f"rank {rank}: recv(source="
                                          f"{source}, tag={tag}) timed out")
                self._cond.wait(min(remaining, 0.5))

    def _deliver(self, source: int, dest: int, tag: int,
                 payload: Any) -> None:
        if dest == self.rank:
            with self._cond:
                self._check_alive()
                self._file(dest, source, tag, payload)
                self._cond.notify_all()
            return
        peer = self._peers[dest]
        with self._cond:
            self._check_alive()
        try:
            with peer.send_lock:
                n_bytes = _send_frame(peer.sock, Frame(
                    "mpi_msg", {"tag": tag, "data": payload}))
        except (OSError, ProtocolError) as error:
            self._fail(f"send to rank {dest} failed: {error}")
            raise MpiTransportError(
                f"rank {self.rank}: send to rank {dest} failed: "
                f"{error}") from error
        with self._cond:
            peer.sent_messages += 1
            peer.sent_bytes += n_bytes

    # -- audit / metrics ---------------------------------------------------

    def pending_messages(self) -> int:
        """Messages delivered but not yet received by a verb."""
        with self._cond:
            return super().pending_messages()

    def stats(self) -> Dict[str, object]:
        """Per-peer transport counters and collective calls (an obs
        ``mpi.*`` provider)."""
        with self._cond:
            peers = self._peers.values()
            return {
                "rank": self.rank, "world": self.n_ranks,
                "pending": super().pending_messages(),
                "sent": {str(peer.rank): {"messages": peer.sent_messages,
                                          "bytes": peer.sent_bytes}
                         for peer in peers},
                "received": {str(peer.rank): {
                    "messages": peer.received_messages,
                    "bytes": peer.received_bytes} for peer in peers},
                **{verb: self.collectives[verb]
                   for verb in ("allreduce", "bcast", "barrier")},
            }

    def register_metrics(self, registry) -> None:
        """Expose :meth:`stats` as an obs provider under ``mpi.{rank=R}``."""
        registry.register_provider("mpi", self.stats, rank=self.rank)

    def total_bytes_sent(self) -> int:
        """Wire bytes of every frame this rank sent (goodbyes excluded)."""
        with self._cond:
            return sum(peer.sent_bytes for peer in self._peers.values())

    # -- teardown ----------------------------------------------------------

    def abort(self, reason: str = "aborted") -> None:
        """Tear the world down *as a failure*: no goodbye is sent, so
        peers blocked on this rank fail fast with
        :class:`MpiTransportError` instead of waiting out a timeout.
        Error paths should call this; clean exits call :meth:`close`."""
        self._fail(str(reason))
        self.close()

    def close(self) -> None:
        """Close every link and stop the receiver threads (idempotent).

        A healthy world says goodbye first (one ``BYE``-tagged frame per
        link) so peers treat the following EOF as a clean exit — a rank
        finishing a hair earlier must not read as a crash to a peer
        still draining its final barrier.  A failed world skips the bye.
        """
        with self._cond:
            if self._closing:
                return
            graceful = self._failure is None
            self._closing = True
            self._cond.notify_all()
        if graceful:
            bye = Frame("mpi_msg", {"tag": BYE})
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


# ---------------------------------------------------------------------------
# in-process convenience: N ranks on localhost sockets
# ---------------------------------------------------------------------------

def start_local_world(
        n_ranks: int,
        injectors: Optional[Sequence[Optional[FaultInjector]]] = None,
        op_timeout: float = DEFAULT_OP_TIMEOUT) -> List[SocketCommWorld]:
    """Stand up ``n_ranks`` socket worlds inside this process.

    Every rank gets its own :class:`SocketCommWorld` over real localhost
    TCP links — the full wire path (framing, binary payloads, receiver
    threads) without spawning OS processes.  Tests, the
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
    server = socket.create_server(("127.0.0.1", 0), backlog=max(n_ranks, 1))
    rendezvous = ("127.0.0.1", int(server.getsockname()[1]))
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
