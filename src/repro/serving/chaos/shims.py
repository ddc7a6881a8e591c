"""Injectable fault shims: the runtime hooks a :class:`FaultPlan` drives.

Four hook families, matching the plan's site names:

* :class:`ChaosShim` (with :func:`chaos_connect`, the ``net.connect``
  site) — the serving client's faults, chosen when the client dials
  with an injector.  The connection (an :class:`asyncio.Protocol`)
  hands the shim every frame it sends (``net.send``) and every chunk
  its ``data_received`` gets (``net.recv``): delay, drop the bytes,
  reset the connection, or degrade to one-byte chunks (``slow`` — which
  also exercises the frame decoder's partial-reassembly path).
* :class:`ChaosSocket` — the same ``net.send``/``net.recv`` faults on a
  blocking socket: a socket-world MPI link.
* The WAL filesystem faults (``wal.append``/``wal.fsync``) live inside
  :meth:`~repro.serving.wal.log.WriteAheadLog.append` itself — they
  must manipulate the segment file mid-append — but are driven by the
  same injector object threaded through
  :class:`~repro.serving.net.replica.ReplicaSet`.
* :class:`FleetConductor` — a thread that applies the plan's
  :class:`~repro.serving.chaos.plan.FleetEvent` timeline to a live
  :class:`~repro.serving.net.replica.ReplicaSet`: hard-kill a replica
  and restart it after its scheduled downtime, or pause one replica's
  gateway (:meth:`~repro.serving.net.server.NetServer.stall`).  Events
  apply sequentially, so at most one replica is down at a time and the
  fleet never loses quorum entirely.

All hooks are no-ops without an injector — the production path never
pays for them beyond one ``is None`` check per connection.  The socket
world imports this module for :class:`ChaosSocket` and loads no event
loop: asyncio is imported only where a coroutine needs it.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional

from repro.obs.trace import NULL_SPAN, activated
from repro.serving.chaos.plan import FaultInjector

__all__ = ["ChaosShim", "ChaosSocket", "FleetConductor",
           "InjectedConnectError", "chaos_connect"]


class InjectedConnectError(ConnectionError):
    """A scheduled ``net.connect`` failure (raised before any byte moves)."""


async def chaos_connect(host: str, port: int, injector: FaultInjector,
                        span=NULL_SPAN) -> None:
    """The ``net.connect`` site, before the client dials: ``fail``
    raises :class:`InjectedConnectError`, ``delay`` sleeps ``arg``
    seconds.  ``span`` is active around the check, so a fired fault
    annotates it."""
    import asyncio

    with activated(span):
        event = injector.check("net.connect")
    if event is not None:
        if event.action == "fail":
            raise InjectedConnectError(
                f"injected connect failure to {(host, port)}")
        await asyncio.sleep(event.arg)


class ChaosShim:
    """The ``net.send``/``net.recv`` faults of one asyncio connection,
    which calls :meth:`send` instead of ``transport.write`` and passes
    each received chunk through :meth:`receive`.  :class:`ChaosSocket`'s
    faults, made non-blocking:

    * ``send``: ``delay`` holds the frame, and every frame behind it, for
      ``arg`` seconds (a stalled link); ``drop`` discards it (a lost
      request: its reply timer fires); ``reset`` aborts the transport
      and raises ``ConnectionResetError``.
    * ``receive`` (every chunk, the hello reply's included): ``delay``
      holds the chunk, and the link's reads, for ``arg`` seconds;
      ``slow`` delivers it and every later chunk one byte per
      ``net.recv``; ``drop`` swallows the link's bytes until it closes
      (a lost reply); ``reset`` is ``send``'s.
    """

    def __init__(self, injector: FaultInjector):
        self._injector = injector
        self._slow = False
        self._dropping = False
        self._held_sends: Optional[List[bytes]] = None

    def send(self, transport, data: bytes) -> None:
        event = self._injector.check("net.send")
        action = None if event is None else event.action
        if action == "reset":
            transport.abort()
            raise ConnectionResetError("injected reset on send")
        if action == "drop":
            return
        if self._held_sends is not None:
            self._held_sends.append(data)
        elif action == "delay":
            import asyncio

            self._held_sends = [data]
            asyncio.get_running_loop().call_later(
                event.arg, self._release_sends, transport)
        else:
            transport.write(data)

    def _release_sends(self, transport) -> None:
        held, self._held_sends = self._held_sends, None
        if not transport.is_closing():
            transport.write(b"".join(held))

    def receive(self, transport, data: bytes, deliver) -> None:
        """Pass one received chunk to ``deliver`` through the faults."""
        while data and not self._dropping:
            event = self._injector.check("net.recv")
            action = None if event is None else event.action
            if action == "reset":
                transport.abort()
                raise ConnectionResetError("injected reset on recv")
            if action == "drop":
                self._dropping = True
                return
            if action == "delay":
                import asyncio

                transport.pause_reading()
                asyncio.get_running_loop().call_later(
                    event.arg, self._release_chunk, transport, data,
                    deliver)
                return
            if action == "slow":
                self._slow = True
            if not self._slow:
                deliver(data)
                return
            deliver(data[:1])
            data = data[1:]

    @staticmethod
    def _release_chunk(transport, data: bytes, deliver) -> None:
        if not transport.is_closing():
            transport.resume_reading()
            deliver(data)


class ChaosSocket:
    """A blocking socket proxy that executes scheduled socket faults.

    Wraps an already-connected socket; every method the socket-world
    MPI links use is forwarded, with ``sendall`` and ``recv`` consulting
    the injector first.  Faults
    mimic real failure modes:

    * ``delay`` — sleep ``arg`` seconds, then do the operation (a stalled
      network; the peer still gets/serves the data).
    * ``drop`` on send — discard the frame and report success (a lost
      request: the caller's next read times out).
    * ``drop`` on recv — wait out the socket timeout and raise
      ``socket.timeout`` (a lost reply).
    * ``reset`` — close the underlying socket and raise
      ``ConnectionResetError`` (a peer crash / RST).
    * ``slow`` on recv — return at most one byte per call for this and
      every later read on the connection, forcing the frame decoder to
      reassemble frames from single-byte chunks.
    """

    def __init__(self, sock: socket.socket, injector: FaultInjector):
        self._sock = sock
        self._injector = injector
        self._slow = False

    def sendall(self, data: bytes) -> None:
        event = self._injector.check("net.send")
        if event is not None:
            if event.action == "delay":
                time.sleep(event.arg)
            elif event.action == "drop":
                return  # the bytes vanish; the caller's read will time out
            elif event.action == "reset":
                self._sock.close()
                raise ConnectionResetError("injected reset on send")
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        event = self._injector.check("net.recv")
        if event is not None:
            if event.action == "delay":
                time.sleep(event.arg)
            elif event.action == "slow":
                self._slow = True
            elif event.action == "drop":
                # Swallow whatever arrives until the timeout fires — the
                # reply is "lost"; a timeout-less socket gets a reset
                # instead so the caller can never hang here.
                if self._sock.gettimeout() is None:
                    self._sock.close()
                    raise ConnectionResetError("injected drop on recv "
                                               "(no timeout to wait out)")
                deadline = time.monotonic() + self._sock.gettimeout()
                try:
                    while time.monotonic() < deadline:
                        if not self._sock.recv(bufsize):
                            raise ConnectionError(
                                "peer closed during injected drop")
                except socket.timeout:
                    pass
                raise socket.timeout("injected dropped reply")
            elif event.action == "reset":
                self._sock.close()
                raise ConnectionResetError("injected reset on recv")
        return self._sock.recv(1 if self._slow else bufsize)

    def __getattr__(self, name):  # everything else passes through
        return getattr(self._sock, name)


class FleetConductor(threading.Thread):
    """Apply a plan's fleet timeline to a live :class:`ReplicaSet`.

    ``start()`` begins the clock; each event waits for its offset, then
    runs to completion before the next (kill → scheduled downtime →
    restart), so at most one replica is ever down.  Every action is
    recorded in :attr:`log` with its wall-clock offset for the drill's
    report artifact.  :meth:`finish` joins the thread and re-raises
    anything a restart raised.
    """

    def __init__(self, replica_set, fleet_events):
        super().__init__(daemon=True, name="repro-chaos-conductor")
        self._replicas = replica_set
        self._events = sorted(fleet_events, key=lambda event: event.at)
        self.log: List[Dict[str, object]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        start = time.monotonic()
        try:
            for event in self._events:
                wait = event.at - (time.monotonic() - start)
                if wait > 0:
                    time.sleep(wait)
                offset = round(time.monotonic() - start, 3)
                if event.action == "kill":
                    self._replicas.kill(event.replica)
                    self.log.append({"at": offset, "action": "kill",
                                     "replica": event.replica,
                                     "downtime": event.arg})
                    time.sleep(event.arg)
                    self._replicas.restart(event.replica)
                    self.log.append({
                        "at": round(time.monotonic() - start, 3),
                        "action": "restart", "replica": event.replica})
                elif event.action == "pause":
                    self._replicas.pause(event.replica, event.arg)
                    self.log.append({"at": offset, "action": "pause",
                                     "replica": event.replica,
                                     "seconds": event.arg})
        except BaseException as error:  # surfaced by finish()
            self.error = error

    def finish(self, timeout: float = 60.0) -> List[Dict[str, object]]:
        """Join the conductor; returns its action log, raising on failure."""
        self.join(timeout=timeout)
        if self.is_alive():
            raise TimeoutError("fleet conductor did not finish")
        if self.error is not None:
            raise self.error
        return self.log
