"""Injectable fault shims: the runtime hooks a :class:`FaultPlan` drives.

Four hook families, matching the plan's site names:

* :class:`ChaosStream` (with :func:`open_chaos_stream`, the
  ``net.connect`` site) — wraps the serving client's asyncio
  connection, chosen when the client dials with an injector, and
  consults the injector on every frame write and every read: delay,
  drop the bytes, reset the connection, or degrade to one-byte reads
  (``slow`` — which also exercises the frame decoder's
  partial-reassembly path).
* :class:`ChaosSocket` — the same ``net.send``/``net.recv`` faults on a
  blocking socket: a WAL shipping link or a socket-world MPI link.
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
pays for them beyond one ``is None`` check per connection.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional

from repro.obs.trace import NULL_SPAN, activated
from repro.serving.chaos.plan import FaultInjector

__all__ = ["ChaosSocket", "ChaosStream", "FleetConductor",
           "InjectedConnectError", "open_chaos_stream"]


class InjectedConnectError(ConnectionError):
    """A scheduled ``net.connect`` failure (raised before any byte moves)."""


async def open_chaos_stream(host: str, port: int, injector: FaultInjector,
                            span=NULL_SPAN) -> "ChaosStream":
    """``asyncio.open_connection`` through the ``net.connect`` site.

    ``fail`` raises :class:`InjectedConnectError` before dialling;
    ``delay`` sleeps ``arg`` seconds first.  ``span`` is the thread's
    active span only around the synchronous check, so a fired fault
    annotates it.  The one :class:`ChaosStream` returned is the
    connection's reader and its writer.
    """
    # asyncio is imported where it is used: the socket-world MPI ranks
    # import this module for ChaosSocket and load no event loop.
    import asyncio

    with activated(span):
        event = injector.check("net.connect")
    if event is not None:
        if event.action == "fail":
            raise InjectedConnectError(
                f"injected connect failure to {(host, port)}")
        await asyncio.sleep(event.arg)
    reader, writer = await asyncio.open_connection(host, port)
    return ChaosStream(reader, writer, injector)


class ChaosStream:
    """An asyncio reader/writer proxy that executes scheduled faults.

    Forwards everything but ``write`` and ``read`` to the wrapped
    ``StreamWriter``.  The faults are :class:`ChaosSocket`'s, made
    non-blocking:

    * ``write`` (``net.send``): ``delay`` holds the frame — and every
      frame written behind it, in order — for ``arg`` seconds (a stalled
      link); ``drop`` discards it (a lost request: its reply timer
      fires); ``reset`` aborts the transport and raises
      ``ConnectionResetError``.
    * ``read`` (``net.recv``, every read, the hello reply's included):
      ``delay`` sleeps ``arg`` seconds first; ``slow`` returns at most
      one byte from this read on; ``drop`` swallows the link's bytes
      until it closes (a lost reply: the waiting requests' timers fire);
      ``reset`` aborts the transport and raises.
    """

    def __init__(self, reader, writer, injector: FaultInjector):
        self._reader = reader
        self._writer = writer
        self._injector = injector
        self._slow = False
        self._held: Optional[List[bytes]] = None

    def write(self, data: bytes) -> None:
        event = self._injector.check("net.send")
        action = None if event is None else event.action
        if action == "reset":
            self._writer.transport.abort()
            raise ConnectionResetError("injected reset on send")
        if action == "drop":
            return
        if self._held is not None:
            self._held.append(data)
        elif action == "delay":
            import asyncio

            self._held = [data]
            asyncio.get_running_loop().call_later(event.arg, self._release)
        else:
            self._writer.write(data)

    def _release(self) -> None:
        held, self._held = self._held, None
        if not self._writer.is_closing():
            self._writer.write(b"".join(held))

    async def read(self, n: int = -1) -> bytes:
        event = self._injector.check("net.recv")
        if event is not None:
            if event.action == "delay":
                import asyncio

                await asyncio.sleep(event.arg)
            elif event.action == "slow":
                self._slow = True
            elif event.action == "drop":
                while await self._reader.read(n):
                    pass
                raise ConnectionError("peer closed during injected drop")
            elif event.action == "reset":
                self._writer.transport.abort()
                raise ConnectionResetError("injected reset on recv")
        return await self._reader.read(1 if self._slow else n)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class ChaosSocket:
    """A blocking socket proxy that executes scheduled socket faults.

    Wraps an already-connected socket; every method the WAL shipping
    links and the socket-world MPI links use is forwarded, with
    ``sendall`` and ``recv`` consulting the injector first.  Faults
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

    # -- faultable operations ----------------------------------------------

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

    # -- plain passthrough --------------------------------------------------

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def gettimeout(self):
        return self._sock.gettimeout()

    def close(self) -> None:
        self._sock.close()

    def __getattr__(self, name):
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
