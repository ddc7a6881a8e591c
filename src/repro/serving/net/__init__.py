"""Network serving frontend: framed RPC over TCP, fusion, replication.

The serving stack's front door.  PR 2–4 built the posterior snapshot
store, the single-process :class:`~repro.serving.service.PredictionService`
and the sharded shared-memory :class:`~repro.serving.cluster.ShardedScorer`;
this package turns them into a networked service:

* :mod:`repro.serving.net.protocol` — versioned, length-prefixed frames
  (stdlib ``struct``), one parser and one executor shared by the TCP
  transport *and* the stdin REPL.  Serving connections ship ndarray
  vectors as raw little-endian blocks (the binary payload form); the
  JSON form remains for the MPI handshake hellos;
* :mod:`repro.serving.net.server` — :class:`NetServer`: asyncio TCP
  server with a protocol-version handshake, bounded in-flight requests,
  concurrent service of id-tagged (pipelined) requests, graceful
  SIGTERM drain and snapshot hot-reload that never drops a connection;
* :mod:`repro.serving.net.fusion` — :class:`QueryFuser` (the default
  dispatch path): merges concurrent cross-user ``top_n`` requests into
  one batched gateway dispatch per window with zero added latency when
  idle, bit-identical per request to serving them alone;
* :mod:`repro.serving.net.replica` — :class:`ReplicaSet`: N gateway
  replicas behind one address list, converging through the durable
  mutation log (:mod:`repro.serving.wal`): replica 0 is the write
  leader, acked writes are readable on every live replica and, with a
  log directory, survive crashes;
* :mod:`repro.serving.net.client` — :class:`AsyncServingClient`, the
  one client (replies dispatched by id, many requests per connection),
  and :class:`ServingClient`, its blocking facade on a private event
  loop: health-checked round-robin with automatic failover; reads
  retry across replicas, and mutations do too (exactly-once — every
  mutation carries a ``write_id`` the WAL leader dedups).

``python -m repro.serving serve --tcp HOST:PORT [--replicas N]
[--fuse-window MS]`` wires it all together from the command line.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD",
    "hello_frame",
    "Frame",
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "parse_line",
    "format_reply",
    "execute",
    "NetServer",
    "QueryFuser",
    "ReplicaSet",
    "ServingClient",
    "AsyncServingClient",
    "NetError",
    "DeadlineError",
    "Backoff",
    "ERROR_DEADLINE",
    "ERROR_OVERLOADED",
    "error_frame",
]

# Lazy (PEP 562): the codec alone (``protocol``) loads no asyncio.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.serving.net.backoff": ("Backoff",),
    "repro.serving.net.client": ("AsyncServingClient", "DeadlineError",
                                 "NetError", "ServingClient"),
    "repro.serving.net.fusion": ("QueryFuser",),
    "repro.serving.net.protocol": ("ERROR_DEADLINE",
                                   "ERROR_OVERLOADED", "MAX_PAYLOAD",
                                   "PROTOCOL_VERSION", "Frame",
                                   "FrameDecoder", "ProtocolError",
                                   "encode_frame", "error_frame", "execute",
                                   "format_reply", "hello_frame",
                                   "parse_line"),
    "repro.serving.net.replica": ("ReplicaSet",),
    "repro.serving.net.server": ("NetServer",),
})
