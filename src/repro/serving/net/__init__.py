"""Network serving frontend: framed RPC over TCP, fusion, replication.

* :mod:`~repro.serving.net.protocol` — versioned, length-prefixed frames,
  one parser and one executor for the TCP transport and the stdin REPL;
* :mod:`~repro.serving.net.server` — :class:`NetServer`, one
  :class:`asyncio.Protocol` per connection over a gateway the event loop
  owns;
* :mod:`~repro.serving.net.fusion` — :class:`QueryFuser`, concurrent
  ``top_n`` requests in one batched gateway call;
* :mod:`~repro.serving.net.replica` — :class:`ReplicaSet`, N replicas
  converging through the durable mutation log (:mod:`repro.serving.wal`);
* :mod:`~repro.serving.net.client` — :class:`AsyncServingClient` and its
  blocking facade :class:`ServingClient`: round-robin with failover,
  exactly-once writes by ``write_id``.

``python -m repro.serving serve --tcp HOST:PORT [--replicas N]
[--wal DIR]`` wires it all together from the command line.
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
