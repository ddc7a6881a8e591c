"""Socket-backed MPI world (``repro.mpi.net``).

Real multi-process message passing with the :class:`~repro.mpi.simmpi.SimComm`
verb surface: :class:`SocketCommWorld` full-meshes the ranks over TCP
using the serving stack's framed codec, :class:`SocketComm` speaks
tagged ``isend``, ``recv(source, tag)``, ``allreduce``, ``bcast`` and
``barrier``, and ``python -m repro.mpi.net`` launches the rank
processes.  See :mod:`repro.mpi.net.world` for the receive and failure
model.
"""

from repro.mpi.net.world import (
    CONNECT_TIMEOUT,
    DEFAULT_OP_TIMEOUT,
    MpiNetError,
    MpiTimeoutError,
    MpiTransportError,
    SocketComm,
    SocketCommWorld,
    free_port,
    start_local_world,
)

__all__ = [
    "CONNECT_TIMEOUT",
    "DEFAULT_OP_TIMEOUT",
    "MpiNetError",
    "MpiTimeoutError",
    "MpiTransportError",
    "SocketComm",
    "SocketCommWorld",
    "free_port",
    "start_local_world",
]
