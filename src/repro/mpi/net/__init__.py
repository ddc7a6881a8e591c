"""The socket link of the MPI world (``repro.mpi.net``).

Real multi-process message passing with :mod:`repro.mpi.world`'s verbs:
:class:`SocketCommWorld` full-meshes the ranks over TCP using the
serving stack's framed codec and hands out the rank's
:class:`~repro.mpi.world.Comm`, and ``python -m repro.mpi.net`` launches
the rank processes.  See :mod:`repro.mpi.net.world` for the wire and
failure model.
"""

from repro.mpi.net.world import (
    CONNECT_TIMEOUT,
    DEFAULT_OP_TIMEOUT,
    MpiNetError,
    MpiTimeoutError,
    MpiTransportError,
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
    "SocketCommWorld",
    "free_port",
    "start_local_world",
]
