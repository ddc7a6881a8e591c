"""Distributed-transport ladder: simulated vs socket MPI, ranks x K.

Runs the same fixed-seed distributed Gibbs chain — one rank program —
through both comm worlds: the in-memory
:class:`~repro.mpi.simmpi.SimCommWorld` (zero wire cost, ranks taking
turns on one core: the baseline) and the socket-backed
:class:`~repro.mpi.net.SocketCommWorld` (real localhost TCP links, the
frame codec, receiver threads, flush barriers) — across a grid of rank
counts and latent dimensions.  Because the socket chain is bit-identical
to the simulated one by construction, the rungs time *the same
arithmetic*; the gap between the two transports at one grid point is
purely the wire: framing, kernel crossings, and barrier round-trips.

Every row also re-checks that parity (``parity`` column): the socket
run's final RMSE must equal the simulated run's bitwise, so a timing
document can never silently describe two different chains.

Read the numbers with the machine in mind: on a single-core container
(the committed baseline — see ``environment.cpu_count``) all socket
ranks time-slice one CPU, so the ladder measures transport overhead
only, not parallel speed-up; rank scaling needs real cores or hosts
(``python -m repro.mpi.net --spawn``).

``python -m repro.bench distributed --record`` writes the recorded
document to ``BENCH_pr10.json``.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.utils.environment import machine_environment
from repro.utils.tables import Table
from repro.utils.validation import check_positive

__all__ = ["DistributedBenchRow", "DistributedBenchResult",
           "run_distributed_bench"]


@dataclass
class DistributedBenchRow:
    """One timed (transport, ranks, K) rung."""

    transport: str
    ranks: int
    num_latent: int
    sweeps: int
    seconds: float
    sweeps_per_s: float
    messages: int
    mb_sent: float
    final_rmse: float
    parity: Optional[bool]
    vs_sim: Optional[float]

    def to_json(self) -> Dict[str, object]:
        return {
            "transport": self.transport,
            "ranks": self.ranks,
            "num_latent": self.num_latent,
            "sweeps": self.sweeps,
            "seconds": self.seconds,
            "sweeps_per_s": self.sweeps_per_s,
            "messages": self.messages,
            "mb_sent": self.mb_sent,
            "final_rmse": self.final_rmse,
            "parity": self.parity,
            "vs_sim": self.vs_sim,
        }


@dataclass
class DistributedBenchResult:
    """All rungs plus workload and machine metadata."""

    rows: List[DistributedBenchRow]
    workload: Dict[str, object]
    environment: Dict[str, object]

    def to_table(self) -> Table:
        table = Table(
            ["transport", "ranks", "K", "sweeps", "seconds", "sweeps/s",
             "msgs", "MB sent", "final rmse", "parity", "vs sim"],
            title="Distributed ladder — simulated vs socket comm world",
        )
        for row in self.rows:
            table.add_row(
                row.transport, row.ranks, row.num_latent, row.sweeps,
                round(row.seconds, 3), round(row.sweeps_per_s, 2),
                row.messages, round(row.mb_sent, 3),
                round(row.final_rmse, 6),
                "-" if row.parity is None else ("ok" if row.parity
                                                else "MISMATCH"),
                "-" if row.vs_sim is None else f"{row.vs_sim:.2f}x",
            )
        return table

    def to_json_payload(self) -> Dict[str, object]:
        """The ``BENCH_pr10.json`` document for this run."""
        return {
            "benchmark": "distributed-ladder",
            "created": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "environment": dict(self.environment),
            "workload": dict(self.workload),
            "results": [row.to_json() for row in self.rows],
        }


def run_distributed_bench(
    n_users: int = 400,
    n_movies: int = 300,
    density: float = 0.05,
    num_latents: Sequence[int] = (8, 16),
    rank_counts: Sequence[int] = (2, 4),
    burn_in: int = 2,
    n_samples: int = 4,
    alpha: float = 4.0,
    hyper_mode: str = "gather",
    buffer_capacity: int = 64,
    seed: int = 7,
    data_seed: int = 321,
) -> DistributedBenchResult:
    """Time the distributed chain over both transports on a ranks x K grid.

    Each grid point runs the *identical* fixed-seed chain twice: through
    ``SimCommWorld`` (transport ``sim``) and through localhost TCP
    sockets (transport ``socket``, one thread per rank via
    :func:`~repro.distributed.spmd.run_local_socket_world`).  ``vs_sim``
    is the socket rung's sweep rate over the sim rung's at the same grid
    point — the price of the real wire; ``parity`` re-asserts the
    bit-identical final RMSE that the test suite pins.
    """
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )
    from repro.distributed.spmd import run_local_socket_world

    check_positive("n_samples", n_samples)
    data = make_low_rank_dataset(SyntheticConfig(
        n_users=n_users, n_movies=n_movies, rank=4, density=density,
        noise_std=0.3, test_fraction=0.2, seed=data_seed))
    sweeps = burn_in + n_samples

    rows: List[DistributedBenchRow] = []
    for num_latent in num_latents:
        config = BPMFConfig(num_latent=num_latent, burn_in=burn_in,
                            n_samples=n_samples, alpha=alpha)
        for n_ranks in rank_counts:
            options = DistributedOptions(n_ranks=n_ranks,
                                         hyper_mode=hyper_mode,
                                         buffer_capacity=buffer_capacity)

            begin = time.perf_counter()
            sim_result, sim_info = DistributedGibbsSampler(
                config, options).run(data.split.train, data.split,
                                     seed=seed)
            sim_seconds = time.perf_counter() - begin
            sim_rate = sweeps / sim_seconds
            rows.append(DistributedBenchRow(
                transport="sim", ranks=n_ranks, num_latent=num_latent,
                sweeps=sweeps, seconds=sim_seconds, sweeps_per_s=sim_rate,
                messages=sim_info.n_messages,
                mb_sent=sim_info.bytes_sent / 1e6,
                final_rmse=float(sim_result.final_rmse),
                parity=None, vs_sim=None,
            ))

            begin = time.perf_counter()
            outcomes = run_local_socket_world(
                lambda: DistributedGibbsSampler(config, options),
                n_ranks, data.split.train, data.split, seed=seed)
            socket_seconds = time.perf_counter() - begin
            socket_result, _ = outcomes[0]
            socket_rate = sweeps / socket_seconds
            rows.append(DistributedBenchRow(
                transport="socket", ranks=n_ranks, num_latent=num_latent,
                sweeps=sweeps, seconds=socket_seconds,
                sweeps_per_s=socket_rate,
                # Each rank's info counts its own sends; the world total
                # is their sum (the sim transport already reports totals).
                messages=sum(info.n_messages for _, info in outcomes),
                mb_sent=sum(info.bytes_sent for _, info in outcomes) / 1e6,
                final_rmse=float(socket_result.final_rmse),
                parity=(socket_result.final_rmse == sim_result.final_rmse
                        and socket_result.rmse_running_mean
                        == sim_result.rmse_running_mean),
                vs_sim=socket_rate / sim_rate,
            ))

    return DistributedBenchResult(
        rows=rows,
        workload={
            "dataset": "synthetic-low-rank",
            "n_users": n_users,
            "n_movies": n_movies,
            "density": density,
            "num_latents": list(num_latents),
            "rank_counts": list(rank_counts),
            "burn_in": burn_in,
            "n_samples": n_samples,
            "hyper_mode": hyper_mode,
            "buffer_capacity": buffer_capacity,
            "seed": seed,
            "data_seed": data_seed,
            "note": ("socket ranks are threads on localhost TCP; on a "
                     "single-core machine this measures wire overhead, "
                     "not parallel speed-up"),
        },
        environment=machine_environment(),
    )
