"""Strong-scaling performance model (Figures 4 and 5).

The functional distributed sampler proves the algorithm; this module
predicts its wall-clock behaviour on a cluster the execution environment
does not have.  For every node count it:

1. partitions the dataset with the workload-aware partitioner and derives
   the communication plan — i.e. the *real* data distribution and traffic
   the functional sampler would produce;
2. computes every node's per-phase compute time by scheduling its items on
   the simulated multicore node (work-stealing over ``cores_per_node``
   cores), scaled by the cache model (smaller partitions run faster per
   item — the paper's super-linear region);
3. computes the message traffic per rank pair from the plan and the send
   buffers (messages, bytes, per-message CPU overhead), link transfer times
   from the rack-aware network model and the shared inter-rack uplink;
4. combines them into per-rank phase times with or without
   communication/computation overlap, yielding the iteration time, the
   throughput in item updates per second and the parallel efficiency
   (Figure 4), plus the compute / both / communicate breakdown (Figure 5).

Steps 3 and 4 work on ``(n_ranks, n_ranks)`` rank-pair arrays.  Row and
column totals are taken with ``np.cumsum`` so they add up in rank order.

The machine is two frozen dataclasses.  :class:`ClusterSpec` describes
the nodes and racks of the paper's two machines: *Lynx*, 20 dual-socket
Westmere nodes, and *Fermi*, an IBM BlueGene/Q with 16-core nodes in
32-node racks.  :class:`NetworkModel` prices the messages between them.
Figure 4's headline observation is topological: scaling is good (even
super-linear, thanks to shrinking per-node working sets) up to 32 nodes =
one rack, and degrades sharply once the allocation spans racks.  The
model has exactly the ingredients that shape needs:

* a fixed software overhead per message (why the paper aggregates items
  into send buffers);
* link latency and bandwidth that differ between intra-rack and
  inter-rack communication;
* a *shared inter-rack uplink* per rack, so inter-rack traffic from all
  nodes of a rack contends for the same pipe;
* a per-node cache capacity: when a node's working set (its slice of U and
  V plus the items it receives) drops below the cache size, its per-item
  compute cost shrinks, which is what produces super-linear speed-up.

Nothing in the model is fitted to the paper's curves; the shapes emerge
from the partition, the plan and the documented hardware parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.distributed.comm_plan import CommunicationPlan, build_comm_plan
from repro.distributed.partition import (
    Partition,
    locality_ordering,
    ordered_partition,
)
from repro.parallel.cost_model import DEFAULT_COST_MODEL
from repro.parallel.simulator import SimTask, tasks_from_degrees
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table
from repro.utils.validation import (
    ValidationError,
    check_non_negative,
    check_positive,
)

__all__ = ["ClusterSpec", "NetworkModel", "PhaseBreakdown", "ScalingConfig",
           "ScalingPoint", "StrongScalingResult", "strong_scaling_study"]

#: Kernel cost model and hybrid policy behind every node's compute time.
COST_MODEL = DEFAULT_COST_MODEL
POLICY = HybridUpdatePolicy()
#: Serial seconds per iteration spent in the hyperparameter draws.
HYPER_SERIAL_OVERHEAD = 2.0e-4
#: Bytes per stored rating (index + value) and per factor entry.
RATING_BYTES = 12
VALUE_BYTES = 8
#: Workloads with at most this many items (users + movies) run the
#: work-stealing scheduler for every node's compute makespan; larger
#: ones use the greedy bound ``max(total_work / cores, longest_chain)``.
SCHEDULER_ITEM_LIMIT = 50_000


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated machine.

    Parameters
    ----------
    cores_per_node:
        Hardware threads used per node (16 on the BlueGene/Q in the paper,
        hence the "#cores = 16 x #nodes" axis of Figure 4).
    rack_size:
        Nodes per rack; communication within a rack is cheap, across racks
        it shares the rack uplink.
    cache_bytes:
        Per-node last-level-cache capacity used by the cache-speed-up
        model.
    cache_speedup:
        Maximum multiplicative speed-up of per-item compute when the whole
        working set fits in cache (super-linear-scaling knob; set to 1.0 to
        disable).
    node_compute_efficiency:
        Fraction of ideal multi-core throughput a node achieves on its own
        share (intra-node parallel efficiency when the per-node scheduler
        is not simulated explicitly).
    """

    cores_per_node: int = 16
    rack_size: int = 32
    cache_bytes: float = 32 * 1024 * 1024
    cache_speedup: float = 1.35
    node_compute_efficiency: float = 0.9

    def __post_init__(self):
        check_positive("cores_per_node", self.cores_per_node)
        check_positive("rack_size", self.rack_size)
        check_positive("cache_bytes", self.cache_bytes)
        if self.cache_speedup < 1.0:
            raise ValueError("cache_speedup must be >= 1.0")
        if not (0.0 < self.node_compute_efficiency <= 1.0):
            raise ValueError("node_compute_efficiency must be in (0, 1]")

    def n_racks(self, n_nodes: int) -> int:
        return int(np.ceil(n_nodes / self.rack_size))

    def cache_factor(self, working_set_bytes: float) -> float:
        """Compute-speed multiplier in [1, cache_speedup] for a working set.

        Full speed-up when the working set fits entirely in cache, linear
        fall-off until 8x the cache size, no speed-up beyond that.
        """
        check_non_negative("working_set_bytes", working_set_bytes)
        if self.cache_speedup == 1.0:
            return 1.0
        ratio = working_set_bytes / self.cache_bytes
        if ratio <= 1.0:
            return self.cache_speedup
        if ratio >= 8.0:
            return 1.0
        # Linear interpolation in log2 space between fit (x1) and 8x (x0.0).
        t = (np.log2(ratio)) / 3.0
        return float(self.cache_speedup - t * (self.cache_speedup - 1.0))


@dataclass(frozen=True)
class NetworkModel:
    """Message-cost model with rack topology and uplink contention.

    Parameters
    ----------
    per_message_overhead:
        CPU seconds spent in the MPI library per message posted (the
        overhead the paper's send-buffer aggregation amortises).  This part
        cannot be overlapped with computation.
    intra_latency, inter_latency:
        One-way wire latency within a rack / across racks.
    intra_bandwidth, inter_bandwidth:
        Point-to-point link bandwidth (bytes/second) within / across racks.
    uplink_bandwidth:
        Aggregate bandwidth of one rack's uplink; all inter-rack traffic of
        a rack's nodes shares it.
    item_header_bytes:
        Per-item metadata carried in a message (index + bookkeeping).
    """

    per_message_overhead: float = 4.0e-6
    intra_latency: float = 2.0e-6
    inter_latency: float = 1.0e-5
    intra_bandwidth: float = 4.0e9
    inter_bandwidth: float = 1.2e9
    uplink_bandwidth: float = 6.0e9
    item_header_bytes: int = 8

    def __post_init__(self):
        for name in ("per_message_overhead", "intra_latency", "inter_latency"):
            check_non_negative(name, getattr(self, name))
        for name in ("intra_bandwidth", "inter_bandwidth", "uplink_bandwidth"):
            check_positive(name, getattr(self, name))
        check_non_negative("item_header_bytes", self.item_header_bytes)

    def allreduce_time(self, cluster: ClusterSpec, n_nodes: int,
                       n_bytes: float) -> float:
        """Recursive-doubling allreduce estimate (hyperparameter statistics)."""
        check_positive("n_nodes", n_nodes)
        if n_nodes == 1:
            return 0.0
        rounds = int(np.ceil(np.log2(n_nodes)))
        crosses_racks = cluster.n_racks(n_nodes) > 1
        latency = self.inter_latency if crosses_racks else self.intra_latency
        bandwidth = self.inter_bandwidth if crosses_racks else self.intra_bandwidth
        return rounds * (self.per_message_overhead + latency + n_bytes / bandwidth)


@dataclass
class PhaseBreakdown:
    """Seconds spent computing only, doing both, and communicating only,
    summed over the ranks of one iteration (Figure 5)."""

    compute: float
    both: float
    communicate: float

    def __post_init__(self):
        for name in ("compute", "both", "communicate"):
            check_non_negative(name, getattr(self, name))
        if self.total <= 0:
            raise ValidationError("breakdown must have positive total time")

    @property
    def total(self) -> float:
        return self.compute + self.both + self.communicate

    def fractions(self) -> Dict[str, float]:
        total = self.total
        return {
            "compute": self.compute / total,
            "both": self.both / total,
            "communicate": self.communicate / total,
        }


@dataclass(frozen=True)
class ScalingConfig:
    """Parameters of the strong-scaling study."""

    num_latent: int = 32
    buffer_capacity: int = 64
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    network: NetworkModel = field(default_factory=NetworkModel)
    reorder: bool = True
    overlap_communication: bool = True

    def __post_init__(self):
        check_positive("num_latent", self.num_latent)
        check_positive("buffer_capacity", self.buffer_capacity)


@dataclass
class ScalingPoint:
    """Model output for one node count."""

    n_nodes: int
    n_cores: int
    iteration_time: float
    throughput: float
    parallel_efficiency: float
    breakdown: PhaseBreakdown
    messages_per_iteration: int
    bytes_per_iteration: float
    cache_factor_mean: float

    def breakdown_fractions(self) -> Dict[str, float]:
        return self.breakdown.fractions()


@dataclass
class StrongScalingResult:
    """All scaling points of one study, plus the Figure 4/5 tabulators."""

    config: ScalingConfig
    n_items: int
    points: List[ScalingPoint]

    def point(self, n_nodes: int) -> ScalingPoint:
        for candidate in self.points:
            if candidate.n_nodes == n_nodes:
                return candidate
        raise KeyError(f"no scaling point for {n_nodes} nodes")

    def throughput_series(self) -> List[float]:
        return [point.throughput for point in self.points]

    def efficiency_series(self) -> List[float]:
        return [point.parallel_efficiency for point in self.points]

    def to_table(self) -> Table:
        """Figure 4: performance (items/s) and parallel efficiency per node count."""
        table = Table(
            ["nodes", "cores", "items/s", "parallel efficiency (%)",
             "messages/iter", "MB/iter"],
            title="Figure 4 — distributed BPMF strong scaling",
        )
        for point in self.points:
            table.add_row(
                point.n_nodes,
                point.n_cores,
                point.throughput,
                100.0 * point.parallel_efficiency,
                point.messages_per_iteration,
                point.bytes_per_iteration / 1e6,
            )
        return table

    def breakdown_table(self) -> Table:
        """Figure 5: compute / both / communicate shares per node count."""
        table = Table(
            ["nodes", "cores", "compute (%)", "both (%)", "communicate (%)"],
            title="Figure 5 — time spent computing, communicating and both",
        )
        for point in self.points:
            shares = point.breakdown_fractions()
            table.add_row(
                point.n_nodes,
                point.n_cores,
                100.0 * shares["compute"],
                100.0 * shares["both"],
                100.0 * shares["communicate"],
            )
        return table


# --------------------------------------------------------------------------- #
# the model
# --------------------------------------------------------------------------- #

@dataclass
class _Phase:
    """One phase's per-item inputs, shared by every node count."""

    name: str
    degrees: np.ndarray
    costs: np.ndarray    # serial cost of the chosen kernel
    chains: np.ndarray   # longest unsplittable piece (critical path)
    tasks: Optional[List[SimTask]]   # None: the makespan bound is used


def _phase_inputs(name: str, degrees: np.ndarray, num_latent: int,
                  use_scheduler: bool) -> _Phase:
    """Per-item (serial cost, longest sub-task chain) and, on the
    scheduler path, the simulated tasks."""
    k = num_latent
    rank_one = np.asarray(COST_MODEL.cost(degrees, UpdateMethod.RANK_ONE, k))
    serial = np.asarray(COST_MODEL.cost(degrees, UpdateMethod.SERIAL_CHOLESKY, k))
    costs = np.where(degrees < POLICY.rank_one_limit(k), rank_one, serial)
    # Heavy items are splittable: their contribution to the critical path is
    # one Gram block plus the factorisation tail, not the whole item.
    heavy = degrees >= POLICY.parallel_threshold
    chains = costs.copy()
    if heavy.any():
        n_sub = np.maximum(2, np.ceil(degrees[heavy] / POLICY.block_grain))
        per_block = (COST_MODEL.chol_per_rating * (k / COST_MODEL.k_ref) ** 2
                     * degrees[heavy] / n_sub)
        tail = float(COST_MODEL.cost(0, UpdateMethod.PARALLEL_CHOLESKY, k,
                                     workers=1))
        chains[heavy] = per_block + tail
    tasks = (tasks_from_degrees(degrees, k, policy=POLICY, tag=name)
             if use_scheduler else None)
    return _Phase(name, degrees, costs, chains, tasks)


def _members(owner: np.ndarray, n_ranks: int) -> List[np.ndarray]:
    """Item ids owned by each rank, ascending (``np.nonzero(owner == r)``)."""
    order = np.argsort(owner, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n_ranks))])
    return [order[bounds[r]:bounds[r + 1]] for r in range(n_ranks)]


def _row_sums(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values, axis=1)[:, -1]


def _column_sums(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values, axis=0)[-1]


def _resident_bytes(partition: Partition, owned: Dict[str, List[np.ndarray]],
                    users: _Phase, movies: _Phase,
                    config: ScalingConfig) -> np.ndarray:
    """Per-rank bytes of its slices of U and V plus its share of the rating
    structure: the node stores the CSR slices of its users and the CSC
    slices of its movies (both views are needed by the two phases)."""
    n_ranks = partition.n_ranks
    n_local = (np.bincount(partition.user_owner, minlength=n_ranks)
               + np.bincount(partition.movie_owner, minlength=n_ranks))
    local_nnz = np.array([int(users.degrees[u].sum() + movies.degrees[m].sum())
                          for u, m in zip(owned["users"], owned["movies"])],
                         dtype=np.int64)
    return (n_local * config.num_latent * VALUE_BYTES
            + local_nnz * RATING_BYTES)


def _phase_model(phase: _Phase, owned: List[np.ndarray],
                 resident: np.ndarray, plan: CommunicationPlan,
                 config: ScalingConfig, scheduler: WorkStealingScheduler
                 ) -> Tuple[float, int, float, float, np.ndarray]:
    """Model one phase (movies or users).

    ``resident[r]`` is rank ``r``'s working set before the items it
    receives.  Returns the phase time, messages, bytes, mean cache factor
    and a ``(3, n_ranks)`` array of each rank's compute-only / both /
    communicate-only seconds.
    """
    cluster, network = config.cluster, config.network
    n_ranks = len(owned)
    items = plan.items_between(phase.name)
    received = items.sum(axis=0)
    np.fill_diagonal(items, 0)

    # --- per-rank compute time (simulated multicore node + cache model) ----
    compute = np.zeros(n_ranks)
    cache_factors = np.zeros(n_ranks)
    working_sets = resident + received * config.num_latent * VALUE_BYTES
    for rank, members in enumerate(owned):
        if members.shape[0] == 0:
            makespan = 0.0
        elif phase.tasks is not None:
            tasks = [phase.tasks[i] for i in members]
            makespan = scheduler.schedule(tasks, cluster.cores_per_node).makespan
        else:
            # Greedy list-scheduling bound: total work spread over the cores,
            # no shorter than the longest unsplittable chain.
            total_work = float(phase.costs[members].sum())
            longest = float(phase.chains[members].max())
            makespan = max(total_work / cluster.cores_per_node, longest)
        factor = cluster.cache_factor(int(working_sets[rank]))
        cache_factors[rank] = factor
        compute[rank] = makespan / (factor * cluster.node_compute_efficiency)

    # --- message traffic, per (source, destination) ------------------------
    rack = np.arange(n_ranks) // cluster.rack_size
    same_rack = rack[:, None] == rack[None, :]
    latency = np.where(same_rack, network.intra_latency, network.inter_latency)
    bandwidth = np.where(same_rack, network.intra_bandwidth,
                         network.inter_bandwidth)
    item_bytes = config.num_latent * VALUE_BYTES + network.item_header_bytes
    traffic = items > 0
    messages = -(-items // config.buffer_capacity)
    payload = items * item_bytes
    last_payload = (items - (messages - 1) * config.buffer_capacity) * item_bytes

    cpu = messages * network.per_message_overhead
    send_cpu, recv_cpu = _row_sums(cpu), _column_sums(cpu)
    wire = np.where(traffic, messages * latency + payload / bandwidth, 0.0)
    transfer_out = _row_sums(wire)        # total wire time of a rank's sends
    # The last buffer to each destination leaves at the end of the source's
    # compute; its own wire time bounds the arrival.
    last_buffer = np.where(traffic, latency + last_payload / bandwidth, 0.0)
    interrack = np.where(traffic & ~same_rack, payload, 0).sum(axis=1)
    uplink_drain = (np.bincount(rack, weights=interrack)
                    / network.uplink_bandwidth)

    # --- per-rank phase completion ------------------------------------------
    ready = compute + send_cpu
    if config.overlap_communication:
        # Earlier buffers were streamed during the source's compute; only
        # the excess of total wire time over compute leaks out.
        hidden_excess = np.maximum(0.0, transfer_out - compute)
        arrival = ready[:, None] + last_buffer + hidden_excess[:, None]
    else:
        # Synchronous exchange: every transfer starts after compute and the
        # source's sends serialise.
        arrival = (ready + transfer_out)[:, None]
    arrival = np.where(same_rack, arrival, arrival + uplink_drain[rack][:, None])
    arrival = np.where(traffic, arrival, 0.0).max(axis=0)
    phase_end = np.maximum(compute + send_cpu + recv_cpu, arrival)
    phase_time = float(phase_end.max())

    # --- Figure 5 accounting --------------------------------------------------
    comm_busy = transfer_out + _column_sums(last_buffer)
    overlap = (np.minimum(compute, comm_busy) if config.overlap_communication
               else np.zeros(n_ranks))
    shares = np.stack([compute - overlap, overlap,
                       np.maximum(phase_time - compute, 0.0)])
    return (phase_time, int(messages[traffic].sum()),
            float(payload[traffic].sum()), float(cache_factors.mean()), shares)


def _model_point(ratings: RatingMatrix, n_nodes: int, config: ScalingConfig,
                 ordering: Tuple[np.ndarray, np.ndarray],
                 movies: _Phase, users: _Phase,
                 scheduler: WorkStealingScheduler) -> ScalingPoint:
    # Balance the partition in the same cost units the compute model uses.
    partition = ordered_partition(n_nodes, users.costs, movies.costs, ordering)
    plan = build_comm_plan(ratings, partition)
    owned = {"users": _members(partition.user_owner, n_nodes),
             "movies": _members(partition.movie_owner, n_nodes)}
    resident = _resident_bytes(partition, owned, users, movies, config)

    per_rank = np.zeros((3, n_nodes))   # compute-only / both / communicate
    phase_times, n_messages, n_bytes, cache_means = [], 0, 0.0, []
    for phase in (movies, users):
        phase_time, messages, bytes_, cache_mean, shares = _phase_model(
            phase, owned[phase.name], resident, plan, config, scheduler)
        phase_times.append(phase_time)
        n_messages += messages
        n_bytes += bytes_
        cache_means.append(cache_mean)
        per_rank = per_rank + shares

    k = config.num_latent
    hyper_bytes = (1 + k + k * k) * 8
    hyper_time = (HYPER_SERIAL_OVERHEAD
                  + 2 * config.network.allreduce_time(config.cluster, n_nodes,
                                                      hyper_bytes))
    iteration_time = phase_times[0] + phase_times[1] + hyper_time
    n_items = ratings.n_users + ratings.n_movies
    compute, both, communicate = (float(total) for total in _row_sums(per_rank))

    return ScalingPoint(
        n_nodes=n_nodes,
        n_cores=n_nodes * config.cluster.cores_per_node,
        iteration_time=iteration_time,
        throughput=n_items / iteration_time,
        parallel_efficiency=float("nan"),  # filled relative to the smallest count
        breakdown=PhaseBreakdown(compute, both, communicate),
        messages_per_iteration=n_messages,
        bytes_per_iteration=n_bytes,
        cache_factor_mean=0.5 * (cache_means[0] + cache_means[1]),
    )


def strong_scaling_study(
    ratings: RatingMatrix,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    config: Optional[ScalingConfig] = None,
) -> StrongScalingResult:
    """Run the Figure 4/5 model over a range of node counts.

    ``parallel_efficiency`` is computed relative to the smallest node
    count in the sweep, matching the paper's definition of strong-scaling
    efficiency.
    """
    config = config or ScalingConfig()
    for count in node_counts:
        check_positive("node_counts entry", count)
    use_scheduler = ratings.n_users + ratings.n_movies <= SCHEDULER_ITEM_LIMIT
    movies = _phase_inputs("movies", ratings.movie_degrees(),
                           config.num_latent, use_scheduler)
    users = _phase_inputs("users", ratings.user_degrees(),
                          config.num_latent, use_scheduler)
    # The locality ordering depends on the matrix only: compute it once.
    # One node keeps the natural order.
    natural = locality_ordering(ratings, reorder=False)
    reordered = (locality_ordering(ratings, config.reorder)
                 if max(node_counts) > 1 else natural)
    scheduler = WorkStealingScheduler()
    points = [_model_point(ratings, n, config,
                           reordered if n > 1 else natural,
                           movies, users, scheduler)
              for n in node_counts]

    reference = min(points, key=lambda p: p.n_nodes)
    for point in points:
        ideal = reference.throughput * (point.n_nodes / reference.n_nodes)
        point.parallel_efficiency = point.throughput / ideal

    return StrongScalingResult(
        config=config,
        n_items=ratings.n_users + ratings.n_movies,
        points=points,
    )
