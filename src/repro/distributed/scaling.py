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

Nothing in the model is fitted to the paper's curves; the shapes emerge
from the partition, the plan and the documented hardware parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.distributed.comm_plan import CommunicationPlan, build_comm_plan
from repro.distributed.partition import Partition, partition_ratings
from repro.mpi.network import ClusterSpec, NetworkModel
from repro.mpi.trace import PhaseBreakdown, RankTimeline
from repro.parallel.cost_model import DEFAULT_COST_MODEL, UpdateCostModel, WorkloadModel
from repro.parallel.simulator import tasks_from_degrees
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table
from repro.utils.validation import check_positive

__all__ = ["ScalingConfig", "ScalingPoint", "StrongScalingResult", "strong_scaling_study"]


@dataclass(frozen=True)
class ScalingConfig:
    """Parameters of the strong-scaling study."""

    num_latent: int = 32
    buffer_capacity: int = 64
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    network: NetworkModel = field(default_factory=NetworkModel)
    cost_model: UpdateCostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    policy: HybridUpdatePolicy = field(default_factory=HybridUpdatePolicy)
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    reorder: bool = True
    overlap_communication: bool = True
    hyper_serial_overhead: float = 2.0e-4
    rating_bytes: int = 12
    value_bytes: int = 8
    #: ``True`` — run the work-stealing scheduler for every node's compute
    #: makespan; ``False`` — use the greedy makespan bound
    #: ``max(total_work / cores, longest_chain)``; ``None`` (default) —
    #: scheduler for small workloads, bound for paper-scale ones.
    schedule_node_compute: Optional[bool] = None
    #: Item-count threshold for the automatic choice above.
    scheduler_item_limit: int = 50_000

    def __post_init__(self):
        check_positive("num_latent", self.num_latent)
        check_positive("buffer_capacity", self.buffer_capacity)
        check_positive("hyper_serial_overhead", self.hyper_serial_overhead)
        check_positive("scheduler_item_limit", self.scheduler_item_limit)


@dataclass
class ScalingPoint:
    """Model output for one node count."""

    n_nodes: int
    n_cores: int
    iteration_time: float
    throughput: float
    parallel_efficiency: float
    breakdown: PhaseBreakdown
    compute_time_max: float
    communication_time_max: float
    messages_per_iteration: int
    bytes_per_iteration: float
    items_exchanged_per_iteration: int
    cache_factor_mean: float
    work_imbalance: float

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
# single-point model
# --------------------------------------------------------------------------- #

def _hybrid_item_costs(degrees: np.ndarray, config: ScalingConfig
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-item (serial cost, longest sub-task chain) arrays."""
    model, policy = config.cost_model, config.policy
    k = config.num_latent
    rank_one = np.asarray(model.cost(degrees, UpdateMethod.RANK_ONE, k))
    serial = np.asarray(model.cost(degrees, UpdateMethod.SERIAL_CHOLESKY, k))
    costs = np.where(degrees < policy.rank_one_limit(k), rank_one, serial)
    # Heavy items are splittable: their contribution to the critical path is
    # one Gram block plus the factorisation tail, not the whole item.
    heavy = degrees >= policy.parallel_threshold
    chain = costs.copy()
    if heavy.any():
        n_sub = np.maximum(2, np.ceil(degrees[heavy] / policy.block_grain))
        per_block = (model.chol_per_rating * (k / model.k_ref) ** 2
                     * degrees[heavy] / n_sub)
        tail = float(model.cost(0, UpdateMethod.PARALLEL_CHOLESKY, k, workers=1))
        chain[heavy] = per_block + tail
    return costs, chain


def _phase_model(
    phase: str,
    ratings: RatingMatrix,
    partition: Partition,
    plan: CommunicationPlan,
    config: ScalingConfig,
    scheduler: WorkStealingScheduler,
    timelines: List[RankTimeline],
) -> Dict[str, float]:
    """Model one phase (movies or users); returns aggregate phase metrics."""
    cluster, network = config.cluster, config.network
    n_ranks = partition.n_ranks
    degrees = ratings.movie_degrees() if phase == "movies" else ratings.user_degrees()
    owned_of = partition.movies_of if phase == "movies" else partition.users_of
    user_degrees = ratings.user_degrees()
    movie_degrees = ratings.movie_degrees()

    n_items_total = ratings.n_users + ratings.n_movies
    if config.schedule_node_compute is None:
        use_scheduler = n_items_total <= config.scheduler_item_limit
    else:
        use_scheduler = config.schedule_node_compute
    item_costs, item_chains = _hybrid_item_costs(degrees, config)

    # --- per-rank compute time (simulated multicore node + cache model) ----
    compute = np.zeros(n_ranks)
    cache_factors = np.zeros(n_ranks)
    received_items = plan.items_between(phase).sum(axis=0)  # per destination
    for rank in range(n_ranks):
        owned = owned_of(rank)
        if owned.shape[0] == 0:
            makespan = 0.0
        elif use_scheduler:
            tasks = tasks_from_degrees(degrees[owned], config.num_latent,
                                       cost_model=config.cost_model,
                                       policy=config.policy, tag=phase)
            makespan = scheduler.schedule(tasks, cluster.cores_per_node).makespan
        else:
            # Greedy list-scheduling bound: total work spread over the cores,
            # no shorter than the longest unsplittable chain.
            total_work = float(item_costs[owned].sum())
            longest = float(item_chains[owned].max())
            makespan = max(total_work / cluster.cores_per_node, longest)
        # Working set: the rank's slices of U and V, the remote rows it
        # receives this iteration, and its share of the rating structure.
        n_local_users = int((partition.user_owner == rank).sum())
        n_local_movies = int((partition.movie_owner == rank).sum())
        # The node stores the CSR slices of its users and the CSC slices of
        # its movies (both views are needed by the two phases).
        local_nnz = int(user_degrees[partition.users_of(rank)].sum()
                        + movie_degrees[partition.movies_of(rank)].sum())
        working_set = ((n_local_users + n_local_movies + int(received_items[rank]))
                       * config.num_latent * config.value_bytes
                       + local_nnz * config.rating_bytes)
        factor = cluster.cache_factor(working_set)
        cache_factors[rank] = factor
        compute[rank] = makespan / (factor * cluster.node_compute_efficiency)

    # --- message traffic ----------------------------------------------------
    items_matrix = plan.items_between(phase)
    send_cpu = np.zeros(n_ranks)
    recv_cpu = np.zeros(n_ranks)
    transfer_out_total = np.zeros(n_ranks)     # total wire time of a rank's sends
    last_buffer_time = np.zeros((n_ranks, n_ranks))
    bytes_sent = 0.0
    n_messages = 0
    interrack_bytes_from_rack: Dict[int, float] = {}

    for src in range(n_ranks):
        for dst in range(n_ranks):
            items = int(items_matrix[src, dst])
            if items == 0 or src == dst:
                continue
            messages = math.ceil(items / config.buffer_capacity)
            payload = network.message_bytes(items, config.num_latent,
                                            config.value_bytes)
            bytes_sent += payload
            n_messages += messages
            send_cpu[src] += messages * network.per_message_overhead
            recv_cpu[dst] += messages * network.per_message_overhead
            wire = (messages * network.latency(cluster, src, dst)
                    + payload / network.bandwidth(cluster, src, dst))
            transfer_out_total[src] += wire
            # The last buffer to this destination leaves at the end of the
            # source's compute; its own wire time bounds the arrival.
            last_items = items - (messages - 1) * config.buffer_capacity
            last_payload = network.message_bytes(last_items, config.num_latent,
                                                 config.value_bytes)
            last_buffer_time[src, dst] = network.transfer_time(cluster, src, dst,
                                                               last_payload)
            if not cluster.same_rack(src, dst):
                rack = cluster.rack_of(src)
                interrack_bytes_from_rack[rack] = (
                    interrack_bytes_from_rack.get(rack, 0.0) + payload)

    uplink_drain = {rack: network.uplink_serialization(bytes_)
                    for rack, bytes_ in interrack_bytes_from_rack.items()}

    # --- per-rank phase completion ------------------------------------------
    phase_end = np.zeros(n_ranks)
    local_done = compute + send_cpu + recv_cpu
    for dst in range(n_ranks):
        arrival = 0.0
        for src in range(n_ranks):
            if src == dst or items_matrix[src, dst] == 0:
                continue
            if config.overlap_communication:
                # Earlier buffers were streamed during the source's compute;
                # only the excess of total wire time over compute leaks out.
                hidden_excess = max(0.0, transfer_out_total[src] - compute[src])
                candidate = (compute[src] + send_cpu[src]
                             + last_buffer_time[src, dst] + hidden_excess)
            else:
                # Synchronous exchange: every transfer starts after compute
                # and the source's sends serialise.
                candidate = (compute[src] + send_cpu[src] + transfer_out_total[src])
            if not cluster.same_rack(src, dst):
                candidate += uplink_drain.get(cluster.rack_of(src), 0.0)
            arrival = max(arrival, candidate)
        phase_end[dst] = max(local_done[dst], arrival)

    phase_time = float(phase_end.max())

    # --- Figure 5 accounting --------------------------------------------------
    for rank in range(n_ranks):
        comm_busy = transfer_out_total[rank] + float(
            sum(last_buffer_time[src, rank] for src in range(n_ranks)))
        overlap = min(compute[rank], comm_busy) if config.overlap_communication else 0.0
        compute_only = compute[rank] - overlap
        communicate_only = max(phase_time - compute[rank], 0.0)
        timelines[rank].add_compute(compute_only)
        timelines[rank].add_both(overlap)
        timelines[rank].add_communicate(communicate_only)

    return {
        "phase_time": phase_time,
        "compute_max": float(compute.max()) if n_ranks else 0.0,
        "comm_max": float((phase_end - compute).max()) if n_ranks else 0.0,
        "messages": float(n_messages),
        "bytes": bytes_sent,
        "cache_factor_mean": float(cache_factors.mean()) if n_ranks else 1.0,
    }


def _model_point(ratings: RatingMatrix, n_nodes: int,
                 config: ScalingConfig,
                 scheduler: WorkStealingScheduler) -> ScalingPoint:
    # Balance the partition in the same cost units the compute model uses.
    user_costs, _ = _hybrid_item_costs(ratings.user_degrees(), config)
    movie_costs, _ = _hybrid_item_costs(ratings.movie_degrees(), config)
    partition = partition_ratings(ratings, n_nodes, workload=config.workload,
                                  reorder=config.reorder,
                                  user_costs=user_costs, movie_costs=movie_costs)
    plan = build_comm_plan(ratings, partition)
    timelines = [RankTimeline(rank) for rank in range(n_nodes)]

    movie_metrics = _phase_model("movies", ratings, partition, plan, config,
                                 scheduler, timelines)
    user_metrics = _phase_model("users", ratings, partition, plan, config,
                                scheduler, timelines)

    k = config.num_latent
    hyper_bytes = (1 + k + k * k) * 8
    hyper_time = (config.hyper_serial_overhead
                  + 2 * config.network.allreduce_time(config.cluster, n_nodes,
                                                      hyper_bytes))
    iteration_time = (movie_metrics["phase_time"] + user_metrics["phase_time"]
                      + hyper_time)
    n_items = ratings.n_users + ratings.n_movies
    throughput = n_items / iteration_time

    return ScalingPoint(
        n_nodes=n_nodes,
        n_cores=n_nodes * config.cluster.cores_per_node,
        iteration_time=iteration_time,
        throughput=throughput,
        parallel_efficiency=float("nan"),  # filled relative to the first point
        breakdown=PhaseBreakdown.from_timelines(timelines),
        compute_time_max=movie_metrics["compute_max"] + user_metrics["compute_max"],
        communication_time_max=movie_metrics["comm_max"] + user_metrics["comm_max"],
        messages_per_iteration=int(movie_metrics["messages"] + user_metrics["messages"]),
        bytes_per_iteration=movie_metrics["bytes"] + user_metrics["bytes"],
        items_exchanged_per_iteration=plan.total_items_exchanged(),
        cache_factor_mean=0.5 * (movie_metrics["cache_factor_mean"]
                                 + user_metrics["cache_factor_mean"]),
        work_imbalance=partition.imbalance(ratings, config.workload),
    )


def strong_scaling_study(
    ratings: RatingMatrix,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    config: Optional[ScalingConfig] = None,
    baseline_nodes: Optional[int] = None,
) -> StrongScalingResult:
    """Run the Figure 4/5 model over a range of node counts.

    ``parallel_efficiency`` is computed relative to ``baseline_nodes``
    (default: the smallest node count in the sweep), matching the paper's
    definition of strong-scaling efficiency.
    """
    config = config or ScalingConfig()
    for count in node_counts:
        check_positive("node_counts entry", count)
    scheduler = WorkStealingScheduler()
    points = [_model_point(ratings, n, config, scheduler) for n in node_counts]

    reference_nodes = baseline_nodes or min(node_counts)
    reference = next(p for p in points if p.n_nodes == reference_nodes)
    for point in points:
        ideal = reference.throughput * (point.n_nodes / reference.n_nodes)
        point.parallel_efficiency = point.throughput / ideal

    return StrongScalingResult(
        config=config,
        n_items=ratings.n_users + ratings.n_movies,
        points=points,
    )
