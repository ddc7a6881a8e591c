"""Log shipping: one write leader, N converging followers.

The replication layer between the durable log (:mod:`.log`) and the
serving fleet (:class:`~repro.serving.net.replica.ReplicaSet`):

* :class:`LeaderCoordinator` owns the :class:`WriteAheadLog`.  A
  mutation committed through it is validated, appended (durably, per
  the log's ``sync_every``), applied to the leader's own gateway, then
  fanned out to every follower as a ``wal_append`` frame over the
  serving protocol — only then is the ack (carrying the assigned
  seqno) returned, so an acked write is durable *and* readable on every
  live replica (read-your-writes across the fleet).
* :class:`FollowerCoordinator` applies shipped records through a
  :class:`MutationReplayer` (duplicates are counted no-ops), forwards
  any mutation a client sent *it* to the leader, and closes gaps by
  pulling ``wal_catchup`` batches — on spawn, on reconnect after missed
  shipments, whenever a record arrives ahead of its high-water mark.

Exactly-once has two independent layers: the replayer's seqno
high-water mark makes at-least-once *shipping* apply once, and the
leader's ``write_id`` dedup table makes at-least-once *client retries*
apply once — a retried mutation whose first attempt was actually
committed gets the original ack back, byte for byte.  The dedup table
is rebuilt from the log on recovery, so retries spanning a leader
restart stay exactly-once too.

Threading contract.  A coordinator lives on its replica's event loop,
the one thread that owns the gateway, and every method but
:meth:`~LeaderCoordinator.stats` runs there.  Its gateway calls go
through :attr:`~LeaderCoordinator.run`, which the server sets to its own
gateway call (it waits out a stall, and puts a sharded scorer's calls on
that scorer's private thread).  The leader has exactly one more thread,
its WAL thread, and it runs :meth:`WriteAheadLog.append` (the write and
the fsync) and nothing else.  Commits hold an asyncio lock from the
dedup check to the ack, so they serialize and seqno order is apply
order; reads, catch-up requests and stats run between a commit's awaits.
Coordinator traffic — shipments, forwards, catch-up pulls — rides one
asyncio connection per peer: the serving client's connection
(:func:`~repro.serving.net.client.dial`), frames with replies matched
by id.  Nothing waits on another replica while holding what
that replica needs: a follower forwarding a write stays free to apply
the shipment the forward triggers, and the leader serves catch-up
without the commit lock, so a follower can close a gap mid-commit.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import secrets
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import (NULL_SPAN, Span, TraceContext, Tracer,
                             maybe_span)
from repro.serving.net.backoff import Backoff
from repro.serving.net.client import NetError, dial
from repro.serving.net.protocol import Frame, ProtocolError
from repro.serving.wal.log import (
    WalError,
    WalRecord,
    WalWriteError,
    WriteAheadLog,
)
from repro.serving.wal.replay import (
    MutationReplayer,
    WalDivergenceError,
    WalGapError,
    mutation_record_payload,
    validate_mutation,
)

__all__ = ["LeaderCoordinator", "FollowerCoordinator", "WalUnavailableError",
           "CATCHUP_BATCH"]

#: Records per ``wal_catchup`` reply (and the follower's pull size).
CATCHUP_BATCH = 256

#: Client-retry dedup entries the leader retains (LRU).
DEDUP_CAPACITY = 65536

#: What a broken link to a peer raises (a refused handshake is a
#: NetError; asyncio's timeout is an OSError only from Python 3.11).
_LINK_ERRORS = (OSError, ProtocolError, NetError, asyncio.TimeoutError)


async def _inline(fn, *args):
    """The gateway call of a coordinator no server wired: ``fn`` here."""
    return fn(*args)


class _TraceMixin:
    """Trace plumbing shared by both coordinators.

    Trace context rides coordinator payloads under the reserved
    ``"trace"`` key (the server stamps its admission span before
    routing here); it is always *popped* before the payload flows into
    validation or the durable record, so the log bytes stay identical
    with tracing on or off.
    """

    _tracer: Optional[Tracer]

    def _trace_context(self,
                       payload: Dict[str, object]
                       ) -> Optional[TraceContext]:
        value = payload.pop("trace", None)
        if self._tracer is None:
            return None
        return TraceContext.from_wire(value)

    def _span(self, name: str, ctx: Optional[TraceContext], **attrs):
        if self._tracer is None or ctx is None:
            return NULL_SPAN
        return self._tracer.start(name, parent=ctx, attrs=attrs)


class WalUnavailableError(WalError):
    """The write path is down (leader unreachable / not wired yet)."""


class _Link:
    """One asyncio connection to a peer replica for coordinator traffic.

    The serving client's connection (:func:`~repro.serving.net.client.
    dial`): a record's rating arrays cross it as raw array blocks, so
    replicated values stay bit-identical, and requests are tagged with
    ids and matched to their replies, so concurrent requests share it.  Dialled on demand, and
    again once the peer has closed it.
    """

    #: Seconds a dial or a round-trip may take.
    timeout = 10.0

    def __init__(self, address: Tuple[str, int]):
        self.address = (str(address[0]), int(address[1]))
        self._connection = None
        self._dialing = asyncio.Lock()

    async def request(self, frame: Frame) -> Frame:
        """One round-trip; a broken cached connection is dropped and —
        when the frame is safe to replay — retried once on a fresh one.

        Safe to replay: ``wal_append``/``wal_catchup`` (idempotent via
        the replayer's high-water mark) and mutations carrying a
        ``write_id`` (the leader dedups).  This is what lets a follower
        heal through a leader restart when its first request after the
        restart still meets the pre-restart connection.
        """
        stale = self._connection is not None
        try:
            return await self._roundtrip(frame)
        except _LINK_ERRORS:
            await self.close()
            replayable = frame.kind in ("wal_append", "wal_catchup") \
                or "write_id" in frame.payload
            if not stale or not replayable:
                raise
            return await self._roundtrip(frame)

    async def _roundtrip(self, frame: Frame) -> Frame:
        connection = self._connection
        if connection is None or not connection.alive:
            connection = await self._redial()
        return await connection.roundtrip(frame, self.timeout)

    async def _redial(self):
        """A live connection; concurrent callers share one dial."""
        async with self._dialing:
            if self._connection is None or not self._connection.alive:
                await self.close()
                self._connection = await asyncio.wait_for(
                    dial(*self.address), self.timeout)
            return self._connection

    async def close(self) -> None:
        connection, self._connection = self._connection, None
        if connection is not None:
            await connection.close()


def _record_wire(record: WalRecord) -> Dict[str, object]:
    return {"seqno": int(record.seqno), "payload": dict(record.payload)}


def _record_from_wire(entry: Dict[str, object]) -> WalRecord:
    return WalRecord(seqno=int(entry["seqno"]),
                     payload=dict(entry["payload"]))


class _FollowerLink:
    """A leader-side shipping target with exponential failure backoff.

    Consecutive shipment failures double the skip window (capped,
    jittered — the shared :class:`Backoff` policy), so a down follower
    stops costing the commit path a connect-timeout per write; the first
    successful shipment resets it.  ``applied_seqno`` remembers the
    follower's acked high-water mark from its last shipment reply — the
    leader's view of that follower's replication lag.
    """

    def __init__(self, address: Tuple[str, int], backoff: Backoff):
        self.link = _Link(address)
        self.backoff = backoff
        self.failures = 0
        self.dead_until = 0.0
        self.applied_seqno = 0

    @property
    def shippable(self) -> bool:
        return time.monotonic() >= self.dead_until

    def mark_alive(self) -> None:
        self.failures = 0
        self.dead_until = 0.0

    async def mark_dead(self) -> None:
        await self.link.close()
        self.failures += 1
        self.dead_until = (time.monotonic()
                           + self.backoff.delay(self.failures))


class LeaderCoordinator(_TraceMixin):
    """The write leader: durable append, local apply, fan-out (see module).

    Parameters
    ----------
    service:
        The leader's own gateway; recovery replays the log into it.
    log:
        The (possibly freshly recovered) :class:`WriteAheadLog`.  The
        coordinator owns it from here on and closes it with itself.
    ship_cooldown:
        The *base* skip window after a failed shipment (it self-heals any
        gap by catch-up once shipping resumes).
    ship_backoff_max, ship_backoff_seed:
        Cap and jitter seed for the per-follower exponential backoff:
        consecutive failures double the skip window from ``ship_cooldown``
        up to ``ship_backoff_max``.  Seeding makes the jitter sequence
        reproducible for the chaos drills.
    """

    role = "leader"

    def __init__(self, service, log: WriteAheadLog,
                 ship_cooldown: float = 1.0, ship_backoff_max: float = 30.0,
                 ship_backoff_seed: Optional[int] = None,
                 tracer: Optional[Tracer] = None):
        self.service = service
        self.log = log
        self._tracer = tracer
        #: How gateway calls run (``await run(fn, *args)``): right here
        #: by default; :meth:`NetServer.set_wal` installs the server's.
        self.run = _inline
        self.replayer = MutationReplayer(service)
        self.instance = secrets.token_hex(4)
        self._followers: Dict[Tuple[str, int], _FollowerLink] = {}
        self._ship_cooldown = float(ship_cooldown)
        self._ship_backoff_max = max(float(ship_backoff_max),
                                     float(ship_cooldown))
        self._ship_backoff_seed = ship_backoff_seed
        self._dedup: "collections.OrderedDict[str, Dict[str, object]]" = \
            collections.OrderedDict()
        self.n_shipped = 0
        self.n_ship_failures = 0
        self.n_dedup_hits = 0
        self.n_catchup_batches_served = 0
        self.last_ship_error: Optional[str] = None
        #: Held from the dedup check to the ack (module docstring).
        self._commit_lock = asyncio.Lock()
        #: The one thread the log's appends run on.
        self._wal_thread = ThreadPoolExecutor(max_workers=1,
                                              thread_name_prefix="repro-wal")
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the recovered log into the gateway; rebuild client dedup."""
        for record in self.log.records():
            ack = self.replayer.apply(record)
            write_id = record.payload.get("write_id")
            if ack is not None and write_id is not None:
                ack = dict(ack)
                ack["seqno"] = record.seqno
                self._remember(str(write_id), ack)

    def _remember(self, write_id: str, ack: Dict[str, object]) -> None:
        self._dedup[write_id] = ack
        while len(self._dedup) > DEDUP_CAPACITY:
            self._dedup.popitem(last=False)

    # -- membership --------------------------------------------------------

    async def set_followers(self,
                            addresses: List[Tuple[str, int]]) -> None:
        """Replace the shipping target list (ReplicaSet wiring/rewiring)."""
        wanted = {(str(host), int(port)) for host, port in addresses}
        for address in list(self._followers):
            if address not in wanted:
                await self._followers.pop(address).link.close()
        for address in wanted:
            if address not in self._followers:
                # Each follower gets its own Backoff so one flapping
                # target does not advance another's jitter stream; the
                # port keeps seeded runs deterministic per follower.
                seed = self._ship_backoff_seed
                if seed is not None:
                    seed = int(seed) + int(address[1])
                self._followers[address] = _FollowerLink(
                    address, Backoff(base=self._ship_cooldown,
                                     cap=self._ship_backoff_max, seed=seed))

    # -- the write path ----------------------------------------------------

    async def handle_mutation(self, kind: str, payload: Dict[str, object]
                              ) -> Dict[str, object]:
        """Commit one mutation: validate → append → apply → ship → ack.

        Commits hold the commit lock throughout, so they serialize in
        seqno order.  Validation and apply are gateway calls
        (:attr:`run`); the append runs on the WAL thread, so the loop
        serves reads while it fsyncs.  The ack follows the fsync and
        every shippable follower's apply.

        A traced commit (the payload carries trace context) runs inside
        a ``wal.commit`` span, active for this task and copied onto the
        WAL thread with the append, so the log's append/fsync spans and
        the shipping span attach as its children — also while other
        commits wait their turn on the same loop.
        """
        ctx = self._trace_context(payload)
        with self._span("wal.commit", ctx, kind=kind) as span:
            async with self._commit_lock:
                write_id = payload.get("write_id")
                if write_id is not None:
                    cached = self._dedup.get(str(write_id))
                    if cached is not None:
                        self.n_dedup_hits += 1
                        span.set_attr("dedup_hit", True)
                        return dict(cached)
                record_payload = await self.run(self._record_payload, kind,
                                                payload, write_id)
                seqno = await asyncio.get_running_loop().run_in_executor(
                    self._wal_thread, contextvars.copy_context().run,
                    self.log.append, record_payload)
                record = WalRecord(seqno=seqno, payload=record_payload)
                ack = await self.run(self.replayer.apply, record)
                assert ack is not None  # fresh seqno, never a duplicate
                ack["seqno"] = seqno
                span.set_attr("seqno", seqno)
                await self._ship(record)
                if write_id is not None:
                    self._remember(str(write_id), dict(ack))
                return ack

    def _record_payload(self, kind: str, payload: Dict[str, object],
                        write_id) -> Dict[str, object]:
        """Validate one mutation and build its log record payload."""
        validate_mutation(self.service, kind, payload)
        return mutation_record_payload(
            self.service, kind, payload,
            str(write_id) if write_id is not None else None)

    async def _ship(self, record: WalRecord) -> None:
        """Fan one record out to every shippable follower.

        A failed follower goes on cooldown instead of failing the
        commit — it reconverges by catch-up (the seqno gap it sees on
        the next successful shipment triggers the pull).
        """
        ship_span = maybe_span("wal.ship", seqno=record.seqno,
                               followers=len(self._followers))
        payload = {"records": [_record_wire(record)],
                   "leader_hwm": self.log.high_seqno,
                   "leader_instance": self.instance}
        if isinstance(ship_span, Span):
            # The shipment carries the ship span's context, so the
            # follower's apply joins the same trace across the wire.
            payload["trace"] = ship_span.context().to_wire()
        with ship_span:
            await self._ship_payload(payload)

    async def _ship_payload(self, payload: Dict[str, object]) -> None:
        for follower in list(self._followers.values()):
            if not follower.shippable:
                self.n_ship_failures += 1
                continue
            try:
                reply = await follower.link.request(
                    Frame("wal_append", payload))
                if reply.is_error:
                    raise WalError(str(reply.payload.get("message")))
                self.n_shipped += 1
                follower.mark_alive()
                follower.applied_seqno = int(
                    reply.payload.get("applied", follower.applied_seqno))
            except _LINK_ERRORS + (WalError,) as error:
                await follower.mark_dead()
                self.n_ship_failures += 1
                self.last_ship_error = repr(error)

    # -- serving catch-up --------------------------------------------------

    def handle_wal_catchup(self,
                           payload: Dict[str, object]) -> Dict[str, object]:
        """One catch-up batch.  Reads only immutable, already-appended
        records, so it may run concurrently with a commit (the follower
        simply re-pulls anything it races past)."""
        start = int(payload.get("from", 1))
        limit = min(int(payload.get("limit", CATCHUP_BATCH)), CATCHUP_BATCH)
        records = self.log.read_range(start, max(1, limit))
        self.n_catchup_batches_served += 1
        return {"records": [_record_wire(record) for record in records],
                "high_seqno": self.log.high_seqno,
                "leader_instance": self.instance}

    async def handle_wal_append(self, payload) -> Dict[str, object]:
        raise WalError("the leader does not accept shipped records")

    # -- lifecycle / observability ----------------------------------------

    async def close(self) -> None:
        for follower in self._followers.values():
            await follower.link.close()
        self._followers.clear()
        # An append in flight finishes before the log closes under it.
        self._wal_thread.shutdown(wait=True)
        self.log.close()

    def stats(self) -> Dict[str, object]:
        log_stats = self.log.stats()
        replay_stats = self.replayer.stats()
        # Replication lag as the leader sees it: its own high seqno minus
        # each follower's last-acked applied seqno.  A follower that has
        # never acked reads as fully lagged — which is the truth.
        follower_applied = {
            f"{host}:{port}": follower.applied_seqno
            for (host, port), follower in self._followers.items()}
        # high_seqno is reported once, at the top level.
        high = log_stats.pop("high_seqno")
        max_lag = max((high - applied
                       for applied in follower_applied.values()),
                      default=0)
        return {
            "role": "leader",
            "high_seqno": high,
            "applied_seqno": replay_stats["applied_seqno"],
            "replayed": replay_stats["replayed"],
            "duplicates_skipped": replay_stats["duplicates_skipped"],
            "catchup_batches": self.n_catchup_batches_served,
            "shipped": self.n_shipped,
            "ship_failures": self.n_ship_failures,
            "dedup_hits": self.n_dedup_hits,
            "followers": len(self._followers),
            "follower_applied": follower_applied,
            "max_follower_lag": max_lag,
            "log": log_stats,
        }


class FollowerCoordinator(_TraceMixin):
    """A follower: apply shipments, forward writes, pull catch-up batches."""

    role = "follower"

    def __init__(self, service, leader_address: Tuple[str, int],
                 tracer: Optional[Tracer] = None):
        self.service = service
        self._tracer = tracer
        #: How gateway calls run (see :class:`LeaderCoordinator`).
        self.run = _inline
        self.leader_address = (str(leader_address[0]),
                               int(leader_address[1]))
        self.replayer = MutationReplayer(service)
        self._link = _Link(self.leader_address)
        self._leader_instance: Optional[str] = None
        #: Highest leader seqno this follower has *heard of* (from
        #: shipment and catch-up headers) — the reference point for its
        #: own replication lag.
        self.leader_hwm = 0
        self.n_forwarded = 0
        self.n_forward_failures = 0
        self.n_catchup_batches = 0

    # -- the write path (forwarding) ---------------------------------------

    async def handle_mutation(self, kind: str, payload: Dict[str, object]
                              ) -> Dict[str, object]:
        """Forward one mutation to the leader; relay its ack or error."""
        ctx = self._trace_context(payload)
        with self._span("wal.forward", ctx, kind=kind) as span:
            forwarded = {key: value for key, value in payload.items()
                         if key != "id"}
            if isinstance(span, Span):
                # The leader's commit span joins this trace.
                forwarded["trace"] = span.context().to_wire()
            frame = Frame(kind, forwarded)
            try:
                reply = await self._link.request(frame)
            except _LINK_ERRORS as error:
                self.n_forward_failures += 1
                raise WalUnavailableError(
                    f"write leader {self.leader_address} unreachable "
                    f"({error!r}); the write was not applied here — "
                    "retry (mutations carry a write_id, so a retry is "
                    "exactly-once)") from error
            self.n_forwarded += 1
            if reply.is_error:
                message = str(reply.payload.get("message"))
                if reply.payload.get("retryable"):
                    # The leader said the write was NOT applied (e.g.
                    # the append rolled itself back): keep that
                    # retryability when relaying, or the client would
                    # treat an injected disk fault as a definitive
                    # domain error.
                    raise WalWriteError(message)
                raise WalError(message)
            return dict(reply.payload)

    # -- the replication path ----------------------------------------------

    def _check_instance(self, payload: Dict[str, object],
                        leader_hwm: int) -> None:
        instance = payload.get("leader_instance")
        if instance is None:
            return
        if self._leader_instance is None:
            self._leader_instance = str(instance)
            return
        if str(instance) != self._leader_instance:
            self._leader_instance = str(instance)
            if leader_hwm < self.replayer.applied_seqno:
                # A restarted leader with *less* history than we applied
                # (an in-memory log died with it): silently rewinding
                # would diverge the fleet — fail loudly instead.
                raise WalDivergenceError(
                    f"leader restarted with high seqno {leader_hwm} below "
                    f"this replica's applied seqno "
                    f"{self.replayer.applied_seqno}; a non-durable log was "
                    "lost — restart this replica from the snapshot")

    async def handle_wal_append(self, payload: Dict[str, object]
                                ) -> Dict[str, object]:
        """Apply one shipped batch; close any gap by catching up first.

        Needs no lock against a concurrent catch-up: every apply is one
        gateway call, and the high-water mark makes an overlap a no-op.
        """
        ctx = self._trace_context(payload)
        with self._span("wal.follower_apply", ctx) as span:
            leader_hwm = int(payload.get("leader_hwm", 0))
            self._check_instance(payload, leader_hwm)
            self.leader_hwm = max(self.leader_hwm, leader_hwm)
            for entry in payload.get("records", ()):
                record = _record_from_wire(entry)
                try:
                    await self.run(self.replayer.apply, record)
                except WalGapError:
                    await self.catch_up(up_to=record.seqno - 1)
                    # Duplicate-safe by now.
                    await self.run(self.replayer.apply, record)
            span.set_attr("applied", self.replayer.applied_seqno)
            return {"applied": self.replayer.applied_seqno}

    async def catch_up(self, up_to: Optional[int] = None) -> int:
        """Pull records from the leader until the gap is closed.

        Pulls batches starting at the high-water mark until the leader
        reports nothing newer (or ``up_to`` is reached).  Returns how
        many records were applied; each batch is applied by one gateway
        call, between two reads, never inside one.
        """
        applied = 0
        while True:
            start = self.replayer.applied_seqno + 1
            if up_to is not None and start > up_to:
                return applied
            try:
                reply = await self._link.request(Frame("wal_catchup", {
                    "from": start, "limit": CATCHUP_BATCH}))
            except _LINK_ERRORS as error:
                raise WalUnavailableError(
                    f"catch-up from leader {self.leader_address} failed "
                    f"({error!r})") from error
            if reply.is_error:
                raise WalError(str(reply.payload.get("message")))
            high_seqno = int(reply.payload.get("high_seqno", 0))
            self._check_instance(reply.payload, high_seqno)
            self.leader_hwm = max(self.leader_hwm, high_seqno)
            records = [_record_from_wire(entry)
                       for entry in reply.payload.get("records", ())]
            applied += await self.run(self.replayer.apply_all, records)
            self.n_catchup_batches += 1
            high = high_seqno
            if not records or self.replayer.applied_seqno >= \
                    (min(high, up_to) if up_to is not None else high):
                return applied

    def handle_wal_catchup(self, payload) -> Dict[str, object]:
        raise WalError("catch-up is served by the leader")

    # -- lifecycle / observability ----------------------------------------

    async def close(self) -> None:
        await self._link.close()

    def stats(self) -> Dict[str, object]:
        replay_stats = self.replayer.stats()
        applied = replay_stats["applied_seqno"]
        return {
            "role": "follower",
            "applied_seqno": applied,
            "replayed": replay_stats["replayed"],
            "duplicates_skipped": replay_stats["duplicates_skipped"],
            "catchup_batches": self.n_catchup_batches,
            "forwarded": self.n_forwarded,
            "forward_failures": self.n_forward_failures,
            "leader": list(self.leader_address),
            "leader_hwm": self.leader_hwm,
            "lag": max(0, self.leader_hwm - applied),
        }
