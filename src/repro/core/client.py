"""Carousel's client-side library.

Implements the Figure 1 interface over the simulator's event-driven model:
an application submits a :class:`~repro.txn.TransactionSpec` (the 2FI
transaction: fixed read/write key sets plus a write-value function) and the
client runs the whole protocol — reads piggybacked with prepares, the
commit round, heartbeats, retransmissions — completing with a
:class:`~repro.txn.TxnResult` callback.

The client always selects a local participant leader as the transaction
coordinator when one exists, otherwise any local consensus group leader
(§3.3).  In ``FAST`` mode it sends prepare requests to every replica of
each participant partition (CPC, §4.2) and reads from a replica in its own
datacenter when the partition leader is remote (§4.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.config import CarouselConfig
from repro.core.messages import (
    ClientHeartbeat,
    CommitRequest,
    CoordPrepareRequest,
    PartitionSets,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadPrepareRequest,
    ReadReply,
    TxnReply,
)
from repro.sim.message import Message
from repro.sim.node import Node
from repro.trace.tracer import SPAN_COMMIT, SPAN_READ, SPAN_READ_ONLY
from repro.store.directory import DirectoryCache, DirectoryService
from repro.store.partitioning import Partitioner
from repro.txn import (
    REASON_COMMITTED,
    REASON_CONFLICT,
    TID,
    TransactionSpec,
    TxnResult,
)

PHASE_READ = "read"
PHASE_COMMIT = "commit"
PHASE_READ_ONLY = "read_only"
PHASE_DONE = "done"

CompletionCallback = Callable[[TxnResult], None]


@dataclass
class _ClientTxn:
    """Client-side state of one in-flight transaction."""

    tid: TID
    spec: TransactionSpec
    on_complete: Optional[CompletionCallback]
    started_ms: float
    phase: str = PHASE_READ
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    coordinator_id: str = ""
    coord_group_id: str = ""
    #: Partitions we still need a read reply from.
    awaiting_reads: Set[str] = field(default_factory=set)
    values: Dict[str, Any] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)
    #: Read-only path: partitions that have answered OK.
    readonly_ok: Set[str] = field(default_factory=set)
    writes: Dict[str, Any] = field(default_factory=dict)
    abort_requested: bool = False
    heartbeat_timer: Any = None
    retry_timer: Any = None
    retries: int = 0
    #: Tracing: the currently-open client phase span (read/commit).
    phase_span: Any = None


class CarouselClient(Node):
    """An application server running Carousel's client library (§3.3)."""

    def __init__(self, node_id: str, dc: str, kernel, network,
                 directory: DirectoryService, partitioner: Partitioner,
                 config: CarouselConfig,
                 result_hook: Optional[CompletionCallback] = None):
        super().__init__(node_id, dc, kernel, network)
        if config.directory_cache_ttl_ms is not None:
            directory = DirectoryCache(
                directory, clock=lambda: kernel.now,
                ttl_ms=config.directory_cache_ttl_ms)
        self.directory = directory
        self.partitioner = partitioner
        self.config = config
        self.result_hook = result_hook
        self._counter = 0
        self._active: Dict[TID, _ClientTxn] = {}
        self._coord_rr = 0
        self.submitted = 0
        self.committed = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    # Public API (Figure 1)
    # ------------------------------------------------------------------
    def begin(self) -> TID:
        """Allocate a transaction id (client id + local counter)."""
        self._counter += 1
        return TID(self.node_id, self._counter)

    def submit(self, spec: TransactionSpec,
               on_complete: Optional[CompletionCallback] = None) -> TID:
        """Run one 2FI transaction; completion is reported via callback."""
        tid = self.begin()
        txn = _ClientTxn(tid=tid, spec=spec, on_complete=on_complete,
                         started_ms=self.kernel.now)
        self._active[tid] = txn
        self.submitted += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.txn_begin(tid, system="carousel-" + self.config.mode,
                             client=self.node_id, dc=self.dc)
        self._build_participants(txn)
        if not txn.participants:
            self._complete(txn, True, REASON_COMMITTED)
            return tid
        if spec.is_read_only and self.config.read_only_optimization:
            txn.phase = PHASE_READ_ONLY
            if tracer.enabled:
                txn.phase_span = tracer.span_begin(
                    tid, SPAN_READ_ONLY, self.node_id, self.dc)
            self._send_read_only(txn)
        else:
            self._choose_coordinator(txn)
            if tracer.enabled:
                txn.phase_span = tracer.span_begin(
                    tid, SPAN_READ, self.node_id, self.dc)
            self._send_read_prepare(txn)
            self._arm_heartbeat(txn)
            if not txn.awaiting_reads:
                self._enter_commit_phase(txn)
        self._arm_retry(txn)
        return tid

    def pending(self) -> int:
        """Transactions submitted here and not yet answered."""
        return len(self._active)

    def quiesced(self) -> bool:
        """Whether this client has no work outstanding."""
        return not self._active

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _build_participants(self, txn: _ClientTxn) -> None:
        spec = txn.spec
        read_groups = self.partitioner.group_by_partition(spec.read_keys)
        write_groups = self.partitioner.group_by_partition(spec.write_keys)
        for pid in sorted(set(read_groups) | set(write_groups)):
            txn.participants[pid] = PartitionSets(
                read_keys=tuple(read_groups.get(pid, ())),
                write_keys=tuple(write_groups.get(pid, ())))
        txn.awaiting_reads = {pid for pid, sets in txn.participants.items()
                              if sets.read_keys}

    def _choose_coordinator(self, txn: _ClientTxn) -> None:
        """Prefer a local participant leader; else any local leader; else
        the nearest leader (§3.3)."""
        local_participant = None
        for pid in txn.participants:
            info = self.directory.lookup(pid)
            if info.leader_datacenter() == self.dc:
                local_participant = pid
                break
        if local_participant is not None:
            group = local_participant
        else:
            local_groups = self.directory.leaders_in(self.dc)
            if local_groups:
                group = local_groups[self._coord_rr % len(local_groups)]
                self._coord_rr += 1
            else:
                topo = self.network.topology
                group = min(
                    self.directory.partitions(),
                    key=lambda pid: topo.rtt(
                        self.dc,
                        self.directory.lookup(pid).leader_datacenter()))
        info = self.directory.lookup(group)
        txn.coord_group_id = group
        txn.coordinator_id = info.leader

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send_read_prepare(self, txn: _ClientTxn) -> None:
        self.send(txn.coordinator_id, CoordPrepareRequest(
            tid=txn.tid, client_id=self.node_id,
            group_id=txn.coord_group_id,
            participants=dict(txn.participants)))
        fast = self.config.fast_path_enabled
        local_reads = self.config.local_reads_enabled
        nearest_reads = fast and self.config.read_nearest_replica
        # Ordered: participants is built over sorted(pids) in
        # _build_participants, so insertion order is the sorted order.
        # detlint: ignore[values-fanout]
        for pid, sets in txn.participants.items():
            info = self.directory.lookup(pid)
            targets = info.replicas if fast else [info.leader]
            nearest = None
            if nearest_reads and sets.read_keys and \
                    info.replica_in(self.dc) is None:
                # §4.4.1 extension: no local replica, so also read from
                # the closest one (staleness is caught at commit time).
                topo = self.network.topology
                nearest = min(
                    info.replicas,
                    key=lambda r: topo.rtt(
                        self.dc,
                        info.datacenters[info.replicas.index(r)]))
            for replica, replica_dc in zip(info.replicas, info.datacenters):
                if replica not in targets:
                    continue
                want_read = bool(sets.read_keys) and (
                    replica == info.leader
                    or (local_reads and replica_dc == self.dc)
                    or replica == nearest)
                self.send(replica, ReadPrepareRequest(
                    tid=txn.tid, partition_id=pid,
                    coordinator_id=txn.coordinator_id,
                    coord_group_id=txn.coord_group_id,
                    read_keys=sets.read_keys,
                    write_keys=sets.write_keys,
                    want_read=want_read, fast_path=fast))

    def _send_read_only(self, txn: _ClientTxn) -> None:
        # Ordered: participants insertion order is sorted(pids); see
        # _build_participants.
        # detlint: ignore[values-fanout]
        for pid, sets in txn.participants.items():
            if pid in txn.readonly_ok:
                continue
            leader = self.directory.lookup(pid).leader
            self.send(leader, ReadOnlyRequest(
                tid=txn.tid, partition_id=pid, keys=sets.read_keys))

    def _send_commit(self, txn: _ClientTxn) -> None:
        read_versions = {k: txn.versions[k] for k in txn.spec.read_keys
                         if k in txn.versions}
        self.send(txn.coordinator_id, CommitRequest(
            tid=txn.tid, abort=txn.abort_requested,
            writes=dict(txn.writes), read_versions=read_versions))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        if isinstance(msg, ReadReply):
            self._on_read_reply(msg)
        elif isinstance(msg, TxnReply):
            self._on_txn_reply(msg)
        elif isinstance(msg, ReadOnlyReply):
            self._on_read_only_reply(msg)
        else:  # pragma: no cover - routing bug
            raise TypeError(f"unexpected client message {msg!r}")

    def _on_read_reply(self, msg: ReadReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is None or txn.phase != PHASE_READ:
            return
        if msg.partition_id not in txn.awaiting_reads:
            return  # a slower replica lost the race (§4.4.1: first wins)
        txn.awaiting_reads.discard(msg.partition_id)
        for key, (value, version) in msg.values.items():
            txn.values[key] = value
            txn.versions[key] = version
        if not txn.awaiting_reads:
            self._enter_commit_phase(txn)

    def _enter_commit_phase(self, txn: _ClientTxn) -> None:
        txn.phase = PHASE_COMMIT
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(txn.phase_span)
            txn.phase_span = tracer.span_begin(
                txn.tid, SPAN_COMMIT, self.node_id, self.dc)
        reads = {k: txn.values.get(k) for k in txn.spec.read_keys}
        writes = txn.spec.run_write_function(reads)
        if writes is None:
            txn.abort_requested = True  # the application chose to abort
        else:
            txn.writes = writes
        self._cancel(txn, "heartbeat_timer")
        self._send_commit(txn)

    def _on_txn_reply(self, msg: TxnReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is None:
            return
        self._complete(txn, msg.committed, msg.reason)

    def _on_read_only_reply(self, msg: ReadOnlyReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is None or txn.phase != PHASE_READ_ONLY:
            return
        if not msg.ok:
            self._complete(txn, False, REASON_CONFLICT)
            return
        if msg.partition_id in txn.readonly_ok:
            return
        txn.readonly_ok.add(msg.partition_id)
        for key, (value, version) in msg.values.items():
            txn.values[key] = value
            txn.versions[key] = version
        if txn.readonly_ok >= set(txn.participants):
            self._complete(txn, True, REASON_COMMITTED)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self, txn: _ClientTxn, committed: bool,
                  reason: str) -> None:
        if txn.phase == PHASE_DONE:
            return
        txn.phase = PHASE_DONE
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(txn.phase_span)
            txn.phase_span = None
            tracer.txn_end(txn.tid, committed, reason)
        self._cancel(txn, "heartbeat_timer")
        self._cancel(txn, "retry_timer")
        self._active.pop(txn.tid, None)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        result = TxnResult(
            tid=txn.tid, committed=committed,
            latency_ms=self.kernel.now - txn.started_ms,
            reason=reason, txn_type=txn.spec.txn_type,
            reads=dict(txn.values))
        if txn.on_complete is not None:
            txn.on_complete(result)
        if self.result_hook is not None:
            self.result_hook(result)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_heartbeat(self, txn: _ClientTxn) -> None:
        txn.heartbeat_timer = self.set_timer(
            self.config.heartbeat_interval_ms, self._heartbeat, txn)

    def _heartbeat(self, txn: _ClientTxn) -> None:
        if txn.phase != PHASE_READ:
            return  # heartbeats stop once the commit request is sent
        self.send(txn.coordinator_id, ClientHeartbeat(tid=txn.tid))
        self._arm_heartbeat(txn)

    def _arm_retry(self, txn: _ClientTxn) -> None:
        # Capped exponential backoff keyed by this transaction's retry
        # count; the degenerate policy is the historical fixed interval.
        delay = self.config.retry_policy.delay_ms(txn.retries,
                                                  self.kernel.random)
        txn.retry_timer = self.set_timer(delay, self._retry, txn)

    def _retry(self, txn: _ClientTxn) -> None:
        """Retransmit the current phase against (possibly new) leaders."""
        if txn.phase == PHASE_DONE:
            return
        txn.retries += 1
        if isinstance(self.directory, DirectoryCache):
            # A stall usually means a leader moved: refresh our view of
            # this transaction's partitions before retransmitting.
            for pid in txn.participants:
                self.directory.invalidate(pid)
            if txn.coord_group_id:
                self.directory.invalidate(txn.coord_group_id)
        if txn.phase == PHASE_READ_ONLY:
            self._send_read_only(txn)
        elif txn.phase == PHASE_READ:
            self._refresh_coordinator(txn)
            self._send_read_prepare(txn)
        elif txn.phase == PHASE_COMMIT:
            self._refresh_coordinator(txn)
            # A successor coordinator elected before the read/write sets
            # replicated holds no record of this transaction, and the
            # commit request alone cannot create one (it carries no
            # participant sets).  Re-register first: on_coord_prepare
            # ignores duplicates, so this is safe for the common case
            # where the coordinator already knows the transaction.
            self.send(txn.coordinator_id, CoordPrepareRequest(
                tid=txn.tid, client_id=self.node_id,
                group_id=txn.coord_group_id,
                participants=dict(txn.participants)))
            self._send_commit(txn)
        self._arm_retry(txn)

    def _refresh_coordinator(self, txn: _ClientTxn) -> None:
        """The coordinating *group* is fixed for the transaction's life;
        only its leader may have moved."""
        info = self.directory.lookup(txn.coord_group_id)
        txn.coordinator_id = info.leader

    def _cancel(self, txn: _ClientTxn, name: str) -> None:
        timer = getattr(txn, name)
        if timer is not None:
            timer.cancel()
            setattr(txn, name, None)
