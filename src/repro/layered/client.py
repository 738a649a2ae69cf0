"""Client library for the layered baseline.

Strictly sequential: the read round completes, the write function runs,
then the client hands the whole transaction to a local coordinator, which
drives 2PC with every state change replicated before the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

from repro.core.backoff import RetryPolicy
from repro.core.messages import PartitionSets
from repro.layered.messages import (
    LayeredCommitRequest,
    LayeredRead,
    LayeredReadReply,
    LayeredReply,
)
from repro.sim.message import Message
from repro.sim.node import Node
from repro.trace.tracer import SPAN_COMMIT, SPAN_READ
from repro.txn import (
    REASON_CLIENT_ABORT,
    REASON_COMMITTED,
    TID,
    TransactionSpec,
    TxnResult,
)

PHASE_READ = "read"
PHASE_COMMIT = "commit"
PHASE_DONE = "done"

CompletionCallback = Callable[[TxnResult], None]


@dataclass
class _LayeredTxn:
    tid: TID
    spec: TransactionSpec
    on_complete: Optional[CompletionCallback]
    started_ms: float
    phase: str = PHASE_READ
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    coordinator_id: str = ""
    coord_group_id: str = ""
    awaiting_reads: Set[str] = field(default_factory=set)
    values: Dict[str, Any] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    retry_timer: Any = None
    retries: int = 0
    #: Tracing: the open client phase span (read/commit).
    phase_span: Any = None


class LayeredClient(Node):
    """An application server using the layered baseline."""

    def __init__(self, node_id: str, dc: str, kernel, network, directory,
                 partitioner, retry_ms: float = 10_000.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 result_hook: Optional[CompletionCallback] = None):
        super().__init__(node_id, dc, kernel, network)
        self.directory = directory
        self.partitioner = partitioner
        self.retry_ms = retry_ms
        # Default: the degenerate fixed-interval policy (no RNG draws).
        self.retry_policy = retry_policy or RetryPolicy(base_ms=retry_ms)
        self.result_hook = result_hook
        self._counter = 0
        self._active: Dict[TID, _LayeredTxn] = {}
        self.submitted = 0
        self.committed = 0
        self.aborted = 0

    def submit(self, spec: TransactionSpec,
               on_complete: Optional[CompletionCallback] = None) -> TID:
        """Run one transaction: read round, then hand 2PC to a coordinator."""
        self._counter += 1
        tid = TID(self.node_id, self._counter)
        txn = _LayeredTxn(tid=tid, spec=spec, on_complete=on_complete,
                          started_ms=self.kernel.now)
        self._active[tid] = txn
        self.submitted += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.txn_begin(tid, system="layered", client=self.node_id,
                             dc=self.dc)
        read_groups = self.partitioner.group_by_partition(spec.read_keys)
        write_groups = self.partitioner.group_by_partition(spec.write_keys)
        for pid in sorted(set(read_groups) | set(write_groups)):
            txn.participants[pid] = PartitionSets(
                read_keys=tuple(read_groups.get(pid, ())),
                write_keys=tuple(write_groups.get(pid, ())))
        if not txn.participants:
            self._complete(txn, True, REASON_COMMITTED)
            return tid
        self._choose_coordinator(txn)
        txn.awaiting_reads = {pid for pid, sets in txn.participants.items()
                              if sets.read_keys}
        if txn.awaiting_reads:
            if tracer.enabled:
                txn.phase_span = tracer.span_begin(
                    tid, SPAN_READ, self.node_id, self.dc)
            self._send_reads(txn)
        else:
            self._enter_commit(txn)
        self._arm_retry(txn)
        return tid

    def pending(self) -> int:
        """Transactions submitted here and not yet answered."""
        return len(self._active)

    def quiesced(self) -> bool:
        """Whether this client has no work outstanding."""
        return not self._active

    def _arm_retry(self, txn: _LayeredTxn) -> None:
        delay = self.retry_policy.delay_ms(txn.retries,
                                           self.kernel.random)
        txn.retry_timer = self.set_timer(delay, self._retry, txn)

    def _choose_coordinator(self, txn: _LayeredTxn) -> None:
        local = self.directory.leaders_in(self.dc)
        if local:
            group = local[0]
        else:
            topo = self.network.topology
            group = min(self.directory.partitions(),
                        key=lambda pid: topo.rtt(
                            self.dc,
                            self.directory.lookup(pid)
                            .leader_datacenter()))
        txn.coord_group_id = group
        txn.coordinator_id = self.directory.lookup(group).leader

    def _send_reads(self, txn: _LayeredTxn) -> None:
        for pid in sorted(txn.awaiting_reads):
            sets = txn.participants[pid]
            leader = self.directory.lookup(pid).leader
            self.send(leader, LayeredRead(
                tid=txn.tid, partition_id=pid, keys=sets.read_keys))

    def _enter_commit(self, txn: _LayeredTxn) -> None:
        txn.phase = PHASE_COMMIT
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(txn.phase_span)
            txn.phase_span = tracer.span_begin(
                txn.tid, SPAN_COMMIT, self.node_id, self.dc)
        reads = {k: txn.values.get(k) for k in txn.spec.read_keys}
        writes = txn.spec.run_write_function(reads)
        if writes is None:
            self._complete(txn, False, REASON_CLIENT_ABORT)
            return
        txn.writes = writes
        self._send_commit(txn)

    def _send_commit(self, txn: _LayeredTxn) -> None:
        self.send(txn.coordinator_id, LayeredCommitRequest(
            tid=txn.tid, client_id=self.node_id,
            group_id=txn.coord_group_id,
            participants=dict(txn.participants),
            writes=dict(txn.writes),
            read_versions=dict(txn.versions)))

    def _complete(self, txn: _LayeredTxn, committed: bool,
                  reason: str) -> None:
        if txn.phase == PHASE_DONE:
            return
        txn.phase = PHASE_DONE
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(txn.phase_span)
            txn.phase_span = None
            tracer.txn_end(txn.tid, committed, reason)
        if txn.retry_timer is not None:
            txn.retry_timer.cancel()
        self._active.pop(txn.tid, None)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        result = TxnResult(
            tid=txn.tid, committed=committed,
            latency_ms=self.kernel.now - txn.started_ms, reason=reason,
            txn_type=txn.spec.txn_type, reads=dict(txn.values))
        if txn.on_complete is not None:
            txn.on_complete(result)
        if self.result_hook is not None:
            self.result_hook(result)

    def _retry(self, txn: _LayeredTxn) -> None:
        if txn.phase == PHASE_DONE:
            return
        txn.retries += 1
        if txn.phase == PHASE_READ:
            self._send_reads(txn)
        else:
            txn.coordinator_id = self.directory.lookup(
                txn.coord_group_id).leader
            self._send_commit(txn)
        self._arm_retry(txn)

    def handle_message(self, msg: Message) -> None:
        if isinstance(msg, LayeredReadReply):
            txn = self._active.get(msg.tid)
            if txn is None or txn.phase != PHASE_READ:
                return
            if msg.partition_id not in txn.awaiting_reads:
                return
            txn.awaiting_reads.discard(msg.partition_id)
            for key, (value, version) in msg.values.items():
                txn.values[key] = value
                txn.versions[key] = version
            if not txn.awaiting_reads:
                self._enter_commit(txn)
        elif isinstance(msg, LayeredReply):
            txn = self._active.get(msg.tid)
            if txn is not None:
                self._complete(txn, msg.committed, msg.reason)
        else:  # pragma: no cover - routing bug
            raise TypeError(f"unexpected layered client message {msg!r}")
