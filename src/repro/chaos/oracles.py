"""Safety and liveness oracles for chaos runs.

All oracles run *after* the final heal and a quiescence window, against
an :class:`OracleAdapter` that gives them a uniform view of clients,
stores, and resolved-outcome maps across the four systems, read live
from a cluster or from merged snapshots.  The workload
(:func:`increment_spec`) is increment-only and keys start absent, so
the expected store state is exact: a key's value **and** version must
both equal the number of committed transactions that wrote it.

* **liveness** — every submitted transaction got a terminal response,
  client counters balance, and no client still has work in flight.
* **decision-consistency** — no transaction is resolved ``commit`` at one
  replica/partition and ``abort`` at another (2PC atomicity), and every
  client-visible commit is durably resolved as a commit at every replica
  of every partition it wrote.
* **replica-divergence** — all replicas of a partition agree on each
  workload key's ``(value, version)``.
* **value-parity** — the agreed state equals the committed-increment
  count: fewer means a lost update, more means a double apply.
* **durability** — evaluated against state *rebuilt from WAL images*
  after every server is power-cycled: no client-visible commit may be
  lost (``durability-lost-commit``) and no aborted write may resurface
  (``durability-abort-resurfaced``).  The store checks split the
  value-parity accounting by direction; the decision checks compare
  client-visible outcomes against the rebuilt resolved maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.txn import TransactionSpec, TxnResult

COMMIT = "commit"

#: A client result paired with the write-key set of its transaction.
ResultRow = Tuple[Tuple[str, ...], TxnResult]


def increment_spec(keys: Tuple[str, ...]) -> TransactionSpec:
    """Read-modify-write increment of each key (the oracle workload)."""
    def compute(reads: Dict[str, Any]) -> Dict[str, Any]:
        return {k: (reads.get(k) or 0) + 1 for k in keys}

    return TransactionSpec(read_keys=keys, write_keys=keys,
                           compute_writes=compute, txn_type="increment")


def pick_increment(rng: random.Random, n_clients: int,
                   keys: Sequence[str], pair_fraction: float
                   ) -> Tuple[int, Tuple[str, ...]]:
    """One seeded workload row, ``(client_index, keys)``: two sorted keys
    (usually a cross-partition transaction) with probability
    ``pair_fraction``, else one."""
    client = rng.randrange(n_clients)
    if len(keys) >= 2 and rng.random() < pair_fraction:
        return client, tuple(sorted(rng.sample(list(keys), 2)))
    return client, (keys[rng.randrange(len(keys))],)


class OracleAdapter:
    """The oracles' view of one deployment.

    ``store(node_id, pid)`` and ``resolved(node_id, pid)`` give a
    replica's versioned store and ``{tid: "commit"|"abort"}`` map for a
    partition; replicas are enumerated from ``directory``.  They read a
    live cluster (:func:`repro.chaos.runner.ClusterAdapter`) or merged
    snapshots (:func:`repro.runtime.harness.SnapshotAdapter`).
    """

    def __init__(self, ring: Any, directory: Any,
                 partition_ids: Sequence[str], clients: Sequence[Any],
                 store: Callable[[str, str], Any],
                 resolved: Callable[[str, str], Dict[Any, str]]):
        self.ring = ring
        self.directory = directory
        self.partition_ids = list(partition_ids)
        self._clients = list(clients)
        self._store = store
        self._resolved = resolved

    def clients(self) -> List[Any]:
        """All workload clients, construction order."""
        return list(self._clients)

    def client_quiesced(self, client: Any) -> bool:
        """Whether ``client`` has no work outstanding (its
        ``quiesced()``; kept for drain loops that hold only an adapter,
        such as the repository benchmark's)."""
        return client.quiesced()

    def partitions_for(self, keys: Sequence[str]) -> List[str]:
        """Sorted partition ids holding ``keys``."""
        return sorted({self.ring.partition_for(k) for k in keys})

    def stores_for_key(self, key: str) -> List[Tuple[str, Any]]:
        """``(node_id, store)`` for every replica of ``key``."""
        pid = self.ring.partition_for(key)
        return [(node_id, self._store(node_id, pid))
                for node_id in self.directory.lookup(pid).replicas]

    def resolved_for_pid(self, pid: str) -> List[Tuple[str, Dict]]:
        """``(location, {tid: decision})`` per replica of ``pid``."""
        return [(f"{node_id}/{pid}", self._resolved(node_id, pid))
                for node_id in self.directory.lookup(pid).replicas]

    def resolved_maps(self) -> List[Tuple[str, Dict]]:
        """Resolved-outcome maps for every replica of every partition."""
        out = []
        for pid in self.partition_ids:
            out.extend(self.resolved_for_pid(pid))
        return out


@dataclass
class OracleViolation:
    """One oracle failure: which oracle, what happened, and — when known —
    the transaction and key involved (used to pull the causal trace)."""

    oracle: str
    detail: str
    tid: Any = None
    key: Optional[str] = None

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


def check_liveness(adapter, expected: int,
                   results: Sequence[ResultRow]) -> List[OracleViolation]:
    """After the final heal + quiescence, everything must have terminated."""
    violations: List[OracleViolation] = []
    if len(results) < expected:
        violations.append(OracleViolation(
            "liveness",
            f"only {len(results)} of {expected} submitted transactions "
            "reached a terminal response after the final heal"))
    for client in adapter.clients():
        if client.submitted != client.committed + client.aborted:
            violations.append(OracleViolation(
                "liveness",
                f"{client.node_id}: submitted={client.submitted} != "
                f"committed={client.committed} + aborted={client.aborted}"))
        pending = client.pending()
        if pending:
            violations.append(OracleViolation(
                "liveness",
                f"{client.node_id}: {pending} transaction(s) still in "
                "flight after quiescence"))
    return violations


def check_decisions(adapter,
                    results: Sequence[ResultRow]) -> List[OracleViolation]:
    """2PC atomicity: one decision per transaction, everywhere."""
    violations: List[OracleViolation] = []
    decisions: Dict[Any, Dict[str, str]] = {}
    for location, resolved in adapter.resolved_maps():
        # Ordered: resolved insertion order is apply order, deterministic
        # under a fixed kernel seed.
        # detlint: ignore[values-fanout]
        for tid, decision in resolved.items():
            decisions.setdefault(tid, {})[location] = decision
    for tid in sorted(decisions, key=str):
        outcomes = sorted(set(decisions[tid].values()))
        if len(outcomes) > 1:
            where = ", ".join(f"{loc}={d}"
                              for loc, d in sorted(decisions[tid].items()))
            violations.append(OracleViolation(
                "decision-consistency",
                f"txn {tid} resolved inconsistently: {where}", tid=tid))
    # Client-visible commits must be resolved as commits at every replica
    # of every written partition (the writeback/commit retransmission
    # loops guarantee this once the network heals).
    for keys, result in results:
        if not result.committed:
            continue
        for pid in adapter.partitions_for(keys):
            for location, resolved in adapter.resolved_for_pid(pid):
                decision = resolved.get(result.tid)
                if decision != COMMIT:
                    found = "missing" if decision is None else decision
                    violations.append(OracleViolation(
                        "decision-consistency",
                        f"committed txn {result.tid} is {found} at "
                        f"{location}", tid=result.tid))
    return violations


def _committed_increments(results: Sequence[ResultRow]
                          ) -> Tuple[Dict[str, int], Dict[str, Any]]:
    """Per key: committed increments, and the last committer's tid."""
    counts: Dict[str, int] = {}
    last_tid: Dict[str, Any] = {}
    for write_keys, result in results:
        if result.committed:
            for key in write_keys:
                counts[key] = counts.get(key, 0) + 1
                last_tid[key] = result.tid
    return counts, last_tid


def check_stores(adapter, results: Sequence[ResultRow],
                 keys: Sequence[str]) -> List[OracleViolation]:
    """Replica agreement plus exact increment accounting per key."""
    violations: List[OracleViolation] = []
    committed_writes, last_tid = _committed_increments(results)
    for key in sorted(keys):
        want = committed_writes.get(key, 0)
        replicas = adapter.stores_for_key(key)
        states = []
        for node_id, store in replicas:
            record = store.read(key)
            value = 0 if record.value is None else record.value
            states.append((node_id, value, record.version))
        distinct = sorted({(value, version)
                           for _, value, version in states})
        if len(distinct) > 1:
            where = ", ".join(f"{n}=({v},v{ver})" for n, v, ver in states)
            violations.append(OracleViolation(
                "replica-divergence",
                f"key {key!r}: replicas disagree: {where}",
                tid=last_tid.get(key), key=key))
        for node_id, value, version in states:
            if value != want or version != want:
                violations.append(OracleViolation(
                    "value-parity",
                    f"key {key!r} at {node_id}: value={value} "
                    f"version={version}, expected {want} committed "
                    "increments", tid=last_tid.get(key), key=key))
    return violations


def check_durability(adapter, results: Sequence[ResultRow],
                     keys: Sequence[str]) -> List[OracleViolation]:
    """Committed writes survive a power cycle; aborted ones stay dead.

    Run after every server has been restarted from its WAL image, so the
    state inspected here is exactly what the durable records can rebuild
    — RAM-only survivals cannot mask a journaling hole.
    """
    violations: List[OracleViolation] = []
    committed_writes, last_tid = _committed_increments(results)
    for key in sorted(keys):
        want = committed_writes.get(key, 0)
        for node_id, store in adapter.stores_for_key(key):
            record = store.read(key)
            value = 0 if record.value is None else record.value
            if value < want or record.version < want:
                violations.append(OracleViolation(
                    "durability-lost-commit",
                    f"key {key!r} at {node_id} after restart: "
                    f"value={value} version={record.version}, expected "
                    f"{want} committed increments",
                    tid=last_tid.get(key), key=key))
            elif value > want or record.version > want:
                violations.append(OracleViolation(
                    "durability-abort-resurfaced",
                    f"key {key!r} at {node_id} after restart: "
                    f"value={value} version={record.version} exceeds "
                    f"{want} committed increments",
                    tid=last_tid.get(key), key=key))
    # Decision-level: every client-visible outcome must match the
    # rebuilt resolved maps of every partition the transaction wrote.
    for write_keys, result in results:
        for pid in adapter.partitions_for(write_keys):
            for location, resolved in adapter.resolved_for_pid(pid):
                decision = resolved.get(result.tid)
                if result.committed and decision != COMMIT:
                    found = "missing" if decision is None else decision
                    violations.append(OracleViolation(
                        "durability-lost-commit",
                        f"committed txn {result.tid} is {found} at "
                        f"{location} after restart", tid=result.tid))
                elif not result.committed and decision == COMMIT:
                    violations.append(OracleViolation(
                        "durability-abort-resurfaced",
                        f"aborted txn {result.tid} resolved as commit "
                        f"at {location} after restart", tid=result.tid))
    return violations
