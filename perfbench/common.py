"""Workload definitions, per-run records and the correctness verdict
shared by the DES and asyncio drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.oracles import ResultRow, check_decisions, check_liveness
from repro.workloads.retwis import RetwisWorkload
from repro.workloads.ycsbt import YcsbTWorkload

#: Zipf skew and key-space size of every workload (paper §6.2).
THETA = 0.75
N_KEYS = 1_000_000
#: Virtual ms a crashed leader stays down before its WAL restart.
RESTART_AFTER_MS = 1_000.0


class BenchmarkError(RuntimeError):
    """The benchmark itself misbehaved (e.g. a DES run was not
    reproducible); never a property of the system under test."""


@dataclass(frozen=True)
class Workload:
    """One named workload: system, transaction mix, load and length."""

    name: str
    runtime: str            # "des" or "aio"
    system: str             # "carousel-fast" or "tapir"
    mix: str                # "retwis" or "ycsbt"
    clients_per_dc: int
    #: Open-loop Poisson rate; ``None`` means closed loop with no think
    #: time (each client submits its next transaction on a reply).
    open_rate_tps: Optional[float] = None
    #: Load length: virtual ms on the DES, wall seconds per sub-run on
    #: the asyncio runtime.
    load: float = 0.0
    #: Start of the measurement window, after the load starts (same
    #: units as ``load``).
    warmup: float = 0.0
    #: Crash partition p0's leader this many virtual ms into the load and
    #: restart it from its WAL :data:`RESTART_AFTER_MS` later.
    crash_at_ms: Optional[float] = None

    def generator(self, seed: int):
        """The seeded transaction generator (its own RNG stream)."""
        cls = RetwisWorkload if self.mix == "retwis" else YcsbTWorkload
        return cls(n_keys=N_KEYS, theta=THETA, seed=seed + 1)


@dataclass
class RunRecord:
    """What one measured run of one deployment produced."""

    setup_s: float = 0.0
    #: Wall seconds spent constructing the deployment (part of setup).
    build_s: float = 0.0
    #: ``perf_counter`` bounds of the load phase (first submit to last
    #: reply).
    load_span: Tuple[float, float] = (0.0, 0.0)
    #: Wall seconds from the first submit until every reply arrived.
    wall_s: float = 0.0
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    unanswered: int = 0
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    #: Commit latencies (ms) of transactions completing in the window.
    window_latencies: List[float] = field(default_factory=list)
    window_commits: int = 0
    window_ms: float = 0.0
    kernel_events: int = 0
    violations: List[str] = field(default_factory=list)
    #: Public counters read after the run (see the drivers).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Messages sent per type, where the transport counts them.
    sent_by_type: Dict[str, int] = field(default_factory=dict)
    #: Virtual ms from the crash to the first commit of a transaction
    #: submitted after it that touches p0 (0 when nothing crashed).
    unavailable_ms: float = 0.0

    @property
    def failed(self) -> int:
        """Transactions the client saw fail: aborts plus no reply."""
        return self.aborted + self.unanswered

    def fingerprint(self) -> Tuple:
        """Everything that must repeat exactly for one DES seed."""
        return (self.submitted, self.committed, self.aborted,
                self.unanswered, sorted(self.abort_reasons.items()),
                tuple(self.window_latencies), self.window_commits,
                self.kernel_events, sorted(self.counters.items()),
                self.unavailable_ms)


def host_counters(system: str, hosts: Sequence[Any],
                  clients: Sequence[Any]) -> Dict[str, int]:
    """Public counters of the servers (or TAPIR replicas) and clients."""
    counters = {
        "wal_appends": sum(h.wal.appends for h in hosts),
        "wal_syncs": sum(h.wal.syncs for h in hosts),
        "wal_records": sum(len(h.wal) for h in hosts),
    }
    if system == "tapir":
        counters["slow_paths"] = sum(c.slow_paths for c in clients)
        return counters
    members = [m for h in hosts for m in h.members.values()]
    counters["elections_started"] = sum(m.elections_started
                                        for m in members)
    counters["raft_log_entries"] = sum(len(m.log) for m in members)
    counters["fast_path_decisions"] = sum(
        h.coordinator.fast_path_decisions for h in hosts)
    counters["slow_path_decisions"] = sum(
        h.coordinator.slow_path_decisions for h in hosts)
    return counters


def abort_counts(results: Sequence[ResultRow]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for _, result in results:
        if not result.committed:
            counts[result.reason] = counts.get(result.reason, 0) + 1
    return counts


class FrozenAdapter:
    """Memoizes an oracle adapter's resolved maps.

    The oracles ask for a partition's resolved maps once per committed
    transaction, and :class:`repro.chaos.runner.ClusterAdapter` rebuilds
    them on every call, which is quadratic in the run length.  The
    verdict runs after the deployment has stopped, so the maps no
    longer change and one copy per partition serves every question.
    """

    def __init__(self, adapter):
        self._adapter = adapter
        self._resolved: Dict[str, List[Tuple[str, Dict]]] = {}

    def __getattr__(self, name: str):
        return getattr(self._adapter, name)

    def resolved_for_pid(self, pid: str) -> List[Tuple[str, Dict]]:
        if pid not in self._resolved:
            self._resolved[pid] = self._adapter.resolved_for_pid(pid)
        return self._resolved[pid]


def written_keys(results: Sequence[ResultRow]) -> List[str]:
    keys = set()
    for write_keys, _ in results:
        keys.update(write_keys)
    return sorted(keys)


def replica_agreement(adapter, keys: Sequence[str]) -> List[str]:
    """Every replica of every written key holds one (value, version)."""
    violations = []
    for key in keys:
        states = []
        for node_id, store in adapter.stores_for_key(key):
            record = store.read(key)
            states.append((node_id, record.value, record.version))
        if len({(value, version) for _, value, version in states}) > 1:
            where = ", ".join(f"{n}=v{ver}" for n, _, ver in states)
            violations.append(f"[replica-divergence] key {key!r}: {where}")
    return violations


def verdict(adapter, submitted: int,
            results: Sequence[ResultRow]) -> List[str]:
    """Liveness and decision oracles plus replica agreement."""
    adapter = FrozenAdapter(adapter)
    violations = [str(v) for v in check_liveness(adapter, submitted,
                                                 results)]
    violations += [str(v) for v in check_decisions(adapter, results)]
    violations += replica_agreement(adapter, written_keys(results))
    return violations


def plant_divergence(stores: Sequence[Tuple[str, Any]], key: str) -> None:
    """Overwrite ``key`` at the last replica with a value no transaction
    wrote (test plant for the verdict)."""
    _, store = stores[-1]
    record = store.read(key)
    store.write(key, "planted-divergence", record.version + 1)

