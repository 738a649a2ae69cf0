"""Runs one workload for one seed and turns the runs into metrics.

``--trace 0`` runs the workload on :data:`SUBRUNS` sub-seeds derived from
the seed, then repeats them in turn until ``--seconds`` of wall time have
passed (at least one repeat).  It reports end-to-end metrics: medians
over every run for wall-clock figures, and virtual-time figures pooled
over the sub-seeds, which every repeat must reproduce exactly.

``--trace 1`` makes one timed run and one traced run of the same seed
and reports the per-layer split: counts from the timed run, self times
from the traced run's spans.  On the DES both runs must agree on every
count, which shows the wrappers do not perturb the simulation.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Tuple

from repro.sim.stats import percentile

from perfbench.aio import run_aio
from perfbench.common import BenchmarkError, RunRecord, Workload
from perfbench.des import run_des
from perfbench.probes import SpanRecorder
from perfbench.spec import COMPANIONS, MESSAGE_TYPES, RAFT_TYPES, units
from perfbench.spec import names as metric_names

#: Independent sub-runs pooled into one end-to-end result.  One sub-run
#: sees a few hundred failed transactions, too few for a failed fraction
#: that repeats across seeds; four halve its spread.
SUBRUNS = 4
#: Setup-only measurements after each run.  A DES setup takes a few
#: milliseconds and its speed follows the host from second to second,
#: so samples spread over the whole run steady the median.
SETUPS_PER_RUN = 5


class Outcome:
    """What one benchmark invocation reports."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.violations: List[str] = []

    def absorb(self, rec: RunRecord, count: bool = True) -> None:
        """Take one run's verdict and, with ``count``, its transaction
        counts (repeats of a DES seed are not counted again, so the
        counts do not grow with host speed)."""
        if count:
            self.attempted += rec.submitted
            self.failed += rec.failed
        if rec.violations:
            self.correct = False
            self.violations.extend(rec.violations)

    def to_json(self) -> dict:
        unit_of = units()
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit_of[name]}
                        for name, value in self.metrics.items()},
        }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _once(wl: Workload, seed: int, plant: bool = False,
          lag_probe: bool = False) -> Tuple[RunRecord, List[float]]:
    """One run on a freshly collected heap; returns the record and the
    asyncio loop-lag samples (empty on the DES)."""
    gc.collect()
    if wl.runtime == "des":
        return run_des(wl, seed, plant=plant), []
    return run_aio(wl, seed, plant=plant, lag_probe=lag_probe)


def _check_same(wl: Workload, a: RunRecord, b: RunRecord,
                what: str) -> None:
    if a.fingerprint() != b.fingerprint():
        raise BenchmarkError(
            f"{wl.name}: {what} differ on counts or virtual times; "
            "the DES run is not a pure function of its seed")


# ----------------------------------------------------------------------
# end-to-end


def run_end_to_end(wl: Workload, seed: int, seconds: float,
                   plant: bool = False) -> Outcome:
    """Run and repeat a DES workload's sub-seeds; see the module doc."""
    out = Outcome()
    subseeds = [seed * SUBRUNS + i for i in range(SUBRUNS)]
    firsts: List[RunRecord] = []
    runs: List[RunRecord] = []
    setups: List[float] = []
    began = time.perf_counter()
    while len(runs) <= SUBRUNS or time.perf_counter() - began < seconds:
        index = len(runs) % SUBRUNS
        rec, _ = _once(wl, subseeds[index], plant=plant)
        if len(firsts) < SUBRUNS:
            firsts.append(rec)
        else:
            _check_same(wl, firsts[index], rec, "repeats of one seed")
        out.absorb(rec, count=rec is firsts[index])
        runs.append(rec)
        setups.append(rec.setup_s)
        for _ in range(SETUPS_PER_RUN):
            gc.collect()
            setups.append(run_des(wl, subseeds[index],
                                  setup_only=True).setup_s)
    latencies = [ms for rec in firsts for ms in rec.window_latencies]
    window_commits = sum(rec.window_commits for rec in firsts)
    window_s = sum(rec.window_ms for rec in firsts) / 1000.0
    out.metrics = {
        "commits_per_wall_s": statistics.median(
            rec.committed / rec.wall_s for rec in runs),
        "events_per_wall_s": statistics.median(
            rec.kernel_events / rec.wall_s for rec in runs),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "sim_committed_tps": window_commits / window_s,
        "failed_frac": out.failed / out.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    out.samples = {"commits_per_wall_s": len(runs),
                   "events_per_wall_s": len(runs),
                   "latency_p50_ms": len(latencies),
                   "latency_p99_ms": len(latencies),
                   "sim_committed_tps": window_commits,
                   "failed_frac": out.attempted,
                   "setup_s": len(setups)}
    return out


# ----------------------------------------------------------------------
# per-layer


def _traced(wl: Workload, seed: int, spans_dir: str
            ) -> Tuple[RunRecord, SpanRecorder]:
    recorder = SpanRecorder()
    with recorder:
        rec, _ = _once(wl, seed)
    recorder.write(spans_dir, f"spans-{wl.name}")
    return rec, recorder


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _unattributed(rec: RunRecord, spans: SpanRecorder) -> float:
    """Share of the traced run's load phase no root span covers."""
    lo, hi = rec.load_span
    covered = 0.0
    for start, end, parent in zip(spans.start, spans.end, spans.parent):
        if parent == -1 and end > lo and start < hi:
            covered += min(end, hi) - max(start, lo)
    return max(0.0, 1.0 - covered / (hi - lo))


def _split(wl: Workload, seed: int, spans_dir: str,
           out: Outcome) -> Dict[str, float]:
    """Timed plus traced run of ``wl``; every per-layer metric."""
    timed, lags = _once(wl, seed, lag_probe=True)
    traced, spans = _traced(wl, seed, spans_dir)
    out.absorb(timed)
    out.absorb(traced, count=False)
    if wl.runtime == "des":
        _check_same(wl, timed, traced, "timed and traced runs")
    return _layer_metrics(wl, timed, traced, spans, lags)


def run_per_layer(wl: Workload, seed: int, spans_dir: str) -> Outcome:
    out = Outcome()
    metrics = _split(wl, seed, spans_dir, out)
    for companion, names in COMPANIONS.get(wl.name, ()):
        companion_metrics = _split(companion, seed, spans_dir, out)
        metrics.update((name, companion_metrics[name]) for name in names)
    out.metrics = {name: metrics[name] for name in metric_names(True)}
    return out


def _layer_metrics(wl: Workload, timed: RunRecord, traced: RunRecord,
                   spans: SpanRecorder, lags: List[float]
                   ) -> Dict[str, float]:
    c = timed.counters
    commits = timed.committed
    traced_commits = traced.committed
    self_s = spans.layer_self_s()
    calls = spans.layer_calls()

    def us_per_commit(layer: str) -> float:
        return _per(self_s[layer] * 1e6, traced_commits)

    is_aio = wl.runtime == "aio"
    by_type = timed.sent_by_type if is_aio else spans.sent_by_type
    m: Dict[str, float] = {
        "sim.kernel.events_per_commit": _per(c["events_executed"], commits),
        "sim.kernel.cancelled_frac": _per(c["events_cancelled"],
                                          c["events_scheduled"]),
        "sim.kernel.self_us_per_commit": us_per_commit("sim.kernel"),
        "sim.network.msgs_per_commit": (
            0.0 if is_aio else _per(c["messages_sent"], commits)),
        "sim.network.send.self_us_per_commit":
            us_per_commit("sim.network.send"),
    }
    for name in MESSAGE_TYPES:
        m[f"sim.network.msgs_per_commit.{name}"] = (
            _per(spans.sent_by_type.get(name, 0), traced_commits))
    m.update({
        "sim.node.enqueue.self_us_per_commit":
            us_per_commit("sim.node.enqueue"),
        "raft.msgs_per_commit": _per(
            sum(by_type.get(t, 0) for t in RAFT_TYPES), commits),
        "raft.entries_per_append": _per(spans.append_entries,
                                        spans.append_messages),
        "raft.proposals_per_commit": _per(spans.calls["RaftMember.propose"],
                                          traced_commits),
        "raft.handle.self_us_per_commit": us_per_commit("raft.handle"),
        "raft.propose.self_us_per_commit": us_per_commit("raft.propose"),
        "raft.elections_started": c.get("elections_started", 0),
        "raft.log_entries_retained": c.get("raft_log_entries", 0),
        "core.client.self_us_per_commit": us_per_commit("core.client"),
        "core.coordinator.self_us_per_commit":
            us_per_commit("core.coordinator"),
        "core.participant.self_us_per_commit":
            us_per_commit("core.participant"),
        "core.recovery.self_us": self_s["core.recovery"] * 1e6,
        "core.fast_path_frac": _per(
            c.get("fast_path_decisions", 0),
            c.get("fast_path_decisions", 0)
            + c.get("slow_path_decisions", 0)),
        "core.abort_frac.conflict": _per(
            timed.abort_reasons.get("conflict", 0), timed.submitted),
        "core.abort_frac.stale_read": _per(
            timed.abort_reasons.get("stale_read", 0), timed.submitted),
        "tapir.client.self_us_per_commit": us_per_commit("tapir.client"),
        "tapir.replica.self_us_per_commit": us_per_commit("tapir.replica"),
        "tapir.slow_paths_per_commit": _per(c.get("slow_paths", 0),
                                            commits),
        "wal.appends_per_commit": _per(c.get("wal_appends", 0), commits),
        "wal.fsyncs_per_commit": _per(c.get("wal_syncs", 0), commits),
        "wal.self_us_per_commit": us_per_commit("wal"),
        "wal.records_retained": c.get("wal_records", 0),
        "wal.restart.self_us": self_s["wal.restart"] * 1e6,
        "unavailable_ms": timed.unavailable_ms,
        "workloads.gen.self_us_per_txn": _per(
            self_s["workloads.gen"] * 1e6, calls["workloads.gen"]),
        "runtime.wire.encode.self_us_per_msg": _per(
            self_s["runtime.wire.encode"] * 1e6,
            calls["runtime.wire.encode"]),
        "runtime.wire.decode.self_us_per_msg": _per(
            self_s["runtime.wire.decode"] * 1e6,
            calls["runtime.wire.decode"]),
        "runtime.wire.bytes_per_msg": _per(spans.encoded_bytes,
                                           calls["runtime.wire.encode"]),
        "runtime.wire.share_of_wall": _per(
            self_s["runtime.wire.encode"] + self_s["runtime.wire.decode"],
            traced.wall_s),
        "runtime.aio.msgs_per_commit": (
            _per(c["messages_sent"], commits) if is_aio else 0.0),
        "runtime.aio.commits_per_wall_s": (
            _per(timed.window_commits, timed.window_ms / 1000.0)
            if is_aio else 0.0),
        "bench.build.self_s": timed.build_s,
        "trace.overhead_frac": (
            _per(traced.wall_s, traced_commits)
            / _per(timed.wall_s, commits) - 1.0),
        "trace.unattributed_frac": _unattributed(traced, spans),
    })
    # The asyncio-only distributions are empty on the DES.
    for prefix, values in (("runtime.aio.loop_lag", lags),
                           ("runtime.aio.latency", timed.window_latencies
                            if is_aio else [])):
        for q in (50, 99):
            m[f"{prefix}_p{q}_ms"] = percentile(values, q) if values else 0.0
    return m
