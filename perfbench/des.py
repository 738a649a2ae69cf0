"""One measured run of a workload on the discrete-event simulator.

The deployment is the paper's EC2 setup (5 partitions x RF 3 over the
Table 1 topology, 2% jitter), built by ``repro.bench.runner``.  After a
500 ms virtual settle (Raft bootstrap) the load starts:

* closed loop: every client submits its first transaction at once and
  its next one on each reply, with no think time, until the load ends;
* open loop: Poisson arrivals from a dedicated ``Random`` stream,
  assigned round-robin to the clients, each submitted when due.

The run then drains until every client is idle, lets Raft heartbeats
carry the last commit indexes to followers, and judges correctness.
Wall time covers first submit to last reply.  Every count and
virtual-time figure is a pure function of the seed.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.bench.cluster import DeploymentSpec
from repro.bench.runner import build_cluster
from repro.chaos.oracles import ResultRow
from repro.chaos.runner import ClusterAdapter
from repro.sim.failure import FailureInjector
from repro.sim.topology import ec2_five_regions

from perfbench.common import (
    RESTART_AFTER_MS,
    RunRecord,
    Workload,
    abort_counts,
    host_counters,
    plant_divergence,
    verdict,
    written_keys,
)

SETTLE_MS = 500.0
#: Virtual ms polled per drain step, and the drain's hard bound.
DRAIN_STEP_MS = 250.0
DRAIN_LIMIT_MS = 60_000.0
#: Virtual ms after the last reply for followers to apply commits.
APPLY_MS = 2_000.0


def run_des(wl: Workload, seed: int, plant: bool = False,
            setup_only: bool = False) -> RunRecord:
    """Build, load, drain and judge one DES deployment (with
    ``setup_only``, stop once it is ready for the first submit)."""
    rec = RunRecord()
    t_setup = time.perf_counter()
    spec = DeploymentSpec(topology=ec2_five_regions(), seed=seed,
                          clients_per_dc=wl.clients_per_dc)
    cluster = build_cluster(wl.system, spec)
    rec.build_s = time.perf_counter() - t_setup
    generator = wl.generator(seed)
    kernel = cluster.kernel
    kernel.run(until=SETTLE_MS)
    rec.setup_s = time.perf_counter() - t_setup
    if setup_only:
        return rec

    clients = cluster.clients
    results: List[ResultRow] = []
    start = kernel.now
    load_end = start + wl.load
    window_start = start + wl.warmup
    rec.window_ms = load_end - window_start
    crash_at = None
    first_p0_commit: List[float] = []
    if wl.crash_at_ms is not None:
        crash_at = start + wl.crash_at_ms
        victim = cluster.directory.lookup("p0").leader
        injector = FailureInjector(kernel, cluster.network)
        injector.crash_at(victim, crash_at)
        injector.restart_at(victim, crash_at + RESTART_AFTER_MS)
    ring = cluster.ring

    def submit(client) -> None:
        txn_spec = generator.next_spec()
        keys = txn_spec.write_keys
        all_keys = txn_spec.all_keys()
        submitted_at = kernel.now
        rec.submitted += 1

        def on_complete(result) -> None:
            now = kernel.now
            results.append((keys, result))
            if result.committed and window_start <= now <= load_end:
                rec.window_commits += 1
                rec.window_latencies.append(result.latency_ms)
            if (crash_at is not None and result.committed
                    and not first_p0_commit and submitted_at >= crash_at
                    and any(ring.partition_for(k) == "p0"
                            for k in all_keys)):
                first_p0_commit.append(now)
            if wl.open_rate_tps is None and kernel.now < load_end:
                submit(client)

        client.submit(txn_spec, on_complete)

    if wl.open_rate_tps is None:
        for client in clients:
            kernel.schedule_at(start, submit, client)
    else:
        arrivals = random.Random(f"arrivals:{seed}")
        rate_per_ms = wl.open_rate_tps / 1000.0
        at = start + arrivals.expovariate(rate_per_ms)
        index = 0
        while at < load_end:
            kernel.schedule_at(at, submit, clients[index % len(clients)])
            index += 1
            at += arrivals.expovariate(rate_per_ms)

    adapter = ClusterAdapter(wl.system, cluster)
    events_before = kernel.events_executed
    t_load = time.perf_counter()
    kernel.run(until=load_end)
    deadline = load_end + DRAIN_LIMIT_MS
    while kernel.now < deadline and not (
            len(results) >= rec.submitted
            and all(adapter.client_quiesced(c) for c in clients)):
        kernel.run(until=kernel.now + DRAIN_STEP_MS)
    t_done = time.perf_counter()
    rec.wall_s = t_done - t_load
    rec.load_span = (t_load, t_done)
    rec.kernel_events = kernel.events_executed - events_before
    kernel.run(until=kernel.now + APPLY_MS)

    rec.committed = sum(1 for _, r in results if r.committed)
    rec.aborted = len(results) - rec.committed
    rec.unanswered = rec.submitted - len(results)
    rec.abort_reasons = abort_counts(results)
    rec.window_latencies.sort()
    if crash_at is not None:
        rec.unavailable_ms = (first_p0_commit or [kernel.now])[0] - crash_at
    if plant:
        key = written_keys(results)[0]
        plant_divergence(adapter.stores_for_key(key), key)
    rec.violations = verdict(adapter, rec.submitted, results)
    rec.counters = des_counters(wl, cluster)
    return rec


def des_counters(wl: Workload, cluster) -> dict:
    """Public counters of the deployment after the run."""
    kernel, network = cluster.kernel, cluster.network
    hosts = (cluster.replicas if wl.system == "tapir" else cluster.servers)
    counters = host_counters(wl.system, list(hosts.values()),
                             cluster.clients)
    counters.update(events_scheduled=kernel.events_scheduled,
                    events_executed=kernel.events_executed,
                    events_cancelled=kernel.events_cancelled,
                    messages_sent=network.messages_sent,
                    messages_delivered=network.messages_delivered)
    return counters
