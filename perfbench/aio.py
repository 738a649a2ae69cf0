"""One measured sub-run of a workload on the asyncio/TCP runtime.

The deployment is the conformance profile of
``repro.runtime.conformance.build_system`` (Raft timers far above
localhost round trips, so none fire under CPU load): one ``AioRuntime``
per logical process -- the driver plus one per datacenter -- on one
thread and one event loop, every inter-process message crossing a
loopback TCP socket through the wire codec.  No delay is injected, so
latency is processor plus socket time.

Clients run a closed loop with no think time for ``Workload.load`` wall
seconds; the run then waits for every reply, gives follower replicas a
few Raft heartbeats to apply the last commits, snapshots every process
and judges the merged snapshot with the chaos oracles.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.chaos.oracles import ResultRow
from repro.runtime.aio import AioRuntime
from repro.runtime.conformance import build_system
from repro.runtime.harness import (
    SnapshotAdapter,
    merge_snapshots,
    snapshot_cluster,
)
from repro.sim.topology import ec2_five_regions

from perfbench.common import (
    RunRecord,
    Workload,
    abort_counts,
    host_counters,
    plant_divergence,
    verdict,
    written_keys,
)

#: Wall seconds allowed for the last replies after the load ends.
DRAIN_LIMIT_S = 20.0
#: Wall seconds for followers to apply the last commits (the
#: conformance profile heartbeats every 100 ms).
APPLY_S = 0.6
#: Loop-lag probe period, seconds.
LAG_PERIOD_S = 0.005


class LagProbe:
    """Periodic callback whose lateness is the time work waits for the
    event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self.lags_ms: List[float] = []
        self._due = 0.0
        self._handle: Optional[asyncio.TimerHandle] = None

    def start(self) -> None:
        self._due = self._loop.time() + LAG_PERIOD_S
        self._handle = self._loop.call_at(self._due, self._tick)

    def _tick(self) -> None:
        now = self._loop.time()
        self.lags_ms.append((now - self._due) * 1000.0)
        self._due = now + LAG_PERIOD_S
        self._handle = self._loop.call_at(self._due, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


def run_aio(wl: Workload, seed: int, plant: bool = False,
            lag_probe: bool = False) -> Tuple[RunRecord, List[float]]:
    """One sub-run on a fresh event loop; returns the record and the
    loop-lag samples (empty unless ``lag_probe``)."""
    return asyncio.run(_run(wl, seed, plant, lag_probe))


async def _run(wl: Workload, seed: int, plant: bool,
               lag_probe: bool) -> Tuple[RunRecord, List[float]]:
    loop = asyncio.get_running_loop()
    rec = RunRecord()
    t_setup = time.perf_counter()
    topology = ec2_five_regions()
    procs = ["driver"] + [f"dc-{dc}" for dc in topology.datacenters]
    runtimes = {proc: AioRuntime(proc, seed, topology, loop)
                for proc in procs}
    probe = LagProbe(loop) if lag_probe else None
    try:
        table: Dict[str, Tuple[str, int]] = {}
        for proc, runtime in runtimes.items():
            table[proc] = ("127.0.0.1", await runtime.start())
        for runtime in runtimes.values():
            runtime.network.set_addresses(table)
        clusters = {proc: build_system(wl.system, seed, runtime=runtime,
                                       topology=topology)
                    for proc, runtime in runtimes.items()}
        driver = clusters["driver"]
        rec.build_s = time.perf_counter() - t_setup
        generator = wl.generator(seed)
        rec.setup_s = time.perf_counter() - t_setup

        results: List[ResultRow] = []
        all_replied = asyncio.Event()
        start = time.perf_counter()
        window_start = start + wl.warmup
        load_end = start + wl.load
        rec.window_ms = (load_end - window_start) * 1000.0

        def submit(client) -> None:
            spec = generator.next_spec()
            keys = spec.write_keys
            rec.submitted += 1

            def on_complete(result) -> None:
                now = time.perf_counter()
                results.append((keys, result))
                if result.committed and window_start <= now <= load_end:
                    rec.window_commits += 1
                    rec.window_latencies.append(result.latency_ms)
                if now < load_end:
                    submit(client)
                elif len(results) >= rec.submitted:
                    all_replied.set()

            client.submit(spec, on_complete)

        if probe is not None:
            probe.start()
        for client in driver.clients:
            submit(client)
        await asyncio.sleep(max(0.0, load_end - time.perf_counter()))
        if len(results) < rec.submitted:
            try:
                await asyncio.wait_for(all_replied.wait(), DRAIN_LIMIT_S)
            except asyncio.TimeoutError:
                pass
        done = time.perf_counter()
        rec.wall_s = done - start
        rec.load_span = (start, done)
        if probe is not None:
            probe.stop()
        await asyncio.sleep(APPLY_S)

        rec.committed = sum(1 for _, r in results if r.committed)
        rec.aborted = len(results) - rec.committed
        rec.unanswered = rec.submitted - len(results)
        rec.abort_reasons = abort_counts(results)
        rec.window_latencies.sort()
        servers = [server for cluster in clusters.values()
                   for server in cluster.servers.values()]
        rec.counters.update(host_counters(wl.system, servers,
                                          driver.clients))
        sent_by_type: Dict[str, int] = {}
        for runtime in runtimes.values():
            kernel, network = runtime.kernel, runtime.network
            for key, value in (
                    ("events_scheduled", kernel.events_scheduled),
                    ("events_executed", kernel.events_executed),
                    ("events_cancelled", kernel.events_cancelled),
                    ("messages_sent", network.messages_sent)):
                rec.counters[key] = rec.counters.get(key, 0) + value
            for name, count in network.sent_by_type.items():
                sent_by_type[name] = sent_by_type.get(name, 0) + count
        rec.sent_by_type = sent_by_type
        if plant:
            key = written_keys(results)[0]
            pid = driver.ring.partition_for(key)
            stores = [(node_id, cluster.servers[node_id].partitions[pid]
                       .store)
                      for node_id in driver.directory.lookup(pid).replicas
                      for cluster in clusters.values()
                      if node_id in cluster.servers]
            plant_divergence(stores, key)
        merged = merge_snapshots([snapshot_cluster(wl.system, cluster)
                                  for cluster in clusters.values()])
        adapter = SnapshotAdapter(merged, driver.ring, driver.directory,
                                  driver.partition_ids,
                                  clients=driver.clients)
        rec.violations = verdict(adapter, rec.submitted, results)
    finally:
        if probe is not None:
            probe.stop()
        for runtime in runtimes.values():
            await runtime.close()
    return rec, (probe.lags_ms if probe is not None else [])
