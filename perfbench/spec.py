"""The benchmark's workloads, and its metrics as ``BENCHMARK.json``
defines them."""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from perfbench.common import Workload

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    _MANIFEST = json.load(_fh)

#: Seconds one run measures (``--seconds`` default).
RUN_SECONDS: int = _MANIFEST["run_seconds"]
#: (name, unit): the end-to-end metrics, printed with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in _MANIFEST["end_to_end"])
#: (name, unit): the per-layer metrics, printed with ``--trace 1``.
#: Zero where a workload does not use the layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in _MANIFEST["per_layer"])

WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in (
    Workload(
        name="des-retwis-cpc",
        runtime="des", system="carousel-fast", mix="retwis",
        clients_per_dc=8, load=20_000.0, warmup=1_000.0),
    Workload(
        name="des-ycsbt-tapir",
        runtime="des", system="tapir", mix="ycsbt",
        clients_per_dc=8, load=20_000.0, warmup=1_000.0),
)}

#: Companion runs of ``des-retwis-cpc``'s traced split.  Neither is a
#: workload of its own because an end-to-end metric of each does not
#: repeat within any bound across seeds (see perfbench/README.md).
#:
#: Failover: open-loop Poisson arrivals at 150 tps, p0's leader
#: power-cycled mid-load and restarted from its WAL 1 s later.
FAILOVER = Workload(
    name="des-retwis-cpc-failover",
    runtime="des", system="carousel-fast", mix="retwis",
    clients_per_dc=8, open_rate_tps=150.0, load=20_000.0, warmup=1_000.0,
    crash_at_ms=10_000.0)

#: Asyncio/TCP: the same system and mix with 5 closed-loop clients over
#: loopback sockets, one 3 s sub-run timed and one traced.
ASYNCIO = Workload(
    name="aio-retwis-cpc",
    runtime="aio", system="carousel-fast", mix="retwis",
    clients_per_dc=1, load=3.0, warmup=0.5)

RAFT_TYPES = ("AppendEntries", "AppendEntriesReply", "RequestVote",
              "RequestVoteReply")
#: Message types counted per type, from the per-layer metric names.
MESSAGE_TYPES = tuple(
    name[len("sim.network.msgs_per_commit."):] for name, _ in PER_LAYER
    if name.startswith("sim.network.msgs_per_commit."))

#: Per-layer metrics that ``des-retwis-cpc``'s traced split takes from
#: each companion run.
COMPANIONS: Dict[str, Tuple[Tuple[Workload, Tuple[str, ...]], ...]] = {
    "des-retwis-cpc": (
        (FAILOVER, ("raft.elections_started", "core.recovery.self_us",
                    "wal.restart.self_us", "unavailable_ms")),
        (ASYNCIO, tuple(name for name, _ in PER_LAYER
                        if name.startswith("runtime."))),
    ),
}


def units() -> Dict[str, str]:
    return {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def names(trace: bool) -> List[str]:
    return [row[0] for row in (PER_LAYER if trace else END_TO_END)]
