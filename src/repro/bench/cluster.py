"""Deployment builders reproducing the paper's experimental setups (§6.1).

The EC2 deployment: 5 partitions, replication factor 3, 15 servers spread
over 5 datacenters so that each datacenter holds at most one replica per
partition and exactly one partition leader.  Partition ``p<i>`` places its
replicas in datacenters ``i, i+1, ..., i+rf-1`` (mod the datacenter count),
with the leader in datacenter ``i`` — which yields the paper's "one leader
per datacenter" property when partitions equal datacenters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.client import CarouselClient
from repro.core.config import CarouselConfig
from repro.core.server import CarouselServer
from repro.layered.client import LayeredClient
from repro.layered.server import LayeredServer
from repro.runtime.des import DesRuntime
from repro.sim.topology import Topology, ec2_five_regions
from repro.store.directory import DirectoryService, PartitionInfo
from repro.store.partitioning import ConsistentHashRing
from repro.tapir.client import TapirClient
from repro.tapir.config import TapirConfig
from repro.tapir.replica import TapirReplica


@dataclass
class DeploymentSpec:
    """Shape of a deployment, defaulting to the paper's EC2 setup.

    ``dedicated_coordinator_groups`` adds one data-less consensus group
    per datacenter that exists only to coordinate transactions (§3.3:
    "it is also possible for Carousel to intentionally create consensus
    groups that are not CDSs to serve as coordinators").

    ``consolidate_servers`` hosts all of a datacenter's partition replicas
    on a single server instead of one server per replica (§3.3: "a CDS
    stores and manages one or more partitions").
    """

    topology: Optional[Topology] = None
    n_partitions: int = 5
    replication_factor: int = 3
    seed: int = 0
    jitter_fraction: float = 0.02
    server_service_time_ms: float = 0.0
    clients_per_dc: int = 1
    dedicated_coordinator_groups: bool = False
    consolidate_servers: bool = False

    def __post_init__(self) -> None:
        if self.topology is None:
            self.topology = ec2_five_regions()
        if self.replication_factor % 2 == 0:
            raise ValueError("replication factor must be odd (2f+1)")
        if self.replication_factor > len(self.topology.datacenters):
            raise ValueError("not enough datacenters for one replica per "
                             "datacenter")
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")


class _BaseCluster:
    """Common plumbing for every deployment: runtime, directory, ring,
    clients, and the replica accessors the oracles read.

    ``runtime`` selects the execution backend (:mod:`repro.runtime`).
    ``None`` builds the discrete-event runtime exactly as this module
    always has — same kernel, same network, same RNG stream.  Passing an
    :class:`~repro.runtime.aio.AioRuntime` builds only the nodes this
    process hosts (the transport's ``claim`` decides placement) against
    real sockets; the runtime's topology must match ``spec.topology``.

    Construction order is fixed — servers, then clients, then
    :meth:`_start` — because election-timeout RNG draws follow server
    insertion order.  Subclasses supply ``_build_servers``,
    ``_make_client(client_id, dc, result_hook)`` and the replica
    accessors the oracles read: static ``store_of(host, pid)`` (the
    versioned store) and ``resolved_of(host, pid)`` (``{tid: "commit" |
    "abort"}``).
    """

    def __init__(self, spec: Optional[DeploymentSpec], result_hook,
                 runtime):
        spec = spec or DeploymentSpec()
        self.spec = spec
        if runtime is None:
            runtime = DesRuntime(seed=spec.seed, topology=spec.topology,
                                 jitter_fraction=spec.jitter_fraction)
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.network = runtime.network
        self.topology = self.network.topology
        self.directory = DirectoryService()
        self.partition_ids = [f"p{i}" for i in range(spec.n_partitions)]
        self.ring = ConsistentHashRing(self.partition_ids)
        #: Every server (TAPIR: replica) this process hosts, by node id.
        self.servers: Dict[str, Any] = {}
        self.clients: List[Any] = []
        self._clients_by_dc: Dict[str, List[Any]] = {}
        self._build_servers()
        self._build_clients(result_hook)
        self._start()

    def placement(self, partition_index: int) -> List[str]:
        """Datacenters hosting ``p<partition_index>``; the first is the
        leader's."""
        dcs = self.topology.datacenters
        return [dcs[(partition_index + j) % len(dcs)]
                for j in range(self.spec.replication_factor)]

    def _build_clients(self, result_hook) -> None:
        for dc in self.topology.datacenters:
            per_dc = []
            for i in range(self.spec.clients_per_dc):
                client_id = f"client-{dc}-{i}"
                if self.network.claim(client_id, "client", dc):
                    per_dc.append(
                        self._make_client(client_id, dc, result_hook))
            self.clients.extend(per_dc)
            self._clients_by_dc[dc] = per_dc

    def _start(self) -> None:
        """Start background protocol machinery (none by default)."""

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def run(self, ms: float) -> None:
        """Advance the simulation by ``ms`` virtual milliseconds."""
        self.kernel.run(until=self.kernel.now + ms)

    def client(self, dc: str, index: int = 0):
        return self._clients_by_dc[dc][index]

    def leader_of(self, pid: str) -> Any:
        """The server currently leading partition ``pid``."""
        return self.servers[self.directory.lookup(pid).leader]

    def replicas_of(self, pid: str) -> List[Any]:
        """Servers hosting replicas of partition ``pid``, group order."""
        return [self.servers[r]
                for r in self.directory.lookup(pid).replicas]

    def stores_of(self, pid: str) -> List[Any]:
        """The versioned stores of every replica of ``pid``."""
        return [self.store_of(host, pid) for host in self.replicas_of(pid)]

    def populate(self, items: Dict[str, Any]) -> None:
        """Load initial data directly into every replica (version 1),
        bypassing the protocol — the standard benchmark loading shortcut."""
        for key, value in items.items():
            pid = self.ring.partition_for(key)
            for store in self.stores_of(pid):
                store.write(key, value, 1)


class _RaftCluster(_BaseCluster):
    """Carousel and the layered baseline: one Raft group per partition
    over the shared placement, servers named ``<prefix>-<dc>-<slot>``
    and made by ``_make_server(server_id, dc)``."""

    _SERVER_PREFIX = ""

    def _build_servers(self) -> None:
        # One server per partition replica, as in the paper's deployment —
        # or one server per datacenter with ``consolidate_servers``.
        slots: Dict[str, int] = {dc: 0 for dc in self.topology.datacenters}
        replica_ids: Dict[str, List[str]] = {}
        groups = [(pid, self.placement(i))
                  for i, pid in enumerate(self.partition_ids)]
        if self.spec.dedicated_coordinator_groups:
            # One data-less coordinating group led from each datacenter.
            groups += [(f"coord-{dc}", self.placement(i))
                       for i, dc in enumerate(self.topology.datacenters)]
        for pid, placement in groups:
            ids = []
            for dc in placement:
                if self.spec.consolidate_servers:
                    server_id = f"{self._SERVER_PREFIX}-{dc}-0"
                else:
                    server_id = f"{self._SERVER_PREFIX}-{dc}-{slots[dc]}"
                    slots[dc] += 1
                if server_id not in self.servers and \
                        self.network.claim(server_id, "server", dc):
                    self.servers[server_id] = self._make_server(server_id,
                                                                dc)
                ids.append(server_id)
            replica_ids[pid] = ids
            self.directory.register(PartitionInfo(
                partition_id=pid, replicas=ids,
                datacenters=list(placement), leader=ids[0]))
        for pid, __ in groups:
            for server_id in replica_ids[pid]:
                if server_id in self.servers:
                    self.servers[server_id].add_partition(
                        pid, replica_ids[pid],
                        bootstrap_leader=replica_ids[pid][0])

    def _start(self) -> None:
        # Ordered: servers insertion order is construction order (per-dc,
        # per-index), so the election-timeout RNG draws are deterministic.
        for server in self.servers.values():
            server.start_raft()

    @staticmethod
    def store_of(host: Any, pid: str) -> Any:
        return host.partitions[pid].store

    @staticmethod
    def resolved_of(host: Any, pid: str) -> Dict[Any, str]:
        return dict(host.partitions[pid].resolved)


class CarouselCluster(_RaftCluster):
    """A ready-to-run Carousel deployment (servers + clients + directory)."""

    _SERVER_PREFIX = "cds"

    def __init__(self, spec: Optional[DeploymentSpec] = None,
                 config: Optional[CarouselConfig] = None,
                 result_hook=None, runtime=None):
        self.config = config or CarouselConfig()
        super().__init__(spec, result_hook, runtime)

    def _make_server(self, server_id: str, dc: str) -> CarouselServer:
        return CarouselServer(
            server_id, dc, self.kernel, self.network, self.directory,
            self.config, service_time_ms=self.spec.server_service_time_ms)

    def _make_client(self, client_id: str, dc: str,
                     result_hook) -> CarouselClient:
        return CarouselClient(
            client_id, dc, self.kernel, self.network, self.directory,
            self.ring, self.config, result_hook=result_hook)


class LayeredCluster(_RaftCluster):
    """A deployment of the layered (sequential 2PC over consensus)
    baseline over the same placement as Carousel (see
    :mod:`repro.layered`)."""

    _SERVER_PREFIX = "lds"

    def __init__(self, spec: Optional[DeploymentSpec] = None,
                 raft_config=None, retry_policy=None, result_hook=None,
                 runtime=None):
        self.raft_config = raft_config
        self.retry_policy = retry_policy
        super().__init__(spec, result_hook, runtime)

    def _make_server(self, server_id: str, dc: str) -> LayeredServer:
        return LayeredServer(
            server_id, dc, self.kernel, self.network, self.directory,
            raft_config=self.raft_config, retry_policy=self.retry_policy,
            service_time_ms=self.spec.server_service_time_ms)

    def _make_client(self, client_id: str, dc: str,
                     result_hook) -> LayeredClient:
        return LayeredClient(
            client_id, dc, self.kernel, self.network, self.directory,
            self.ring, retry_policy=self.retry_policy,
            result_hook=result_hook)


class TapirCluster(_BaseCluster):
    """A TAPIR deployment over the same placement: replicas named
    ``tapir-<pid>-<j>``, one partition each, no consensus groups."""

    def __init__(self, spec: Optional[DeploymentSpec] = None,
                 config: Optional[TapirConfig] = None, result_hook=None,
                 runtime=None):
        self.config = config or TapirConfig()
        super().__init__(spec, result_hook, runtime)

    @property
    def replicas(self) -> Dict[str, TapirReplica]:
        """The hosted replicas by node id (the same dict as ``servers``)."""
        return self.servers

    def _build_servers(self) -> None:
        for i, pid in enumerate(self.partition_ids):
            dcs = self.placement(i)
            ids = [f"tapir-{pid}-{j}" for j in range(len(dcs))]
            self.directory.register(PartitionInfo(
                partition_id=pid, replicas=ids, datacenters=dcs,
                leader=ids[0]))
            for replica_id, dc in zip(ids, dcs):
                if not self.network.claim(replica_id, "server", dc):
                    continue
                self.servers[replica_id] = TapirReplica(
                    replica_id, dc, self.kernel, self.network,
                    pid, ids, self.config,
                    service_time_ms=self.spec.server_service_time_ms)

    def _make_client(self, client_id: str, dc: str,
                     result_hook) -> TapirClient:
        return TapirClient(
            client_id, dc, self.kernel, self.network, self.directory,
            self.ring, self.config, result_hook=result_hook)

    @staticmethod
    def store_of(host: Any, pid: str) -> Any:
        return host.store

    @staticmethod
    def resolved_of(host: Any, pid: str) -> Dict[Any, str]:
        return {tid: ("commit" if ok else "abort")
                for tid, ok in host.resolved.items()}
