"""Serializability invariants under concurrency.

Every transaction here is a read-modify-write increment.  Under
serializability there are no lost updates, so after the dust settles each
key's stored counter must equal the number of *committed* transactions that
incremented it — the strongest end-to-end check this workload admits.
"""

import pytest

from repro.bench.cluster import CarouselCluster, DeploymentSpec, TapirCluster
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.txn import TransactionSpec


def increment(key):
    return TransactionSpec(
        read_keys=(key,), write_keys=(key,),
        compute_writes=lambda r, k=key: {k: (r[k] or 0) + 1},
        txn_type="increment")


def multi_increment(keys):
    return TransactionSpec(
        read_keys=tuple(keys), write_keys=tuple(keys),
        compute_writes=lambda r: {k: (r[k] or 0) + 1 for k in r},
        txn_type="multi_increment")


def run_contended(cluster, keys, rounds, submit_gap_ms=40.0):
    """Fire increments from every datacenter at staggered times; return
    committed counts per key."""
    results = []
    committed_per_key = {k: 0 for k in keys}
    kernel = cluster.kernel
    clients = cluster.clients
    rng = kernel.random
    for i in range(rounds):
        client = clients[i % len(clients)]
        key = keys[i % len(keys)]
        delay = i * submit_gap_ms + rng.uniform(0, 10)
        kernel.schedule(delay, client.submit, increment(key),
                        results.append)
    cluster.run(rounds * submit_gap_ms + 30_000)
    assert len(results) == rounds, "some transactions never completed"
    for result in results:
        if result.committed:
            key = list(result.reads)[0]
            committed_per_key[key] += 1
    return committed_per_key


def final_value(cluster, key):
    pid = cluster.ring.partition_for(key)
    return cluster.store_of(cluster.leader_of(pid), pid).read(key).value


@pytest.mark.parametrize("mode", [BASIC, FAST])
class TestCarouselNoLostUpdates:
    def test_single_hot_key(self, mode):
        cluster = CarouselCluster(
            DeploymentSpec(seed=11, jitter_fraction=0.0),
            CarouselConfig(mode=mode))
        cluster.run(500)
        committed = run_contended(cluster, ["hot"], rounds=40)
        cluster.run(10_000)  # finish writebacks
        assert final_value(cluster, "hot") == committed["hot"]
        assert committed["hot"] > 0  # liveness: something must commit

    def test_several_keys(self, mode):
        cluster = CarouselCluster(
            DeploymentSpec(seed=13, jitter_fraction=0.02),
            CarouselConfig(mode=mode))
        cluster.run(500)
        keys = [f"ctr{i}" for i in range(5)]
        committed = run_contended(cluster, keys, rounds=60)
        cluster.run(10_000)
        for key in keys:
            stored = final_value(cluster, key) or 0
            assert stored == committed[key], key

    def test_multi_key_transactions(self, mode):
        cluster = CarouselCluster(
            DeploymentSpec(seed=17, jitter_fraction=0.0),
            CarouselConfig(mode=mode))
        cluster.run(500)
        results = []
        kernel = cluster.kernel
        pairs = [("a", "b"), ("b", "c"), ("a", "c")]
        for i in range(30):
            client = cluster.clients[i % len(cluster.clients)]
            keys = pairs[i % len(pairs)]
            kernel.schedule(i * 50.0, client.submit,
                            multi_increment(keys), results.append)
        cluster.run(40_000)
        assert len(results) == 30
        expected = {"a": 0, "b": 0, "c": 0}
        for result in results:
            if result.committed:
                for key in result.reads:
                    expected[key] += 1
        cluster.run(10_000)
        for key, count in expected.items():
            stored = final_value(cluster, key) or 0
            assert stored == count, key

    def test_replicas_converge(self, mode):
        cluster = CarouselCluster(
            DeploymentSpec(seed=19, jitter_fraction=0.0),
            CarouselConfig(mode=mode))
        cluster.run(500)
        run_contended(cluster, ["conv"], rounds=20)
        cluster.run(20_000)  # all writebacks + raft heartbeats propagate
        pid = cluster.ring.partition_for("conv")
        values = {server.partitions[pid].store.read("conv").value
                  for server in cluster.replicas_of(pid)}
        assert len(values) == 1, f"replicas diverged: {values}"


class TestTapirNoLostUpdates:
    def test_single_hot_key(self):
        cluster = TapirCluster(DeploymentSpec(seed=23, jitter_fraction=0.0))
        cluster.run(100)
        committed = run_contended(cluster, ["hot"], rounds=40)
        cluster.run(10_000)
        # TAPIR applies at every replica; check one.
        stored = final_value(cluster, "hot") or 0
        assert stored == committed["hot"]
        assert committed["hot"] > 0
