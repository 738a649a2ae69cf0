"""The system registry: rows, timing profiles, CLI name resolution, and
the client-side ``pending()``/``quiesced()`` the oracles read."""

import argparse

import pytest

from repro.analysis.cli import _build_divergence_parser
from repro.bench.cluster import DeploymentSpec
from repro.chaos.cli import build_parser as chaos_parser
from repro.chaos.oracles import increment_spec
from repro.cli import build_parser as figures_parser
from repro.core.backoff import RetryPolicy
from repro.core.config import CarouselConfig
from repro.raft.node import RaftConfig
from repro.runtime.cli import build_parser as runtime_parser
from repro.sim.topology import uniform_topology
from repro.systems import (
    FIGURE_SYSTEMS,
    NAMES,
    PROFILES,
    REGISTRY,
    SYSTEMS,
    build,
    canonical,
)
from repro.tapir.config import TapirConfig


def _spec():
    return DeploymentSpec(topology=uniform_topology(3, 2.0),
                          n_partitions=3, seed=1, clients_per_dc=2)


#: The timing constants each profile must reproduce, as
#: (election min, max, Raft heartbeat, retry base, cap, TAPIR fast path).
EXPECTED = {
    "chaos": (400.0, 800.0, 100.0, 800.0, 6400.0, 250.0),
    "conform": (1500.0, 3000.0, 100.0, 3000.0, 12_000.0, 2000.0),
}


def _raft_timing(config: RaftConfig):
    return (config.election_timeout_min_ms, config.election_timeout_max_ms,
            config.heartbeat_interval_ms)


def _backoff(policy: RetryPolicy):
    return (policy.base_ms, policy.multiplier, policy.max_ms,
            policy.jitter_fraction)


class TestRegistry:
    def test_rows_and_names(self):
        assert SYSTEMS == ("carousel-basic", "carousel-fast", "layered",
                           "tapir")
        assert set(FIGURE_SYSTEMS) <= set(SYSTEMS)
        assert canonical("basic") == "carousel-basic"
        assert canonical("fast") == canonical("carousel") == "carousel-fast"
        assert set(NAMES) == set(SYSTEMS) | {"basic", "fast", "carousel"}
        with pytest.raises(ValueError, match="unknown system 'spanner'"):
            canonical("spanner")
        with pytest.raises(ValueError, match="unknown profile"):
            build("tapir", _spec(), profile="fastest")

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_row_builds_under_every_profile(self, system, profile):
        cluster = build(system, _spec(), profile=profile)
        row = REGISTRY[system]
        assert isinstance(cluster, row.cluster)
        assert cluster.clients and cluster.servers
        for pid in cluster.partition_ids:
            for host in cluster.replicas_of(pid):
                assert row.store(host, pid).read("absent").version == 0
                assert row.resolved(host, pid) == {}
        cluster.run(300.0)

    @pytest.mark.parametrize("system", ["carousel-basic", "carousel-fast"])
    def test_carousel_profiles(self, system):
        paper = build(system, _spec())
        mode = REGISTRY[system].aliases[0]
        assert paper.config == CarouselConfig(mode=mode)
        for profile, (lo, hi, beat, base, cap, _) in EXPECTED.items():
            cluster = build(system, _spec(), profile=profile)
            config = cluster.config
            assert config.mode == mode
            assert (config.heartbeat_interval_ms,
                    config.heartbeat_misses) == (500.0, 3)
            assert _backoff(config.retry_policy) == (base, 2.0, cap, 0.1)
            members = [m for s in cluster.servers.values()
                       for m in s.members.values()]
            assert members
            assert {_raft_timing(m.config) for m in members} == \
                {(lo, hi, beat)}
            assert all(c.config is config for c in cluster.clients)

    def test_layered_profiles(self):
        paper = build("layered", _spec())
        assert paper.raft_config is None and paper.retry_policy is None
        for profile, (lo, hi, beat, base, cap, _) in EXPECTED.items():
            cluster = build("layered", _spec(), profile=profile)
            members = [m for s in cluster.servers.values()
                       for m in s.members.values()]
            assert {_raft_timing(m.config) for m in members} == \
                {(lo, hi, beat)}
            policies = [s.retry_policy for s in cluster.servers.values()]
            policies += [c.retry_policy for c in cluster.clients]
            assert {_backoff(p) for p in policies} == \
                {(base, 2.0, cap, 0.1)}

    def test_tapir_profiles(self):
        assert build("tapir", _spec()).config == TapirConfig()
        for profile, (*_, base, cap, fast_path) in EXPECTED.items():
            cluster = build("tapir", _spec(), profile=profile)
            config = cluster.config
            assert config.fast_path_timeout_ms == fast_path
            assert _backoff(config.retry_policy) == (base, 2.0, cap, 0.1)
            assert cluster.replicas is cluster.servers
            assert all(r.config is config
                       for r in cluster.servers.values())
        override = build("tapir", _spec(), tapir_fast_path_ms=77.0)
        assert override.config == TapirConfig(fast_path_timeout_ms=77.0)
        # Systems without a fast-path wait ignore the override.
        fast = build("fast", _spec(), tapir_fast_path_ms=77.0)
        assert fast.config == CarouselConfig(mode="fast")


def _verbs():
    """``(label, parser, argv prefix, flag)`` for every verb that takes a
    system name."""
    runtime = runtime_parser()
    return [
        ("trace", figures_parser(), ["trace"], "--system"),
        ("divergence", _build_divergence_parser(), [], "--system"),
        ("chaos", chaos_parser(), [], "--system"),
        ("conform", runtime, ["conform"], "--systems"),
        ("cluster", runtime, ["cluster"], "--system"),
        ("serve", runtime, ["serve", "--seed", "0", "--proc", "dc-x"],
         "--system"),
    ]


@pytest.mark.parametrize("label,parser,prefix,flag", _verbs(),
                         ids=[f"verb-{v[0]}" for v in _verbs()])
def test_cli_verbs_resolve_names_from_the_registry(label, parser, prefix,
                                                   flag, capsys):
    dest = flag.lstrip("-")
    for name in NAMES:
        value = getattr(parser.parse_args(prefix + [flag, name]), dest)
        if isinstance(value, tuple):
            value = value[0]
        assert value == canonical(name), (label, name)
    with pytest.raises(SystemExit):
        parser.parse_args(prefix + [flag, "spanner"])
    err = capsys.readouterr().err
    assert "unknown system 'spanner'" in err
    assert ", ".join(NAMES) in err


def test_argparse_type_errors_are_argparse_errors():
    from repro.systems import cli_system, cli_systems

    assert cli_systems("all") == SYSTEMS
    assert cli_systems("basic,tapir") == ("carousel-basic", "tapir")
    with pytest.raises(argparse.ArgumentTypeError):
        cli_system("spanner")


@pytest.mark.parametrize("system", SYSTEMS)
def test_client_pending_and_quiesced(system):
    """Nonzero/False while a transaction (or TAPIR's asynchronous
    commit-ack round) is outstanding, 0/True once everything settled."""
    cluster = build(system, _spec())
    cluster.run(500.0)
    client = cluster.clients[0]
    assert (client.pending(), client.quiesced()) == (0, True)
    at_reply = []

    def on_complete(result):
        at_reply.append((result.committed, client.pending(),
                         client.quiesced()))

    client.submit(increment_spec(("k0", "k1")), on_complete)
    assert (client.pending(), client.quiesced()) == (1, False)
    while not at_reply:
        cluster.run(50.0)
    committed, pending, quiesced = at_reply[0]
    assert committed and pending == 0
    # TAPIR replies before its commit round is acknowledged; the other
    # systems have nothing left once the reply is out.
    assert quiesced is (system != "tapir")
    cluster.run(5_000.0)
    assert (client.pending(), client.quiesced()) == (0, True)


def test_tapir_pending_counts_queued_transactions():
    cluster = build("tapir", _spec())
    cluster.run(500.0)
    client = cluster.clients[0]
    done = []
    client.submit(increment_spec(("k0",)), done.append)
    # A conflicting transaction of the same client waits in its queue.
    assert client.submit(increment_spec(("k0",)), done.append) is None
    assert client.pending() == 2
    while len(done) < 2:
        cluster.run(50.0)
    cluster.run(5_000.0)
    assert (client.pending(), client.quiesced()) == (0, True)
