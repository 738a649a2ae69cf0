"""Raft under reordering: delay spikes and duplicates on every link.

Pipelined appends overtake each other, arrive twice, and land in a
follower's reorder hold; leader crashes force term changes while appends
are held, and a follower that missed entries must back off under a new
leader.  Whatever the interleaving, every member ends with the same
committed log, and no index ever commits two different entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import LinkFaults
from tests.support import RaftCluster


def _run_reordered_group(n, seed, delay_prob, dup_prob, crashes):
    cluster = RaftCluster(n=n, seed=seed)
    committed = {}  # index -> (term, command), from every member's applies

    def recorder(entry):
        seen = committed.setdefault(entry.index, (entry.term, entry.command))
        assert seen == (entry.term, entry.command), \
            f"index {entry.index} committed twice differently"

    for member in cluster.members.values():
        member.apply_fn = recorder
    faults = LinkFaults(delay_prob=delay_prob, delay_ms=30.0,
                        dup_prob=dup_prob, dup_lag_ms=20.0)
    ids = sorted(cluster.members)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            cluster.network.set_link_faults(a, b, faults)
    cluster.start()
    cluster.run(50)

    proposed = iter(range(60))

    def propose_next():
        value = next(proposed, None)
        if value is None:
            return
        leader = cluster.leader()
        if leader is not None:
            leader.propose(f"cmd{value}")
        cluster.kernel.schedule(
            cluster.kernel.random.uniform(0.5, 3.0), propose_next)

    propose_next()
    hosts = cluster.hosts
    if crashes == "leader":
        cluster.run(60)
        hosts["n0"].crash()
        cluster.run(400)
        hosts["n0"].recover()
    elif crashes == "follower-then-leader":
        # n1 misses entries, then comes back under a new leader whose
        # optimistic next_index for it is past its tail: it must back off.
        cluster.run(30)
        hosts["n1"].crash()
        cluster.run(60)
        hosts["n0"].crash()
        hosts["n1"].recover()
        cluster.run(400)
        hosts["n0"].recover()
    cluster.run(400)
    cluster.network.clear_all_link_faults()
    # Let elections settle first: an entry proposed to a leader that is
    # deposed before replicating it may legitimately never commit.
    cluster.run(1500)
    leader = cluster.leader()
    if leader is not None:
        leader.propose("final")
    cluster.run(1000)
    return cluster, committed


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([3, 5]),
       seed=st.integers(min_value=0, max_value=10_000),
       delay_prob=st.floats(min_value=0.1, max_value=0.6),
       dup_prob=st.floats(min_value=0.0, max_value=0.4),
       crashes=st.sampled_from(["none", "leader", "follower-then-leader"]))
def test_reordered_group_agrees_on_committed_prefix(
        n, seed, delay_prob, dup_prob, crashes):
    cluster, committed = _run_reordered_group(
        n, seed, delay_prob, dup_prob, crashes)
    leader = cluster.leader()
    assert leader is not None
    expected = leader.log.all_entries()[:leader.commit_index]
    assert expected[-1].command == "final"
    for member in cluster.members.values():
        assert member.commit_index == leader.commit_index
        assert member.log.all_entries()[:member.commit_index] == expected
    for entry in expected:
        if entry.index in committed:
            assert committed[entry.index] == (entry.term, entry.command)
