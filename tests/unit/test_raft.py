"""Unit and small-cluster tests for the Raft implementation."""

import pytest

from repro.raft.log import RaftLog
from repro.raft.messages import AppendEntries, AppendEntriesReply
from repro.raft.node import FOLLOWER, LEADER, RaftConfig, RaftNoop
from repro.wal.log import WriteAheadLog
from repro.wal.records import RaftAppendRecord
from tests.support import RaftCluster


class TestConfigValidation:
    def test_defaults_valid(self):
        RaftConfig()

    def test_bad_timeouts(self):
        with pytest.raises(ValueError):
            RaftConfig(election_timeout_min_ms=0)
        with pytest.raises(ValueError):
            RaftConfig(election_timeout_min_ms=100,
                       election_timeout_max_ms=50)
        with pytest.raises(ValueError):
            RaftConfig(heartbeat_interval_ms=5000)


class TestBootstrap:
    def test_bootstrap_leader_assumes_leadership(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(100)
        leader = cluster.leader()
        assert leader is not None and leader.node_id == "n0"
        assert leader.current_term == 1

    def test_followers_learn_leader_via_heartbeat(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(100)
        for node_id in ("n1", "n2"):
            member = cluster.members[node_id]
            assert member.state == FOLLOWER
            assert member.leader_id == "n0"
            assert member.current_term == 1

    def test_no_election_while_leader_heartbeats(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(5000)
        assert all(m.elections_started == 0
                   for m in cluster.members.values())

    def test_leaderless_start_elects_exactly_one_leader(self):
        cluster = RaftCluster(n=3, bootstrap=None, seed=7)
        cluster.start()
        cluster.run(2000)
        leaders = [m for m in cluster.members.values() if m.is_leader]
        assert len(leaders) == 1


class TestReplication:
    def test_propose_commits_on_all_members(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(50)
        leader = cluster.leader()
        committed = []
        leader.propose("write-x", on_committed=committed.append)
        cluster.run(200)
        assert len(committed) == 1
        assert committed[0].command == "write-x"
        for recorder in cluster.applied.values():
            assert "write-x" in recorder.commands

    def test_commit_requires_one_round_trip(self):
        cluster = RaftCluster(n=3, rtt_ms=10.0)
        cluster.start()
        cluster.run(50)
        leader = cluster.leader()
        start = cluster.kernel.now
        done = []
        leader.propose("cmd", on_committed=lambda e: done.append(
            cluster.kernel.now - start))
        cluster.run(100)
        # One WAN round trip (10 ms); allow small scheduling slack.
        assert done and done[0] == pytest.approx(10.0, abs=1.0)

    def test_propose_on_follower_returns_none(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(50)
        assert cluster.members["n1"].propose("nope") is None

    def test_commands_apply_in_order_everywhere(self):
        cluster = RaftCluster(n=5)
        cluster.start()
        cluster.run(50)
        leader = cluster.leader()
        for i in range(10):
            leader.propose(f"cmd{i}")
        cluster.run(500)
        expected = [f"cmd{i}" for i in range(10)]
        for recorder in cluster.applied.values():
            assert recorder.commands == expected

    def test_commit_with_minority_crashed(self):
        cluster = RaftCluster(n=5)
        cluster.start()
        cluster.run(50)
        cluster.hosts["n3"].crash()
        cluster.hosts["n4"].crash()
        committed = []
        cluster.leader().propose("still-works",
                                 on_committed=committed.append)
        cluster.run(200)
        assert committed

    def test_no_commit_without_majority(self):
        cluster = RaftCluster(n=5)
        cluster.start()
        cluster.run(50)
        for node_id in ("n2", "n3", "n4"):
            cluster.hosts[node_id].crash()
        committed = []
        cluster.leader().propose("stuck", on_committed=committed.append)
        cluster.run(1000)
        assert committed == []

    def test_single_member_group_commits_instantly(self):
        cluster = RaftCluster(n=1)
        cluster.start()
        cluster.run(10)
        committed = []
        cluster.leader().propose("solo", on_committed=committed.append)
        cluster.run(10)
        assert committed


class TestElectionsAndFailover:
    def test_new_leader_elected_after_crash(self):
        cluster = RaftCluster(n=3, seed=3)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        leader = cluster.leader()
        assert leader is not None
        assert leader.node_id != "n0"
        assert leader.current_term > 1

    def test_committed_entries_survive_failover(self):
        cluster = RaftCluster(n=3, seed=5)
        cluster.start()
        cluster.run(100)
        committed = []
        cluster.leader().propose("durable", on_committed=committed.append)
        cluster.run(200)
        assert committed
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        new_leader = cluster.leader()
        assert new_leader is not None
        new_committed = []
        new_leader.propose("after-failover",
                           on_committed=new_committed.append)
        cluster.run(500)
        assert new_committed
        for member in cluster.live_members():
            commands = cluster.applied[member.node_id].commands
            assert commands.index("durable") < \
                commands.index("after-failover")

    def test_noop_committed_by_new_leader(self):
        cluster = RaftCluster(n=3, seed=5)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        leader = cluster.leader()
        noops = [e for e in leader.log.all_entries()
                 if isinstance(e.command, RaftNoop)]
        assert noops
        assert leader.commit_index >= noops[-1].index

    def test_vote_payloads_delivered_to_new_leader(self):
        payloads = {}

        cluster = RaftCluster(n=3, seed=9)
        for node_id, member in cluster.members.items():
            member.vote_payload_fn = lambda nid=node_id: f"pending-{nid}"
        cluster.start()
        cluster.run(100)
        cluster.leadership_events.clear()
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        assert cluster.leadership_events
        __, winner, __, vote_payloads = cluster.leadership_events[-1]
        # Winner's own payload plus at least one voter's payload.
        assert vote_payloads[winner] == f"pending-{winner}"
        assert len(vote_payloads) >= 2
        for voter, payload in vote_payloads.items():
            assert payload == f"pending-{voter}"

    def test_old_leader_steps_down_on_higher_term(self):
        cluster = RaftCluster(n=3, seed=11)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        cluster.hosts["n0"].recover()
        cluster.run(2000)
        n0 = cluster.members["n0"]
        assert n0.state == FOLLOWER
        assert n0.current_term >= 2

    def test_recovered_node_catches_up_log(self):
        cluster = RaftCluster(n=3, seed=13)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n2"].crash()
        for i in range(5):
            cluster.leader().propose(f"missed-{i}")
        cluster.run(500)
        cluster.hosts["n2"].recover()
        cluster.run(2000)
        commands = cluster.applied["n2"].commands
        for i in range(5):
            assert f"missed-{i}" in commands

    def test_at_most_one_leader_per_term(self):
        # Run a churny scenario and assert election safety throughout.
        cluster = RaftCluster(n=5, bootstrap=None, seed=17)
        cluster.start()
        cluster.run(2000)
        cluster.hosts["n0"].crash()
        cluster.run(2000)
        cluster.hosts["n0"].recover()
        cluster.hosts["n1"].crash()
        cluster.run(2000)
        terms_seen = {}
        for at, node_id, term, __ in cluster.leadership_events:
            assert terms_seen.setdefault(term, node_id) == node_id, \
                f"two leaders in term {term}"

    def test_partition_minority_leader_cannot_commit(self):
        cluster = RaftCluster(n=3, seed=19)
        cluster.start()
        cluster.run(100)
        # Cut the leader off from both followers.
        cluster.network.partition("n0", "n1")
        cluster.network.partition("n0", "n2")
        committed = []
        cluster.members["n0"].propose("isolated",
                                      on_committed=committed.append)
        cluster.run(3000)
        assert committed == []
        # Majority side elected its own leader.
        majority_leader = [m for m in (cluster.members["n1"],
                                       cluster.members["n2"])
                           if m.is_leader]
        assert majority_leader

    def test_log_divergence_repaired_after_heal(self):
        cluster = RaftCluster(n=3, seed=23)
        cluster.start()
        cluster.run(100)
        cluster.network.partition("n0", "n1")
        cluster.network.partition("n0", "n2")
        cluster.members["n0"].propose("orphan")  # will be overwritten
        cluster.run(3000)
        new_leader = cluster.leader()
        assert new_leader.node_id != "n0"
        committed = []
        new_leader.propose("winner", on_committed=committed.append)
        cluster.run(500)
        assert committed
        cluster.network.heal_all()
        cluster.run(3000)
        n0_commands = cluster.applied["n0"].commands
        assert "winner" in n0_commands
        assert "orphan" not in n0_commands


class _Outbox:
    """Stands in for a host's ``send``: keeps messages for the test to
    deliver by hand, in any order."""

    def __init__(self, host):
        self.sent = []
        host.send = lambda dst, msg: self.sent.append((dst, msg))

    def take(self, kind=None):
        msgs = [m for _, m in self.sent if kind is None or
                isinstance(m, kind)]
        self.sent.clear()
        return msgs


def _scripted_cluster(wal_on=None):
    """A bootstrapped 3-member group (n0 leads term 1, its no-op at index
    1 committed everywhere) whose n0 and n1 sends are captured, so tests
    deliver appends and replies by hand."""
    cluster = RaftCluster(n=3)
    if wal_on is not None:
        cluster.hosts[wal_on].wal = WriteAheadLog(wal_on)
    cluster.start()
    cluster.run(100)
    return (cluster, cluster.members["n0"], cluster.members["n1"],
            _Outbox(cluster.hosts["n0"]), _Outbox(cluster.hosts["n1"]))


def _appends_to(outbox, peer):
    return [m for dst, m in outbox.sent if dst == peer and
            isinstance(m, AppendEntries)]


class TestReorderedAppends:
    def test_reversed_pipelined_appends_drain_from_hold(self):
        cluster, leader, follower, lout, fout = _scripted_cluster(
            wal_on="n1")
        wal = cluster.hosts["n1"].wal
        journaled_before = len(wal)
        leader.propose("a")
        leader.propose("b")
        first, second = _appends_to(lout, "n1")
        lout.take()
        assert (first.prev_log_index, second.prev_log_index) == (1, 2)

        follower.handle(second)  # overtakes its predecessor
        follower.handle(first)
        replies = fout.take(AppendEntriesReply)
        assert [r.success for r in replies] == [False, True]
        assert replies[1].match_index == 3
        assert [e.command for e in follower.log.all_entries()[1:]] == \
            ["a", "b"]
        new_records = wal.replay()[journaled_before:]
        journaled = [e.index for r in new_records
                     if isinstance(r, RaftAppendRecord) for e in r.entries]
        assert journaled == [2, 3]
        assert len(new_records) == 1

        for reply in replies:
            leader.handle(reply)
        assert lout.take(AppendEntries) == []  # no resend
        assert leader.match_index["n1"] == 3

    def test_held_append_of_older_term_never_installed(self):
        cluster, leader, follower, lout, fout = _scripted_cluster()
        leader.propose("a")
        leader.propose("b")
        first, second = _appends_to(lout, "n1")
        follower.handle(second)  # held, term 1
        # A term-2 leader that holds "a" (term 1) but not "b" replicates
        # "a" to n1; the term-1 append of "b" must not ride along.
        follower.handle(AppendEntries(
            group_id="g0", term=2, leader_id="n2",
            prev_log_index=1, prev_log_term=1,
            entries=[first.entries[0]], leader_commit=1))
        reply = fout.take(AppendEntriesReply)[-1]
        assert reply.success and reply.match_index == 2
        assert follower.log.last_index == 2
        assert follower._held == {}

    def test_stale_rejection_sends_nothing(self):
        cluster, leader, follower, lout, fout = _scripted_cluster()
        leader.propose("a")
        lout.take()
        next_idx = leader.next_index["n1"]
        leader.handle(AppendEntriesReply(
            group_id="g0", term=1, follower_id="n1", success=False,
            conflict_index=next_idx))
        assert lout.take() == []
        assert leader.next_index["n1"] == next_idx
        # A rejection below next_index backs off and resends from it.
        leader.handle(AppendEntriesReply(
            group_id="g0", term=1, follower_id="n1", success=False,
            conflict_index=next_idx - 1))
        (resend,) = lout.take(AppendEntries)
        assert resend.prev_log_index == next_idx - 2

    def test_dropped_append_repaired_by_heartbeat_then_hold_drains(self):
        cluster, leader, follower, lout, fout = _scripted_cluster()
        leader.propose("a")
        leader.propose("b")
        __, second = _appends_to(lout, "n1")  # "a" is lost
        lout.take()
        follower.handle(second)
        leader._on_heartbeat()
        (heartbeat,) = _appends_to(lout, "n1")
        lout.take()
        leader.propose("c")
        (third,) = _appends_to(lout, "n1")
        follower.handle(third)  # also early: held behind "b"
        follower.handle(heartbeat)
        replies = fout.take(AppendEntriesReply)
        assert [r.success for r in replies] == [False, False, True]
        assert replies[-1].match_index == 4
        assert [e.command for e in follower.log.all_entries()[1:]] == \
            ["a", "b", "c"]
        assert follower._held == {}


class TestLaggingFollowersStillBackOff:
    def test_follower_that_lost_its_log_converges(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(100)
        for i in range(5):
            cluster.leader().propose(f"cmd{i}")
        cluster.run(200)
        # Power-cycled without a WAL: n2 comes back with an empty log,
        # far behind the leader's next_index for it.
        cluster.hosts["n2"].crash()
        cluster.members["n2"].log = RaftLog()
        cluster.hosts["n2"].recover()
        cluster.run(500)
        leader = cluster.leader()
        assert leader.node_id == "n0"
        assert cluster.members["n2"].log.all_entries() == \
            leader.log.all_entries()

    def test_new_leader_with_optimistic_next_index_converges(self):
        cluster = RaftCluster(n=3, seed=5)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n2"].crash()
        for i in range(4):
            cluster.leader().propose(f"missed{i}")
        cluster.run(200)
        cluster.hosts["n0"].crash()
        cluster.hosts["n2"].recover()
        cluster.run(3000)
        leader = cluster.leader()
        assert leader is not None and leader.node_id == "n1"
        assert cluster.members["n2"].log.all_entries() == \
            leader.log.all_entries()
        assert cluster.members["n2"].commit_index == leader.commit_index
