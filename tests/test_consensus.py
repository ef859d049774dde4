"""Tests for the PBFT and Raft replication substrates."""

import pytest

from repro.consensus.base import ReplicaParams
from repro.consensus.cluster import ConsensusBenchmark, ConsensusBenchmarkConfig
from repro.consensus.pbft import PBFTCluster, PBFTConfig
from repro.consensus.raft import RaftCluster, RaftConfig


def make_byzantine(cluster, count):
    """Silence ``count`` replicas (never the primary of view 0)."""
    candidates = [replica.index for replica in cluster.replicas if replica.index != 0]
    for index in cluster.rng.sample(candidates, min(count, len(candidates))):
        cluster.replicas[index].byzantine = True


def crash_leader(cluster):
    """Crash the current leader; returns its index."""
    leader = cluster.leader
    leader.go_offline()
    return leader.index


class TestPBFT:
    def test_requires_four_replicas(self):
        with pytest.raises(ValueError):
            PBFTCluster(PBFTConfig(replicas=3))

    def test_batch_state_is_created_once_per_view_and_sequence(self):
        replica = PBFTCluster(PBFTConfig(replicas=4)).replicas[1]
        state = replica._batch(0, 7)
        assert replica._batch(0, 7) is state
        assert replica._batch(1, 7) is not state
        assert list(replica.batches) == [(0, 7), (1, 7)]

    def test_fault_tolerance_formula(self):
        assert PBFTConfig(replicas=4).f == 1
        assert PBFTConfig(replicas=7).f == 2
        assert PBFTConfig(replicas=10).f == 3
        assert PBFTConfig(replicas=4).quorum == 3

    def test_commits_requests_with_low_latency(self):
        cluster = PBFTCluster(PBFTConfig(replicas=4, batch_size=50, seed=1))
        metrics = cluster.run_workload(request_rate=1000, duration=3)
        assert metrics.committed_requests > 2000
        assert metrics.mean_latency < 0.5
        assert metrics.throughput_tps > 500

    def test_all_honest_replicas_agree_on_executed_batches(self):
        cluster = PBFTCluster(PBFTConfig(replicas=4, batch_size=20, seed=2))
        cluster.run_workload(request_rate=300, duration=2)
        executed = [replica.executed_up_to for replica in cluster.replicas]
        # Replicas may lag by in-flight batches, but not diverge wildly.
        assert max(executed) - min(executed) <= 3

    def test_tolerates_f_silent_byzantine_replicas(self):
        cluster = PBFTCluster(PBFTConfig(replicas=4, batch_size=50, seed=3))
        make_byzantine(cluster, 1)
        metrics = cluster.run_workload(request_rate=500, duration=3)
        assert metrics.committed_requests > 1000

    def test_fails_to_commit_beyond_f_failures(self):
        cluster = PBFTCluster(PBFTConfig(replicas=4, batch_size=50, seed=4))
        make_byzantine(cluster, 2)     # more than f=1
        metrics = cluster.run_workload(request_rate=500, duration=2)
        assert metrics.committed_requests == 0

    def test_message_complexity_grows_with_replicas(self):
        small = PBFTCluster(PBFTConfig(replicas=4, batch_size=50, seed=5))
        small_metrics = small.run_workload(request_rate=400, duration=2)
        large = PBFTCluster(PBFTConfig(replicas=13, batch_size=50, seed=5))
        large_metrics = large.run_workload(request_rate=400, duration=2)
        assert large_metrics.messages_per_request > 2 * small_metrics.messages_per_request

    def test_latency_grows_with_committee_size(self):
        small = PBFTCluster(PBFTConfig(replicas=4, batch_size=50, seed=6)).run_workload(300, 2)
        large = PBFTCluster(PBFTConfig(replicas=16, batch_size=50, seed=6)).run_workload(300, 2)
        assert large.mean_latency >= small.mean_latency


class TestRaft:
    def test_requires_three_nodes(self):
        with pytest.raises(ValueError):
            RaftCluster(RaftConfig(replicas=2))

    def test_elects_a_single_leader(self):
        cluster = RaftCluster(RaftConfig(replicas=5, seed=1))
        cluster.start()
        cluster.sim.run(until=2.0)
        leaders = [node for node in cluster.nodes if node.role == "leader"]
        assert len(leaders) == 1
        assert cluster.leader is leaders[0]

    def test_commits_requests(self):
        cluster = RaftCluster(RaftConfig(replicas=5, batch_size=100, seed=2))
        metrics = cluster.run_workload(request_rate=2000, duration=3)
        assert metrics.committed_requests > 4000
        assert metrics.mean_latency < 0.2

    def test_submit_without_leader_returns_false(self):
        cluster = RaftCluster(RaftConfig(replicas=3, seed=3))
        assert cluster.submit() is False

    def test_new_leader_elected_after_crash(self):
        cluster = RaftCluster(RaftConfig(replicas=5, seed=4))
        cluster.start()
        cluster.sim.run(until=2.0)
        old_leader = crash_leader(cluster)
        cluster.sim.run(until=6.0)
        assert cluster.leader_index is not None
        assert cluster.leader_index != old_leader

    def test_followers_replicate_leader_log(self):
        cluster = RaftCluster(RaftConfig(replicas=3, batch_size=50, seed=5))
        cluster.run_workload(request_rate=500, duration=2)
        leader = cluster.leader
        online_lengths = [len(node.log) for node in cluster.nodes if node.online]
        assert max(online_lengths) - min(online_lengths) <= 2
        assert len(leader.log) > 0

    def test_raft_cheaper_than_pbft_in_messages(self):
        raft = RaftCluster(RaftConfig(replicas=5, batch_size=100, seed=6)).run_workload(1000, 2)
        pbft = PBFTCluster(PBFTConfig(replicas=5, batch_size=100, seed=6)).run_workload(1000, 2)
        assert raft.messages_per_request < pbft.messages_per_request


class TestConsensusBenchmark:
    def test_benchmark_runs_both_protocols(self):
        for protocol in ("pbft", "raft"):
            metrics = ConsensusBenchmark(
                ConsensusBenchmarkConfig(protocol=protocol, replicas=4 if protocol == "pbft" else 3,
                                         request_rate=500, duration=2, seed=7)
            ).run()
            assert metrics.committed_requests > 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ConsensusBenchmark(ConsensusBenchmarkConfig(protocol="paxos")).run()

    def test_committee_sweep_rows(self):
        rows = [ConsensusBenchmark(ConsensusBenchmarkConfig(
            protocol="pbft", replicas=size, request_rate=500, duration=1.5, seed=8,
        )).run().summary() for size in (4, 7)]
        assert rows[0]["replicas"] == 4
        assert rows[1]["messages_per_request"] > rows[0]["messages_per_request"]

    def test_metrics_summary_keys(self):
        metrics = ConsensusBenchmark(
            ConsensusBenchmarkConfig(protocol="pbft", replicas=4, request_rate=300, duration=1.5, seed=9)
        ).run()
        summary = metrics.summary()
        for key in ("throughput_tps", "mean_latency_s", "p99_latency_s", "messages_per_request"):
            assert key in summary
