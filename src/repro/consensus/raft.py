"""Raft-style crash-fault-tolerant replication.

Hyperledger Fabric's default ordering service is Raft; the paper's Section IV
mentions crash fault-tolerant (CFT) consensus as the cheaper alternative to
BFT when the ordering nodes are trusted not to be malicious (only to crash).

The implementation covers leader election (randomised election timeouts,
term-based voting) and log replication with batching (the leader appends a
batch, replicates it with ``append_entries``, and commits once a majority
acknowledges).  Log entries carry request arrival times so the harness can
report client-observed commit latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.consensus.base import ConsensusMetrics, CpuBoundNode, ReplicaParams
from repro.sim.engine import Simulator
from repro.sim.metrics import Sample
from repro.sim.network import Network, NetworkParams
from repro.sim.rng import SeededRNG


@dataclass
class RaftConfig:
    """Cluster-level configuration."""

    replicas: int = 5
    batch_size: int = 200
    batch_timeout: float = 0.02
    heartbeat_interval: float = 0.05
    election_timeout_min: float = 0.15
    election_timeout_max: float = 0.3
    request_bytes: int = 200
    replica_params: ReplicaParams = field(default_factory=ReplicaParams)
    network_params: Optional[NetworkParams] = None
    seed: int = 0

    @property
    def majority(self) -> int:
        """Votes/acknowledgements needed to win an election or commit."""
        return self.replicas // 2 + 1


@dataclass
class _LogEntry:
    """One replicated batch."""

    term: int
    index: int
    request_times: List[float]


class RaftNode(CpuBoundNode):
    """One Raft participant (follower, candidate or leader)."""

    def __init__(self, index: int, sim: Simulator, network: Network, cluster: "RaftCluster") -> None:
        super().__init__(f"raft-{index}", sim, network, params=cluster.config.replica_params)
        self.index = index
        self.cluster = cluster
        self.term = 0
        self.role = "follower"
        self.voted_for: Optional[int] = None
        self.log: List[_LogEntry] = []
        self.commit_index = -1
        self.votes: Set[int] = set()
        self.ack_counts: Dict[int, Set[int]] = {}
        self.pending_requests: List[float] = []
        self._batch_timer_armed = False
        self._election_deadline = 0.0
        self.rng = cluster.rng.fork(f"raft-node-{index}")

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first election timer."""
        self._reset_election_timer()

    def _reset_election_timer(self) -> None:
        timeout = self.rng.uniform(
            self.cluster.config.election_timeout_min,
            self.cluster.config.election_timeout_max,
        )
        self._election_deadline = self.sim.now + timeout
        self.sim.schedule(timeout, self._election_timeout, self._election_deadline)

    def _election_timeout(self, deadline: float) -> None:
        if not self.online or self.role == "leader":
            return
        if deadline != self._election_deadline:
            return      # the timer was reset in the meantime
        self._start_election()

    def _start_election(self) -> None:
        self.term += 1
        self.role = "candidate"
        self.voted_for = self.index
        self.votes = {self.index}
        payload = {"term": self.term, "candidate": self.index}
        self.broadcast(self._peers(), "request_vote", payload, size_bytes=self.params.message_bytes)
        self._reset_election_timer()

    def _peers(self) -> List[str]:
        return [node.node_id for node in self.cluster.nodes if node.node_id != self.node_id]

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------
    def on_request_vote(self, message) -> None:
        payload = message.payload
        term, candidate = payload["term"], payload["candidate"]
        if term > self.term:
            self.term = term
            self.role = "follower"
            self.voted_for = None
        grant = term >= self.term and self.voted_for in (None, candidate)
        if grant:
            self.voted_for = candidate
            self._reset_election_timer()
        self.send(
            message.sender,
            "vote",
            {"term": self.term, "granted": grant, "voter": self.index},
            size_bytes=self.params.message_bytes,
        )

    def on_vote(self, message) -> None:
        payload = message.payload
        if self.role != "candidate" or payload["term"] != self.term:
            return
        if payload["granted"]:
            self.votes.add(payload["voter"])
            if len(self.votes) >= self.cluster.config.majority:
                self._become_leader()

    def _become_leader(self) -> None:
        self.role = "leader"
        self.cluster.leader_index = self.index
        self.cluster.leader_elected_at = self.sim.now
        self._send_heartbeats()

    def _send_heartbeats(self) -> None:
        if self.role != "leader" or not self.online:
            return
        payload = {"term": self.term, "leader": self.index, "entries": [], "commit_index": self.commit_index}
        self.broadcast(self._peers(), "append_entries", payload, size_bytes=self.params.message_bytes)
        self.sim.schedule(self.cluster.config.heartbeat_interval, self._send_heartbeats)

    # ------------------------------------------------------------------
    # Log replication
    # ------------------------------------------------------------------
    def submit_request(self, arrival_time: float) -> None:
        """Leader-side entry point for client requests."""
        if self.role != "leader":
            return
        self.pending_requests.append(arrival_time)
        if len(self.pending_requests) >= self.cluster.config.batch_size:
            self._replicate_batch()
        elif not self._batch_timer_armed:
            self._batch_timer_armed = True
            self.sim.schedule(self.cluster.config.batch_timeout, self._batch_deadline)

    def _batch_deadline(self) -> None:
        self._batch_timer_armed = False
        if self.pending_requests and self.role == "leader":
            self._replicate_batch()

    def _replicate_batch(self) -> None:
        batch = self.pending_requests[: self.cluster.config.batch_size]
        del self.pending_requests[: self.cluster.config.batch_size]
        entry = _LogEntry(term=self.term, index=len(self.log), request_times=batch)
        self.log.append(entry)
        self.ack_counts[entry.index] = {self.index}
        payload = {
            "term": self.term,
            "leader": self.index,
            "entries": [(entry.term, entry.index, entry.request_times)],
            "commit_index": self.commit_index,
        }
        size = self.params.message_bytes + self.cluster.config.request_bytes * len(batch)
        self.broadcast(self._peers(), "append_entries", payload, size_bytes=size)

    def on_append_entries(self, message) -> None:
        payload = message.payload
        term = payload["term"]
        if term < self.term:
            return
        self.term = term
        self.role = "follower"
        self._reset_election_timer()
        appended = []
        for entry_term, entry_index, request_times in payload["entries"]:
            while len(self.log) <= entry_index:
                self.log.append(_LogEntry(entry_term, len(self.log), []))
            self.log[entry_index] = _LogEntry(entry_term, entry_index, request_times)
            appended.append(entry_index)
        self.commit_index = max(self.commit_index, min(payload["commit_index"], len(self.log) - 1))
        if appended:
            self.send(
                message.sender,
                "append_ack",
                {"term": self.term, "follower": self.index, "indexes": appended},
                size_bytes=self.params.message_bytes,
            )

    def on_append_ack(self, message) -> None:
        if self.role != "leader":
            return
        payload = message.payload
        for index in payload["indexes"]:
            acks = self.ack_counts.setdefault(index, {self.index})
            acks.add(payload["follower"])
            if len(acks) >= self.cluster.config.majority and index > self.commit_index:
                self._advance_commit(index)

    def _advance_commit(self, index: int) -> None:
        for commit_idx in range(self.commit_index + 1, index + 1):
            entry = self.log[commit_idx]
            self.cluster.record_commit(entry)
        self.commit_index = index


class RaftCluster:
    """Builds the Raft group and drives it with a client workload."""

    def __init__(self, config: Optional[RaftConfig] = None, sim: Optional[Simulator] = None) -> None:
        self.config = config or RaftConfig()
        if self.config.replicas < 3:
            raise ValueError("Raft needs at least 3 nodes to tolerate a crash")
        self.sim = sim or Simulator()
        self.rng = SeededRNG(self.config.seed)
        params = self.config.network_params or NetworkParams(
            base_latency=0.002, inter_region_latency=0.03, bandwidth_bps=1e9, latency_jitter=0.2
        )
        self.network = Network(self.sim, params, rng=self.rng.fork("net"))
        self.nodes: List[RaftNode] = [
            RaftNode(index, self.sim, self.network, self) for index in range(self.config.replicas)
        ]
        self.leader_index: Optional[int] = None
        self.leader_elected_at: Optional[float] = None
        self.commit_latencies = Sample("raft_commit_latency")
        self.committed_requests = 0
        self._started = False

    def start(self) -> None:
        """Arm every node's election timer."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.start()

    @property
    def leader(self) -> Optional[RaftNode]:
        """The node currently acting as leader, if any."""
        if self.leader_index is None:
            return None
        return self.nodes[self.leader_index]

    def submit(self) -> bool:
        """Submit one client request; returns ``False`` if no leader exists yet."""
        leader = self.leader
        if leader is None or not leader.online or leader.role != "leader":
            return False
        leader.submit_request(self.sim.now)
        return True

    def record_commit(self, entry: _LogEntry) -> None:
        """Account a committed batch."""
        self.committed_requests += len(entry.request_times)
        for arrival in entry.request_times:
            self.commit_latencies.observe(self.sim.now - arrival)

    def run_workload(
        self, request_rate: float, duration: float, warmup: float = 1.0
    ) -> ConsensusMetrics:
        """Elect a leader, then drive a Poisson request stream."""
        self.start()
        self.sim.run(until=self.sim.now + warmup)
        interval = 1.0 / request_rate if request_rate > 0 else float("inf")
        deadline = self.sim.now + duration

        def _submit_next() -> None:
            if self.sim.now >= deadline:
                return
            self.submit()
            self.sim.schedule(self.rng.exponential(interval), _submit_next)

        self.sim.schedule(0.0, _submit_next)
        self.sim.run(until=deadline + 5.0)
        return ConsensusMetrics(
            committed_requests=self.committed_requests,
            duration=duration,
            commit_latencies=self.commit_latencies,
            messages_sent=self.network.messages_sent,
            bytes_sent=self.network.bytes_sent,
            replicas=self.config.replicas,
        )
