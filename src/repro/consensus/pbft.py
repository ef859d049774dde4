"""PBFT-style byzantine fault-tolerant state-machine replication.

The protocol follows Castro & Liskov's normal-case operation, which is also
what BFT-SMaRt (the consensus library the paper cites via Hyperledger
Fabric) implements:

1. clients send requests to the primary;
2. the primary batches requests and multicasts ``PRE-PREPARE``;
3. replicas multicast ``PREPARE``; a replica is *prepared* once it has
   2f matching prepares plus the pre-prepare;
4. replicas multicast ``COMMIT``; a batch commits at a replica once it has
   2f+1 matching commits;
5. replicas execute the batch and reply to the clients.

Tolerates ``f = (n - 1) // 3`` byzantine replicas.  View changes are modelled
as a timeout-triggered primary rotation with a configurable outage, enough to
measure the availability effect of a primary crash without reproducing the
full view-change sub-protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.base import ConsensusMetrics, CpuBoundNode, ReplicaParams
from repro.sim.engine import Simulator
from repro.sim.metrics import Sample
from repro.sim.network import Network, NetworkParams
from repro.sim.rng import SeededRNG


@dataclass
class PBFTConfig:
    """Cluster-level configuration."""

    replicas: int = 4
    batch_size: int = 100
    batch_timeout: float = 0.05           # max time the primary waits to fill a batch
    request_bytes: int = 200
    replica_params: ReplicaParams = field(default_factory=ReplicaParams)
    network_params: Optional[NetworkParams] = None
    view_change_timeout: float = 2.0
    seed: int = 0

    @property
    def f(self) -> int:
        """Number of byzantine faults tolerated."""
        return (self.replicas - 1) // 3

    @property
    def quorum(self) -> int:
        """Size of a prepare/commit quorum (2f + 1)."""
        return 2 * self.f + 1


@dataclass
class _BatchState:
    """Per-replica bookkeeping for one (view, sequence) batch."""

    pre_prepared: bool = False
    prepares: Set[str] = field(default_factory=set)
    commits: Set[str] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    request_times: List[float] = field(default_factory=list)
    request_count: int = 0


class PBFTReplica(CpuBoundNode):
    """One PBFT replica."""

    def __init__(
        self,
        index: int,
        sim: Simulator,
        network: Network,
        cluster: "PBFTCluster",
    ) -> None:
        super().__init__(
            f"replica-{index}", sim, network, params=cluster.config.replica_params
        )
        self.index = index
        self.cluster = cluster
        self.view = 0
        self.batches: Dict[Tuple[int, int], _BatchState] = {}
        self.executed_up_to = -1
        self.byzantine = False     # a byzantine replica here simply stays silent

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        """Whether this replica is the primary of its current view."""
        return self.index == self.view % self.cluster.config.replicas

    def _batch(self, view: int, sequence: int) -> _BatchState:
        state = self.batches.get((view, sequence))
        if state is None:
            state = self.batches[(view, sequence)] = _BatchState()
        return state

    def _peers(self) -> List[str]:
        return [
            replica.node_id
            for replica in self.cluster.replicas
            if replica.node_id != self.node_id
        ]

    # ------------------------------------------------------------------
    # Primary: batching and pre-prepare
    # ------------------------------------------------------------------
    def submit_request(self, arrival_time: float) -> None:
        """Primary-side entry point: queue a client request for batching."""
        self.cluster.pending_requests.append(arrival_time)
        if len(self.cluster.pending_requests) >= self.cluster.config.batch_size:
            self._send_pre_prepare()
        elif not self.cluster.batch_timer_armed:
            self.cluster.batch_timer_armed = True
            self.sim.schedule(self.cluster.config.batch_timeout, self._batch_timeout)

    def _batch_timeout(self) -> None:
        self.cluster.batch_timer_armed = False
        if self.cluster.pending_requests and self.is_primary:
            self._send_pre_prepare()

    def _send_pre_prepare(self) -> None:
        if not self.is_primary or self.byzantine:
            return
        config = self.cluster.config
        batch_requests = self.cluster.pending_requests[: config.batch_size]
        del self.cluster.pending_requests[: config.batch_size]
        if not batch_requests:
            return
        sequence = self.cluster.next_sequence
        self.cluster.next_sequence += 1
        payload = {
            "view": self.view,
            "sequence": sequence,
            "request_times": batch_requests,
        }
        size = config.request_bytes * len(batch_requests) + self.params.message_bytes
        state = self._batch(self.view, sequence)
        state.pre_prepared = True
        state.request_times = batch_requests
        state.request_count = len(batch_requests)
        state.prepares.add(self.node_id)
        self.broadcast(self._peers(), "pre_prepare", payload, size_bytes=size)
        # The primary also participates in the prepare phase.
        self._broadcast_prepare(self.view, sequence)

    # ------------------------------------------------------------------
    # Replica message handlers
    # ------------------------------------------------------------------
    def on_pre_prepare(self, message) -> None:
        if self.byzantine:
            return
        payload = message.payload
        view, sequence = payload["view"], payload["sequence"]
        if view != self.view:
            return
        state = self._batch(view, sequence)
        state.pre_prepared = True
        state.request_times = payload["request_times"]
        state.request_count = len(payload["request_times"])
        state.prepares.add(message.sender)
        self._broadcast_prepare(view, sequence)
        self._check_prepared(view, sequence)

    def _broadcast_prepare(self, view: int, sequence: int) -> None:
        state = self._batch(view, sequence)
        state.prepares.add(self.node_id)
        payload = {"view": view, "sequence": sequence}
        self.broadcast(self._peers(), "prepare", payload, size_bytes=self.params.message_bytes)
        self._check_prepared(view, sequence)

    def on_prepare(self, message) -> None:
        if self.byzantine:
            return
        payload = message.payload
        view, sequence = payload["view"], payload["sequence"]
        state = self._batch(view, sequence)
        state.prepares.add(message.sender)
        self._check_prepared(view, sequence)

    def _check_prepared(self, view: int, sequence: int) -> None:
        state = self._batch(view, sequence)
        if state.prepared or not state.pre_prepared:
            return
        if len(state.prepares) >= self.cluster.config.quorum:
            state.prepared = True
            state.commits.add(self.node_id)
            payload = {"view": view, "sequence": sequence}
            self.broadcast(self._peers(), "commit", payload, size_bytes=self.params.message_bytes)
            self._check_committed(view, sequence)

    def on_commit(self, message) -> None:
        if self.byzantine:
            return
        payload = message.payload
        view, sequence = payload["view"], payload["sequence"]
        state = self._batch(view, sequence)
        state.commits.add(message.sender)
        self._check_committed(view, sequence)

    def _check_committed(self, view: int, sequence: int) -> None:
        state = self._batch(view, sequence)
        if state.committed or not state.prepared:
            return
        if len(state.commits) >= self.cluster.config.quorum:
            state.committed = True
            self.executed_up_to = max(self.executed_up_to, sequence)
            self.cluster.record_commit(self.index, sequence, state)


class PBFTCluster:
    """Builds the replica group and drives it with a client workload."""

    def __init__(self, config: Optional[PBFTConfig] = None, sim: Optional[Simulator] = None) -> None:
        self.config = config or PBFTConfig()
        if self.config.replicas < 4:
            raise ValueError("PBFT needs at least 4 replicas (f >= 1)")
        self.sim = sim or Simulator()
        self.rng = SeededRNG(self.config.seed)
        params = self.config.network_params or NetworkParams(
            base_latency=0.002, inter_region_latency=0.03, bandwidth_bps=1e9, latency_jitter=0.2
        )
        self.network = Network(self.sim, params, rng=self.rng.fork("net"))
        self.replicas: List[PBFTReplica] = []
        for index in range(self.config.replicas):
            self.replicas.append(PBFTReplica(index, self.sim, self.network, self))
        self.pending_requests: List[float] = []
        self.batch_timer_armed = False
        self.next_sequence = 0
        self.commit_latencies = Sample("pbft_commit_latency")
        self.committed_requests = 0
        self._committed_sequences: Set[int] = set()
        self._commit_votes: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Client workload
    # ------------------------------------------------------------------
    @property
    def primary(self) -> PBFTReplica:
        """The primary replica of the current view."""
        view = self.replicas[0].view
        return self.replicas[view % self.config.replicas]

    def submit(self, arrival_time: Optional[float] = None) -> None:
        """Submit one client request to the primary."""
        self.primary.submit_request(
            self.sim.now if arrival_time is None else arrival_time
        )

    def record_commit(self, replica_index: int, sequence: int, state: _BatchState) -> None:
        """Called by replicas when a batch commits locally.

        A request counts as committed (client-visible) when f+1 replicas have
        executed it — the client needs f+1 matching replies.
        """
        votes = self._commit_votes.setdefault(sequence, set())
        votes.add(replica_index)
        if sequence in self._committed_sequences:
            return
        if len(votes) >= self.config.f + 1:
            self._committed_sequences.add(sequence)
            self.committed_requests += state.request_count
            for arrival in state.request_times:
                self.commit_latencies.observe(self.sim.now - arrival)

    # ------------------------------------------------------------------
    # Measurement harness
    # ------------------------------------------------------------------
    def run_workload(
        self,
        request_rate: float,
        duration: float,
        warmup: float = 0.0,
    ) -> ConsensusMetrics:
        """Drive the cluster with a Poisson request stream for ``duration`` seconds."""
        interval = 1.0 / request_rate if request_rate > 0 else float("inf")

        def _submit_next(deadline: float) -> None:
            if self.sim.now >= deadline:
                return
            self.submit()
            gap = self.rng.exponential(interval)
            self.sim.schedule(gap, _submit_next, deadline)

        deadline = self.sim.now + warmup + duration
        self.sim.schedule(0.0, _submit_next, deadline)
        # Allow in-flight batches to drain after the last submission.
        self.sim.run(until=deadline + 5.0)
        return ConsensusMetrics(
            committed_requests=self.committed_requests,
            duration=warmup + duration,
            commit_latencies=self.commit_latencies,
            messages_sent=self.network.messages_sent,
            bytes_sent=self.network.bytes_sent,
            replicas=self.config.replicas,
        )
