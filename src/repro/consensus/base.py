"""Shared machinery for the consensus replicas.

Both PBFT and Raft replicas inherit :class:`CpuBoundNode`, which serialises
message processing through a per-node CPU: every message costs a configurable
amount of compute, and messages queue when the node is busy.  This is what
makes message complexity *matter* — PBFT's O(n²) all-to-all traffic saturates
replica CPUs as the committee grows, which is the quantitative reason
permissioned consortia stay small (ablation A2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.metrics import Sample
from repro.sim.network import Message, Network
from repro.sim.node import Node


@dataclass
class ReplicaParams:
    """Per-replica resource model."""

    cpu_time_per_message: float = 0.0002      # seconds of CPU per protocol message
    cpu_time_per_request_byte: float = 2e-8   # extra CPU per payload byte (hashing, app execution)
    message_bytes: int = 512                  # size of protocol messages on the wire


@dataclass
class ConsensusMetrics:
    """Outcome of driving a consensus cluster with a client workload."""

    committed_requests: int
    duration: float
    commit_latencies: Sample
    messages_sent: int
    bytes_sent: int
    replicas: int

    @property
    def throughput_tps(self) -> float:
        """Committed requests per second of virtual time."""
        return self.committed_requests / self.duration if self.duration > 0 else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean client-observed commit latency."""
        return self.commit_latencies.mean()

    @property
    def p99_latency(self) -> float:
        """99th percentile commit latency."""
        return self.commit_latencies.percentile(99)

    @property
    def messages_per_request(self) -> float:
        """Protocol messages sent per committed request."""
        return self.messages_sent / self.committed_requests if self.committed_requests else 0.0

    def summary(self) -> Dict[str, float]:
        """Headline numbers for experiment tables."""
        return {
            "replicas": float(self.replicas),
            "throughput_tps": self.throughput_tps,
            "mean_latency_s": self.mean_latency,
            "p50_latency_s": self.commit_latencies.percentile(50),
            "p99_latency_s": self.p99_latency,
            "messages_per_request": self.messages_per_request,
            "committed": float(self.committed_requests),
        }


class CpuBoundNode(Node):
    """A node whose message handling is serialised through a finite CPU."""

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        network: Network,
        params: Optional[ReplicaParams] = None,
        region: str = "default",
    ) -> None:
        super().__init__(node_id, sim, network, region=region)
        self.params = params or ReplicaParams()
        self._busy_until = 0.0
        self.cpu_busy_time = 0.0

    def receive(self, message: Message) -> None:
        """Queue the message through the CPU before dispatching it."""
        if not self.online:
            return
        params = self.params
        now = self.sim.now
        cost = params.cpu_time_per_message
        cost += params.cpu_time_per_request_byte * message.size_bytes
        start = max(now, self._busy_until)
        self._busy_until = start + cost
        self.cpu_busy_time += cost
        self.sim.schedule(self._busy_until - now, self._dispatch, message)
