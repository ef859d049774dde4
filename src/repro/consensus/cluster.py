"""Benchmark harness comparing consensus protocols across committee sizes.

Used by ablation A2 ("PBFT committee size vs. throughput/latency") and by
Experiment E15's permissioned-vs-permissionless comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.consensus.base import ConsensusMetrics, ReplicaParams
from repro.consensus.pbft import PBFTCluster, PBFTConfig
from repro.consensus.raft import RaftCluster, RaftConfig


@dataclass
class ConsensusBenchmarkConfig:
    """Workload and cluster parameters for one benchmark point."""

    protocol: str = "pbft"                 # "pbft" or "raft"
    replicas: int = 4
    request_rate: float = 2000.0
    duration: float = 10.0
    batch_size: int = 100
    replica_params: ReplicaParams = field(default_factory=ReplicaParams)
    seed: int = 0


class ConsensusBenchmark:
    """Runs one protocol configuration and reports its metrics."""

    def __init__(self, config: Optional[ConsensusBenchmarkConfig] = None) -> None:
        self.config = config or ConsensusBenchmarkConfig()

    def run(self) -> ConsensusMetrics:
        """Build the cluster, drive the workload and return the metrics."""
        config = self.config
        if config.protocol == "pbft":
            cluster = PBFTCluster(
                PBFTConfig(
                    replicas=config.replicas,
                    batch_size=config.batch_size,
                    replica_params=config.replica_params,
                    seed=config.seed,
                )
            )
            return cluster.run_workload(config.request_rate, config.duration)
        if config.protocol == "raft":
            cluster = RaftCluster(
                RaftConfig(
                    replicas=config.replicas,
                    batch_size=config.batch_size,
                    replica_params=config.replica_params,
                    seed=config.seed,
                )
            )
            return cluster.run_workload(config.request_rate, config.duration)
        raise ValueError(f"unknown protocol {config.protocol!r}")
