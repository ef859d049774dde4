"""Throughput comparison: Bitcoin vs Ethereum vs a partitioned cloud backend.

Section III-C, Problem 2: "While VISA is processing 24,000 transactions per
second, Bitcoin can process between 3.3 and 7 transactions per second, and
Ethereum around 15 per second.  This is the consequence of a large
unstructured broadcast network where all nodes validate transactions.  VISA
can rely on a smaller pool of cloud servers that partition traffic and
handle tons of transactions per second."

Two complementary models back Experiment E7:

* :class:`ThroughputModel` — the closed-form ceiling of a broadcast-validated
  chain (block capacity / interval) versus a shared-nothing partitioned OLTP
  backend (per-partition rate × partitions), including the reason the gap is
  architectural: every blockchain node processes *every* transaction, while a
  partitioned backend divides them.
* The event-driven :class:`~repro.blockchain.network.PoWNetwork` — used by the
  benchmark to confirm the simulated chains actually sustain those rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.blockchain.network import BITCOIN_PROTOCOL, ETHEREUM_PROTOCOL, ProtocolParams


@dataclass(frozen=True)
class ReferenceSystem:
    """A system the paper compares, with its published throughput figure."""

    name: str
    paper_tps_low: float
    paper_tps_high: float
    architecture: str


#: The throughput figures quoted in the paper's Problem 2 paragraph.
REFERENCE_SYSTEMS: Dict[str, ReferenceSystem] = {
    "bitcoin": ReferenceSystem("bitcoin", 3.3, 7.0, "global broadcast validation (PoW)"),
    "ethereum": ReferenceSystem("ethereum", 15.0, 15.0, "global broadcast validation (PoW)"),
    "visa": ReferenceSystem("visa", 24_000.0, 24_000.0, "partitioned cloud OLTP"),
}


class ThroughputModel:
    """Analytical throughput ceilings for the architectures the paper compares."""

    def __init__(
        self,
        per_node_validation_tps: float = 2000.0,
        partition_tps: float = 1500.0,
    ) -> None:
        # ``per_node_validation_tps`` is how many transactions a single
        # commodity node can validate per second; in a broadcast-validated
        # chain this is an upper bound on the whole network's throughput
        # (Buterin's O(c)), because every node repeats all the work.
        self.per_node_validation_tps = per_node_validation_tps
        # ``partition_tps`` is what one partition/shard of a cloud OLTP
        # system sustains; partitions scale out because they do not repeat
        # each other's work.
        self.partition_tps = partition_tps

    # ------------------------------------------------------------------
    # Blockchain side
    # ------------------------------------------------------------------
    def blockchain_capacity_tps(self, protocol: ProtocolParams) -> float:
        """Protocol ceiling: block capacity divided by block interval."""
        return protocol.capacity_tps

    def blockchain_effective_tps(self, protocol: ProtocolParams) -> float:
        """Ceiling after accounting for the per-node validation bound."""
        return min(protocol.capacity_tps, self.per_node_validation_tps)

    # ------------------------------------------------------------------
    # Partitioned cloud side
    # ------------------------------------------------------------------
    def cloud_capacity_tps(self, partitions: int) -> float:
        """Shared-nothing scaling: partitions do not validate each other's work."""
        if partitions < 1:
            raise ValueError("need at least one partition")
        return partitions * self.partition_tps

    def partitions_needed(self, target_tps: float) -> int:
        """How many partitions a cloud backend needs for a target rate."""
        if target_tps <= 0:
            return 1
        partitions = int(target_tps // self.partition_tps)
        if partitions * self.partition_tps < target_tps:
            partitions += 1
        return max(1, partitions)

    # ------------------------------------------------------------------
    # Comparison table
    # ------------------------------------------------------------------
    def comparison_rows(self, visa_partitions: int = 16) -> List[Dict[str, float]]:
        """Rows comparing modelled capacity with the paper's quoted figures."""
        rows: List[Dict[str, float]] = []
        for protocol in (BITCOIN_PROTOCOL, ETHEREUM_PROTOCOL):
            reference = REFERENCE_SYSTEMS[protocol.name]
            rows.append(
                {
                    "system": protocol.name,
                    "modelled_tps": self.blockchain_effective_tps(protocol),
                    "paper_tps_low": reference.paper_tps_low,
                    "paper_tps_high": reference.paper_tps_high,
                }
            )
        visa = REFERENCE_SYSTEMS["visa"]
        rows.append(
            {
                "system": "visa",
                "modelled_tps": self.cloud_capacity_tps(visa_partitions),
                "paper_tps_low": visa.paper_tps_low,
                "paper_tps_high": visa.paper_tps_high,
            }
        )
        return rows
