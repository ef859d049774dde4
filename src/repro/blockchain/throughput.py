"""Throughput comparison: Bitcoin vs Ethereum vs a partitioned cloud backend.

Section III-C, Problem 2: "While VISA is processing 24,000 transactions per
second, Bitcoin can process between 3.3 and 7 transactions per second, and
Ethereum around 15 per second.  This is the consequence of a large
unstructured broadcast network where all nodes validate transactions.  VISA
can rely on a smaller pool of cloud servers that partition traffic and
handle tons of transactions per second."

Two complementary models back Experiment E7:

* :class:`ThroughputModel` — the closed-form ceiling of a shared-nothing
  partitioned OLTP backend (per-partition rate × partitions): a partitioned
  backend divides the transactions, while every blockchain node processes
  *every* one, which is why the gap is architectural.
* The event-driven :class:`~repro.blockchain.network.PoWNetwork` — the
  chains' side, whose sustained rates the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


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
    """The partitioned cloud side of the comparison (the chains are simulated)."""

    def __init__(self, partition_tps: float = 1500.0) -> None:
        # ``partition_tps`` is what one partition/shard of a cloud OLTP
        # system sustains; partitions scale out because they do not repeat
        # each other's work.
        self.partition_tps = partition_tps

    def cloud_capacity_tps(self, partitions: int) -> float:
        """Shared-nothing scaling: partitions do not validate each other's work."""
        if partitions < 1:
            raise ValueError("need at least one partition")
        return partitions * self.partition_tps
