"""Blockchain islands and cross-island interoperability (Section V-A).

"We foresee a myriad of permissioned blockchain networks emerging in
vertical domains (health, education, energy, automotive, smart cities) with
participants across value chains ... The interoperability of these
blockchain islands along with the widespread adoption of decentralized
identity services will create major economies of scale."

An :class:`BlockchainIsland` wraps one permissioned (Fabric-like) network for
a vertical domain; an :class:`IslandFederation` connects islands through
:class:`InteropGateway` pairs that relay cross-island transactions (lock on
the source island, then record on the destination island), adding one extra
round of endorsement+ordering per hop.  Experiment E16 measures the bounded
overhead of interoperability relative to intra-island transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.permissioned.chaincode import asset_transfer_chaincode, provenance_chaincode
from repro.permissioned.fabric import (
    ChannelConfig,
    EndorsementPolicy,
    FabricMetrics,
    FabricNetwork,
    FabricNetworkConfig,
    OrderingConfig,
)
from repro.sim.rng import SeededRNG


@dataclass
class BlockchainIsland:
    """One vertical-domain consortium running its own permissioned network.

    ``domain`` is a label: every island installs asset-transfer and
    provenance and runs asset-transfer, whatever its domain.
    """

    name: str
    domain: str
    organizations: int = 4
    peers_per_org: int = 2
    ordering_mode: str = "raft"
    seed: int = 0
    network: FabricNetwork = field(init=False)

    def __post_init__(self) -> None:
        channel = ChannelConfig(
            name=self.name,
            organizations=[f"org{i}" for i in range(self.organizations)],
            endorsement_policy=EndorsementPolicy(required_organizations=2),
            ordering=OrderingConfig(mode=self.ordering_mode),
        )
        self.network = FabricNetwork(
            FabricNetworkConfig(
                organizations=self.organizations,
                peers_per_org=self.peers_per_org,
                channels=[channel],
                seed=self.seed,
            )
        )
        self.network.install_chaincode(self.name, asset_transfer_chaincode())
        self.network.install_chaincode(self.name, provenance_chaincode())

    def run_intra_island_workload(
        self, request_rate: float = 300.0, duration: float = 5.0
    ) -> FabricMetrics:
        """Ordinary (single-island) transactions."""
        return self.network.run_workload(
            self.name, "asset-transfer", request_rate=request_rate, duration=duration
        )


@dataclass
class InteropGateway:
    """Relays transactions between two islands (lock on A, record on B).

    The latency/overhead model is deliberately simple: a cross-island
    transaction costs one full transaction on each island plus the gateway
    relay latency; atomicity is obtained by locking on the source island
    first, so a failure on the destination island releases the lock.
    """

    source: BlockchainIsland
    destination: BlockchainIsland
    relay_latency: float = 0.05

    def cross_island_latency(self, intra_source: float, intra_destination: float) -> float:
        """Latency of one cross-island transfer given intra-island latencies."""
        return intra_source + self.relay_latency + intra_destination


class IslandFederation:
    """A set of islands plus the gateways connecting them."""

    def __init__(self, islands: Optional[List[BlockchainIsland]] = None, seed: int = 0) -> None:
        self.islands: Dict[str, BlockchainIsland] = {}
        self.gateways: Dict[Tuple[str, str], InteropGateway] = {}
        self.rng = SeededRNG(seed)
        for island in islands or []:
            self.add_island(island)

    def add_island(self, island: BlockchainIsland) -> None:
        """Admit an island to the federation."""
        if island.name in self.islands:
            raise ValueError(f"island {island.name!r} already present")
        self.islands[island.name] = island

    def connect(self, source: str, destination: str, relay_latency: float = 0.05) -> InteropGateway:
        """Install a gateway between two islands (both directions)."""
        if source not in self.islands or destination not in self.islands:
            raise KeyError("both islands must be part of the federation")
        gateway = InteropGateway(
            source=self.islands[source],
            destination=self.islands[destination],
            relay_latency=relay_latency,
        )
        self.gateways[(source, destination)] = gateway
        self.gateways[(destination, source)] = InteropGateway(
            source=self.islands[destination],
            destination=self.islands[source],
            relay_latency=relay_latency,
        )
        return gateway

    def interoperability_overhead(
        self, source: str, destination: str, request_rate: float = 200.0, duration: float = 4.0
    ) -> Dict[str, float]:
        """Measure intra-island latency on both islands and derive the cross-island cost."""
        if (source, destination) not in self.gateways:
            raise KeyError(f"no gateway between {source!r} and {destination!r}")
        gateway = self.gateways[(source, destination)]
        source_metrics = gateway.source.run_intra_island_workload(request_rate, duration)
        destination_metrics = gateway.destination.run_intra_island_workload(request_rate, duration)
        intra_source = source_metrics.latencies.mean()
        intra_destination = destination_metrics.latencies.mean()
        cross = gateway.cross_island_latency(intra_source, intra_destination)
        baseline = max(intra_source, 1e-9)
        return {
            "intra_island_latency_s": intra_source,
            "destination_latency_s": intra_destination,
            "cross_island_latency_s": cross,
            "overhead_factor": cross / baseline,
            "source_throughput_tps": source_metrics.throughput_tps,
            "destination_throughput_tps": destination_metrics.throughput_tps,
        }

    def federation_trust_entities(self) -> Dict[str, float]:
        """Every organization across every island, as equal trust shares."""
        entities: Dict[str, float] = {}
        for island in self.islands.values():
            for org in island.network.msp.organization_names():
                entities[f"{island.name}:{org}"] = 1.0
        total = sum(entities.values())
        return {name: value / total for name, value in entities.items()} if total else {}
