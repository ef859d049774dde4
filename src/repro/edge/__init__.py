"""Edge-centric computing model and blockchain islands (Section V, Figure 1).

* :mod:`~repro.edge.topology` — hierarchical deployment topology: end
  devices, edge/nano datacenters, regional clouds and a central cloud, with
  the latency structure between tiers.
* :mod:`~repro.edge.placement` — service placement strategies (centralized
  cloud vs. edge-centric federation vs. hybrid) and the request-latency /
  trust-decentralization comparison that reproduces Figure 1 as numbers.
* :mod:`~repro.edge.islands` — vertical-domain "blockchain islands"
  (consortium networks per sector/region) and cross-island interoperability
  overhead.
"""

from repro.edge.topology import EdgeTopology, EdgeTopologyConfig, Site, TIER_LATENCIES
from repro.edge.placement import (
    PlacementComparison,
    PlacementResult,
    PlacementStrategy,
    compare_placements,
)
from repro.edge.islands import (
    BlockchainIsland,
    InteropGateway,
    IslandFederation,
)

__all__ = [
    "EdgeTopology",
    "EdgeTopologyConfig",
    "Site",
    "TIER_LATENCIES",
    "PlacementComparison",
    "PlacementResult",
    "PlacementStrategy",
    "compare_placements",
    "BlockchainIsland",
    "InteropGateway",
    "IslandFederation",
]
