"""Hierarchical edge/cloud deployment topology.

Section V: an edge-centric architecture is "a federation including not only
big cloud datacenters, but also nano datacenters and personal devices".  The
topology model places sites in tiers — devices, edge (nano datacenters /
on-premise gateways), regional datacenters, central cloud — and derives the
network latency of any interaction from the tiers and regions of the two
endpoints.  The tier latencies use widely published figures: single-digit
milliseconds to an on-premise edge, tens of milliseconds to a regional
datacenter, and roughly 100–200 ms to a distant central cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.rng import SeededRNG

#: One-way latency in seconds from an end device in a region to a site of a
#: given tier (same region unless noted).
TIER_LATENCIES: Dict[str, float] = {
    "device": 0.001,          # on the device / LAN
    "edge": 0.005,            # on-premise gateway or nano datacenter
    "regional": 0.030,        # in-region cloud datacenter
    "central": 0.120,         # distant central cloud region
}

#: Extra latency when the interaction crosses regions.
CROSS_REGION_PENALTY = 0.080


@dataclass(frozen=True)
class Site:
    """A deployment location: a device, an edge site or a datacenter."""

    name: str
    tier: str
    region: str
    organization: str
    capacity_rps: float = 1000.0      # requests/second the site can serve

    def __post_init__(self) -> None:
        if self.tier not in TIER_LATENCIES:
            raise ValueError(f"unknown tier {self.tier!r}")


@dataclass
class EdgeTopologyConfig:
    """Shape of the generated topology."""

    regions: int = 4
    organizations_per_region: int = 3
    devices_per_organization: int = 50
    edge_sites_per_organization: int = 1
    regional_dc_per_region: int = 1
    central_regions: int = 1          # how many regions host the central cloud
    seed: int = 0


class EdgeTopology:
    """Generates sites and answers latency queries between them."""

    def __init__(self, config: Optional[EdgeTopologyConfig] = None) -> None:
        self.config = config or EdgeTopologyConfig()
        self.rng = SeededRNG(self.config.seed)
        self.sites: List[Site] = []
        self.devices: List[Site] = []
        self.edge_sites: List[Site] = []
        self.regional_sites: List[Site] = []
        self.central_sites: List[Site] = []
        self._build()

    def _build(self) -> None:
        config = self.config
        for region_index in range(config.regions):
            region = f"region-{region_index}"
            for dc_index in range(config.regional_dc_per_region):
                site = Site(
                    name=f"{region}-dc{dc_index}",
                    tier="regional",
                    region=region,
                    organization="cloud-provider",
                    capacity_rps=50_000.0,
                )
                self.regional_sites.append(site)
                self.sites.append(site)
            for org_index in range(config.organizations_per_region):
                organization = f"{region}-org{org_index}"
                for edge_index in range(config.edge_sites_per_organization):
                    site = Site(
                        name=f"{organization}-edge{edge_index}",
                        tier="edge",
                        region=region,
                        organization=organization,
                        capacity_rps=2_000.0,
                    )
                    self.edge_sites.append(site)
                    self.sites.append(site)
                for device_index in range(config.devices_per_organization):
                    site = Site(
                        name=f"{organization}-device{device_index}",
                        tier="device",
                        region=region,
                        organization=organization,
                        capacity_rps=50.0,
                    )
                    self.devices.append(site)
                    self.sites.append(site)
        for central_index in range(config.central_regions):
            site = Site(
                name=f"central-cloud-{central_index}",
                tier="central",
                region=f"central-region-{central_index}",
                organization="cloud-provider",
                capacity_rps=1_000_000.0,
            )
            self.central_sites.append(site)
            self.sites.append(site)

    # ------------------------------------------------------------------
    # Latency queries
    # ------------------------------------------------------------------
    def latency(self, origin: Site, destination: Site, jitter: bool = True) -> float:
        """One-way latency from a device/site to another site."""
        base = TIER_LATENCIES[destination.tier]
        if destination.tier == "device" and origin.name == destination.name:
            base = TIER_LATENCIES["device"]
        if origin.region != destination.region and destination.tier != "central":
            base += CROSS_REGION_PENALTY
        if destination.tier == "central":
            # Central cloud is remote from everyone by definition.
            base = TIER_LATENCIES["central"]
        if jitter:
            base *= self.rng.lognormal(0.0, 0.2)
        return base

    def organizations(self) -> List[str]:
        """All organizations that operate edge sites."""
        return sorted({site.organization for site in self.edge_sites})

    def edge_site_of(self, organization: str) -> Site:
        """The (first) edge site of an organization."""
        for site in self.edge_sites:
            if site.organization == organization:
                return site
        raise KeyError(f"no edge site for organization {organization!r}")

    def nearest_regional(self, device: Site) -> Site:
        """The regional datacenter in the device's region."""
        for site in self.regional_sites:
            if site.region == device.region:
                return site
        return self.regional_sites[0]

    def central(self) -> Site:
        """The central cloud site."""
        return self.central_sites[0]
