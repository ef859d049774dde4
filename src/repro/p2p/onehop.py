"""One-hop (full membership) overlays and the multi-hop/one-hop trade-off.

Section II-B of the paper: "[24] demonstrated that for networks between 10K
and 100K it is possible to have full membership routing information and
provide one-hop routing. If the overlay is relatively stable like a
corporate network, then O(1) routing and full membership is the right
decision instead of maintaining routing tables and suffering multi-hop
lookups."  (Gupta, Liskov, Rodrigues, HotOS 2003.)

:class:`OverlayCostModel` gives the analytical bandwidth/latency trade-off:
one-hop overlays must propagate every membership change to every node, so
their per-node maintenance bandwidth is ``O(N * churn_rate)``, while a
Kademlia/Chord style overlay pays ``O(log N)`` state and lookup hops but only
``O(log N)`` maintenance.  :class:`OneHopOverlay` is a small event-driven
model that measures the same quantities by simulation, including the routing
staleness window that opens between a membership change and its propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.churn import ChurnModel
from repro.sim.rng import SeededRNG


@dataclass
class OneHopConfig:
    """Parameters of the one-hop overlay model."""

    size: int = 10_000
    membership_entry_bytes: int = 40        # ip, port, id, timestamp
    event_notification_bytes: int = 60
    churn: Optional[ChurnModel] = None
    dissemination_fanout: int = 10          # slice/unit leaders, Gupta-style tree
    dissemination_delay: float = 1.0        # seconds for an event to reach everyone
    lookup_timeout: float = 1.0


class OverlayCostModel:
    """Closed-form comparison of one-hop and multi-hop overlay costs.

    All formulas are the standard back-of-envelope models used in the
    one-hop-overlay literature; they are exposed as a class so experiments
    can sweep network size and churn rate and tabulate the crossover.
    """

    def __init__(
        self,
        membership_entry_bytes: int = 40,
        event_notification_bytes: int = 60,
        rpc_bytes: int = 300,
        hop_latency: float = 0.08,
        rpc_timeout: float = 3.0,
        stale_probability: float = 0.15,
    ) -> None:
        self.membership_entry_bytes = membership_entry_bytes
        self.event_notification_bytes = event_notification_bytes
        self.rpc_bytes = rpc_bytes
        self.hop_latency = hop_latency
        self.rpc_timeout = rpc_timeout
        self.stale_probability = stale_probability

    # ------------------------------------------------------------------
    # One-hop overlay
    # ------------------------------------------------------------------
    def onehop_state_bytes(self, size: int) -> float:
        """Full membership table size per node."""
        return float(size * self.membership_entry_bytes)

    def onehop_maintenance_bps(self, size: int, churn_events_per_node_hour: float) -> float:
        """Per-node maintenance bandwidth (bytes/s) to keep full membership fresh.

        Every join/leave anywhere must reach every node, so each node receives
        ``N * churn_rate`` notifications per unit time.
        """
        events_per_second = size * churn_events_per_node_hour / 3600.0
        return events_per_second * self.event_notification_bytes

    def onehop_lookup_latency(self) -> float:
        """Expected lookup latency: one hop, plus a timeout+retry when stale."""
        success = 1.0 - self.stale_probability
        return success * self.hop_latency + self.stale_probability * (
            self.rpc_timeout + 2 * self.hop_latency
        )

    # ------------------------------------------------------------------
    # Multi-hop (Kademlia/Chord-like) overlay
    # ------------------------------------------------------------------
    def multihop_state_bytes(self, size: int, k: int = 8) -> float:
        """Routing state per node: ``k`` contacts per populated bucket."""
        buckets = max(1.0, math.log2(size))
        return buckets * k * self.membership_entry_bytes

    def multihop_maintenance_bps(
        self, size: int, churn_events_per_node_hour: float, k: int = 8
    ) -> float:
        """Per-node maintenance bandwidth: only the O(k log N) neighbours matter."""
        neighbours = max(1.0, math.log2(size)) * k
        fraction_relevant = neighbours / max(1, size)
        events_per_second = size * churn_events_per_node_hour / 3600.0
        # Each relevant event costs a notification plus a probe to refresh.
        return events_per_second * fraction_relevant * (
            self.event_notification_bytes + self.rpc_bytes
        )

    def multihop_lookup_latency(self, size: int) -> float:
        """Expected lookup latency across O(log N) hops with occasional timeouts."""
        hops = max(1.0, 0.5 * math.log2(size))
        per_hop = (1.0 - self.stale_probability) * self.hop_latency + self.stale_probability * (
            self.rpc_timeout + self.hop_latency
        )
        return hops * per_hop

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def compare(self, size: int, churn_events_per_node_hour: float) -> Dict[str, float]:
        """Side-by-side costs for one network size / churn level."""
        return {
            "size": float(size),
            "churn_events_per_node_hour": churn_events_per_node_hour,
            "onehop_state_mb": self.onehop_state_bytes(size) / 1e6,
            "onehop_maintenance_kbps": self.onehop_maintenance_bps(
                size, churn_events_per_node_hour
            ) * 8.0 / 1e3,
            "onehop_lookup_latency_s": self.onehop_lookup_latency(),
            "multihop_state_mb": self.multihop_state_bytes(size) / 1e6,
            "multihop_maintenance_kbps": self.multihop_maintenance_bps(
                size, churn_events_per_node_hour
            ) * 8.0 / 1e3,
            "multihop_lookup_latency_s": self.multihop_lookup_latency(size),
        }

    def onehop_feasible(
        self,
        size: int,
        churn_events_per_node_hour: float,
        bandwidth_budget_kbps: float = 50.0,
        memory_budget_mb: float = 100.0,
    ) -> bool:
        """Whether full membership fits the per-node bandwidth/memory budget."""
        costs = self.compare(size, churn_events_per_node_hour)
        return (
            costs["onehop_maintenance_kbps"] <= bandwidth_budget_kbps
            and costs["onehop_state_mb"] <= memory_budget_mb
        )


class OneHopOverlay:
    """Monte-Carlo model of lookup success/latency in a one-hop overlay under churn."""

    def __init__(self, config: Optional[OneHopConfig] = None, seed: int = 0) -> None:
        self.config = config or OneHopConfig()
        self.rng = SeededRNG(seed)
        self.churn = self.config.churn or ChurnModel.stable()

    def staleness_probability(self) -> float:
        """Probability a membership entry is stale when used.

        An entry is stale if its peer departed within the last
        ``dissemination_delay`` seconds (the notification has not arrived yet).
        With mean session length S, departures happen at rate 1/S per peer, so
        the stale window covers ``dissemination_delay / S`` of the time.
        """
        mean_session = max(self.churn.mean_session, 1e-9)
        return min(1.0, self.config.dissemination_delay / mean_session)

    def lookup_latencies(self, lookups: int = 300, hop_latency: float = 0.08) -> List[float]:
        """Sampled lookup latencies including timeout+retry on stale entries."""
        stale_p = self.staleness_probability()
        latencies = []
        for _ in range(lookups):
            latency = self.rng.exponential(hop_latency)
            if self.rng.bernoulli(stale_p):
                latency += self.config.lookup_timeout + self.rng.exponential(hop_latency)
            latencies.append(latency)
        return latencies

    def maintenance_bandwidth_bps(self) -> float:
        """Per-node maintenance bandwidth implied by the configured churn model."""
        cycle = self.churn.mean_session + self.churn.mean_downtime
        events_per_node_hour = 2.0 * 3600.0 / cycle if cycle > 0 else 0.0
        model = OverlayCostModel(
            membership_entry_bytes=self.config.membership_entry_bytes,
            event_notification_bytes=self.config.event_notification_bytes,
        )
        return model.onehop_maintenance_bps(self.config.size, events_per_node_hour)
