"""Sybil attacks on open structured overlays (Experiment E3).

Section II-B, Problem 3: "open networks where peers can assign their
identities are prone to Sybil attacks. In a Sybil attack, the idea is to
impersonate thousands of identifiers with a few powerful nodes", and
"massive identity problems were reported in eMule KAD and in BitTorrent
DHTs".

The attack model follows the eclipse-by-identity-placement strategy studied
for KAD (Steiner et al., Wang et al.): an attacker controlling a handful of
physical machines inserts many virtual identities into the overlay.  Because
identifiers are self-assigned, the attacker can either spread identities
uniformly (to intercept a proportional share of all traffic) or target a
specific key region (to eclipse particular content).  A lookup is counted as
*hijacked* when a majority of the k closest identifiers it terminates on are
attacker-controlled — at that point the attacker can return bogus values,
censor content or track requesters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.p2p.identifiers import random_id, xor_distance
from repro.p2p.kademlia import KademliaConfig, KademliaNetwork, KademliaNode, LookupResult
from repro.sim.rng import SeededRNG


@dataclass
class SybilAttackConfig:
    """Attack and measurement parameters."""

    honest_nodes: int = 400
    attacker_machines: int = 4
    identities_per_machine: int = 100
    lookups: int = 150
    targeted_key: Optional[int] = None      # None = spread identities uniformly
    kademlia: KademliaConfig = field(default_factory=KademliaConfig.kad_like)
    seed: int = 0


@dataclass
class SybilAttackResult:
    """Measured impact of the Sybil attack."""

    honest_nodes: int
    sybil_identities: int
    attacker_machines: int
    identity_share: float
    physical_share: float
    hijacked_lookups: int
    total_lookups: int
    mean_sybils_in_result: float

    @property
    def hijack_rate(self) -> float:
        """Fraction of lookups whose closest set is majority attacker-controlled."""
        return self.hijacked_lookups / self.total_lookups if self.total_lookups else 0.0

    @property
    def amplification(self) -> float:
        """Hijack rate divided by the attacker's share of physical machines."""
        return self.hijack_rate / self.physical_share if self.physical_share > 0 else 0.0


def run_sybil_attack(config: Optional[SybilAttackConfig] = None) -> SybilAttackResult:
    """Build an overlay, inject sybil identities, measure lookup hijack rate."""
    config = config or SybilAttackConfig()
    rng = SeededRNG(config.seed)
    total_sybils = config.attacker_machines * config.identities_per_machine
    dht = KademliaNetwork(
        size=config.honest_nodes,
        config=config.kademlia,
        seed=config.seed,
    )

    # The attacker's identifier draws must be independent of the stream that
    # generated the honest population, otherwise they collide with it.
    sybil_ids = _insert_sybil_identities(
        dht, total_sybils, config.targeted_key, rng.fork("sybil-identities")
    )
    total_sybils = len(sybil_ids)

    results: List[LookupResult] = []
    honest_ids = [nid for nid in dht.node_ids() if nid not in sybil_ids]
    issued = {"count": 0}
    sim = dht.sim

    def _issue_next() -> None:
        if issued["count"] >= config.lookups:
            return
        issued["count"] += 1
        origin = rng.choice(honest_ids)
        if config.targeted_key is not None:
            target = config.targeted_key
        else:
            target = random_id(rng)
        dht.lookup(origin, target, results.append)
        sim.schedule(1.0, _issue_next)

    sim.schedule(0.0, _issue_next)
    sim.run(until=sim.now + config.lookups * 1.0 + 100 * config.kademlia.rpc_timeout)

    hijacked = 0
    sybils_in_results = []
    for result in results:
        closest = result.closest[: config.kademlia.k]
        sybil_count = sum(1 for contact in closest if contact in sybil_ids)
        sybils_in_results.append(sybil_count)
        if closest and sybil_count > len(closest) / 2:
            hijacked += 1

    population = config.honest_nodes + total_sybils
    physical_population = config.honest_nodes + config.attacker_machines
    return SybilAttackResult(
        honest_nodes=config.honest_nodes,
        sybil_identities=total_sybils,
        attacker_machines=config.attacker_machines,
        identity_share=total_sybils / population if population else 0.0,
        physical_share=config.attacker_machines / physical_population
        if physical_population
        else 0.0,
        hijacked_lookups=hijacked,
        total_lookups=len(results),
        mean_sybils_in_result=(
            sum(sybils_in_results) / len(sybils_in_results) if sybils_in_results else 0.0
        ),
    )


def _insert_sybil_identities(
    dht: KademliaNetwork,
    count: int,
    targeted_key: Optional[int],
    rng: SeededRNG,
) -> Dict[int, bool]:
    """Add attacker identities as live nodes and seed them into honest routing tables."""
    honest_ids = list(dht.nodes.keys())
    sybil_ids: Dict[int, bool] = {}
    sybil_nodes: List[KademliaNode] = []
    for _ in range(count):
        if targeted_key is not None:
            # Self-assign an identifier adjacent to the target key: flip only
            # low-order bits so the sybil is closer than almost every honest node.
            identity = targeted_key ^ rng.getrandbits(24)
        else:
            identity = random_id(rng)
        if identity in dht.nodes:
            continue
        node = KademliaNode(identity, dht.sim, dht.network, dht.config)
        # Sybils know the whole honest population (the attacker crawls the DHT).
        for honest in honest_ids[:512]:
            node.observe(honest)
        dht.nodes[identity] = node
        sybil_ids[identity] = True
        sybil_nodes.append(node)

    # The attacker's identities collude: each sybil knows every other sybil,
    # so once a lookup touches one of them the reply steers it towards more.
    sybil_list = list(sybil_ids.keys())
    for node in sybil_nodes:
        for other in sybil_list:
            node.observe(other)

    if not sybil_list:
        return sybil_ids

    # Announcement phase (the attacker performs self-lookups / pings, as in
    # the published KAD attacks): each sybil identity is announced to the
    # honest peers whose identifiers are closest to it.  Those peers have
    # sparse low-index buckets for that region of the identifier space, so
    # the self-assigned identity is accepted into their routing tables.
    announce_to = 3 * dht.config.k
    for sybil in sybil_list:
        closest_honest = sorted(
            honest_ids, key=lambda honest: xor_distance(honest, sybil)
        )[:announce_to]
        for honest in closest_honest:
            dht.nodes[honest].observe(sybil)
    return sybil_ids
